type mem = Sim.Memory.t
type reg = Sim.Register.t
type ctx = Sim.Ctx.t
type name = string

let label s = s
let sub = ( ^ )
let item n field i =
  String.concat "" [ n; "."; field; "["; string_of_int i; "]" ]

let alloc mem ~name = Sim.Register.create ~name mem
let self = Sim.Ctx.pid
let read = Sim.Ctx.read
let write = Sim.Ctx.write
let flip = Sim.Ctx.flip
let flip_bool = Sim.Ctx.flip_bool
let flip_geometric = Sim.Ctx.flip_geometric
let enter ctx phase = Obs.enter ~pid:(Sim.Ctx.pid ctx) phase
let leave ctx phase = Obs.leave ~pid:(Sim.Ctx.pid ctx) phase
