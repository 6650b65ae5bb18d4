(** The simulator backend of {!Mem.S}.

    Every operation forwards to the effects-based simulator — [alloc]
    is {!Sim.Register.create} (same arena, same allocation ids, same
    names: [name] is [string] and {!sub}/{!item} format exactly the
    strings the hand-written code did), reads/writes/flips perform the
    {!Sim.Ctx} effects, and the probe hooks are {!Obs.enter}/{!Obs.leave} keyed by the simulator
    pid. An algorithm instantiated with this backend is therefore
    bit-identical to the same algorithm hand-written against [Sim.Ctx]:
    identical register layout, identical effect sequence, identical
    flip stream, identical probe spans. The type equalities below are
    public so existing [Sim]-typed call sites keep compiling against
    the functorized modules unchanged. *)

type mem = Sim.Memory.t
type reg = Sim.Register.t
type ctx = Sim.Ctx.t
type name = string

val label : string -> name
val sub : name -> string -> name
val item : name -> string -> int -> name
val alloc : mem -> name:name -> reg
val self : ctx -> int
val read : ctx -> reg -> int
val write : ctx -> reg -> int -> unit
val flip : ctx -> int -> int
val flip_bool : ctx -> bool
val flip_geometric : ctx -> int -> int
val enter : ctx -> string -> unit
val leave : ctx -> string -> unit
