module A = Primitives.Tas.Make (Backend.Atomic_mem)

type impl =
  | Elect of A.t
  | Native of bool Atomic.t

type t = { name : string; impl : impl }

let of_le (le : Mc_le.t) =
  let mem = Backend.Atomic_mem.create () in
  { name = le.Mc_le.mc_name; impl = Elect (A.create mem ~elect:le.Mc_le.elect) }

let native () = { name = "native"; impl = Native (Atomic.make false) }

let apply t rng ~slot =
  match t.impl with
  | Native flag -> if Atomic.exchange flag true then 1 else 0
  | Elect tas -> A.apply tas (Backend.Atomic_mem.ctx ~rng ~slot ())

let name t = t.name
