(** Randomized splitter (Attiya, Kuhn, Plaxton, Wattenhofer, Wattenhofer).

    Like a deterministic splitter, at most one [split] call returns [S]
    and a solo caller always receives [S]; but a call that does not
    return [S] returns [L] or [R] independently with probability 1/2
    each (so all callers may receive the same direction). *)

module Make (M : Backend.Mem.S) : sig
  type t

  val create : ?name:M.name -> M.mem -> t
  val split : t -> M.ctx -> Splitter.outcome
end

type t = Make(Backend.Sim_mem).t

val create : ?name:string -> Sim.Memory.t -> t

val split : t -> Sim.Ctx.t -> Splitter.outcome
