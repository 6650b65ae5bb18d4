(** Linearizable test-and-set from leader election.

    The paper (after Golab, Hendler and Woelfel) observes that any
    LeaderElect object plus one atomic register implements a linearizable
    TAS: a [TAS()] call first reads a doorway register — if it is set,
    some losing call already completed, so the bit was certainly set
    before we started and we may return 1 — then runs the election;
    the winner returns 0 and every loser sets the doorway before
    returning 1. *)

module Make (M : Backend.Mem.S) : sig
  type t

  val create : ?name:M.name -> M.mem -> elect:(M.ctx -> bool) -> t
  (** [elect] is the leader-election entry point; it must guarantee at
      most one [true] across all callers, and exactly one when nobody
      crashes. Each process may call the resulting TAS at most once. *)

  val apply : t -> M.ctx -> int
  (** Returns the previous value of the bit: 0 for the unique winner,
      1 for everybody else. *)
end

type t = Make(Backend.Sim_mem).t

val create :
  ?name:string -> Sim.Memory.t -> elect:(Sim.Ctx.t -> bool) -> t
(** [elect] is the leader-election entry point; it must guarantee at most
    one [true] across all callers, and exactly one when nobody crashes.
    Each process may call the resulting TAS at most once. *)

val apply : t -> Sim.Ctx.t -> int
(** Returns the previous value of the bit: 0 for the unique winner,
    1 for everybody else. *)
