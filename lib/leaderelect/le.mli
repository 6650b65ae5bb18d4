(** Common shape of an n-process leader-election object.

    [elect] may be called at most once per process; at most one call
    returns [true], and if no participant crashes exactly one does. *)

type t = {
  le_name : string;
  elect : Sim.Ctx.t -> bool;
}

(** One election algorithm, written once over {!Backend.Mem.S}: the
    shape every backend is derived from. [Make (Backend.Sim_mem)] is the
    simulator instantiation behind {!t}, and
    [Multicore.Mc_le.derive] applies the functor at
    {!Backend.Atomic_mem}. *)
module type MAKE = functor (M : Backend.Mem.S) -> sig
  type t

  val create : ?name:M.name -> M.mem -> n:int -> t

  val elect : t -> M.ctx -> bool
  (** At most one call per contender slot [M.self ctx]. *)
end

val programs : t -> k:int -> (Sim.Ctx.t -> int) array
(** [programs le ~k] is [k] copies of a program that calls [elect] once
    and returns 1 if it won, 0 otherwise — ready for {!Sim.Sched.create}. *)

val winners : Sim.Sched.t -> int list
(** Pids whose program returned 1. *)
