(** Elimination path (Section 3.2).

    A path of [length] nodes, each holding a deterministic splitter and a
    2-process leader election. A process enters at node 0 and moves right
    while its splitter calls return [R]; an [L] means it loses; an [S]
    means it turns around and must win the 2-process elections of every
    node back to node 0 to win the path.

    Claim 3.1: if at most [length] processes enter, no process falls off
    the right end. Space is Theta(length) registers. *)

type outcome = Lost | Won | Fell_off

module Make (M : Backend.Mem.S) : sig
  type t

  val create : ?name:M.name -> M.mem -> length:int -> t
  val length : t -> int
  val run : ?notify_stop:(unit -> unit) -> t -> M.ctx -> outcome
end

type t = Make(Backend.Sim_mem).t

val create : ?name:string -> Sim.Memory.t -> length:int -> t

val length : t -> int

val run : ?notify_stop:(unit -> unit) -> t -> Sim.Ctx.t -> outcome
(** At most one call per process. [notify_stop] fires when the caller
    wins one of the path's splitters (used by the Section 4 combiner,
    whose rule 3 depends on whether a process holds a splitter). *)
