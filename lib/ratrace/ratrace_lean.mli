(** The paper's space-efficient RatRace (Section 3.2).

    The [3 log n]-height primary tree is replaced by a tree of height
    [ceil(log2 n)], whose overflow is absorbed by [ceil(n / log2 n)]
    elimination paths of length [4 * ceil(log2 n)] (a process that falls
    off leaf [j] enters path [floor(j / log2 n)]; the winner of path [i]
    re-enters the tree at leaf [i]), and the [n x n] backup grid is
    replaced by a single elimination path of length [n]. Claim 3.2
    bounds the probability that more than [4 log n] processes reach any
    fixed window of [log n] leaves by [1/n^2], so w.h.p. nobody even
    reaches the backup path.

    Expected step complexity O(log k) against the adaptive adversary,
    with Theta(n) registers instead of Theta(n^3). *)

module Make (M : Backend.Mem.S) : sig
  type t

  val create : ?name:M.name -> M.mem -> n:int -> t

  val elect_notify :
    ?notify_splitter_win:(unit -> unit) -> t -> M.ctx -> bool
  (** [notify_splitter_win] fires the first time the caller wins any
      splitter of the structure (Section 4, rule 3). *)

  val elect : t -> M.ctx -> bool
  (** [elect_notify] without a listener: the [Leaderelect.Le.MAKE]
      shape the registry derives its [Atomic.t] election from. *)
end

type t = Make(Backend.Sim_mem).t

val create : ?name:string -> Sim.Memory.t -> n:int -> t

val elect : ?notify_splitter_win:(unit -> unit) -> t -> Sim.Ctx.t -> bool
(** At most one call per process; at most [n] processes.
    [notify_splitter_win] fires the first time the caller wins any
    splitter of the structure (Section 4, rule 3). *)

val tree_height : n:int -> int

val path_count : n:int -> int

val path_length : n:int -> int
