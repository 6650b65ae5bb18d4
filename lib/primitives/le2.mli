(** Randomized wait-free 2-process leader election (Tromp–Vitányi style).

    Two ports, 0 and 1; at most one process may call {!elect} on each
    port. At most one call returns [true] (the winner); if no caller
    crashes, exactly one call returns [true]. Uses 2 registers and O(1)
    expected steps against the adaptive adversary.

    The protocol is a random-walk duel: each process keeps a position,
    initially 0, exposed in its register. In every iteration it reads
    the other port's position [o]; with own position [p] it loses if
    [o >= p + 2], wins if [o <= p - 3], and otherwise advances its
    position by a fair coin flip, writing the register whenever the
    position changes, so that every read happens right after the write
    of the reader's current position.

    Safety sketch: suppose a process wins at position [p] having read
    [o <= p - 3]; its register is frozen at [p] from then on. The
    opponent's true position at that moment is at most [o + 1 <= p - 2]
    (its last [+1] write may be pending), and its next read happens at
    that same position, observing [p >= pos + 2] — so it loses before it
    can move again; hence two winners are impossible. Two losers are
    impossible because losing at position [p] requires the opponent's
    register to have reached [p + 2] while one's own register never
    exceeds one's final position. These thresholds are asymmetric
    precisely because a pending write makes the exposed position stale
    by one. This is a variant of the protocol of Tromp and Vitányi
    (Distributed Computing 15(3), 2002) with the same guarantees; see
    DESIGN.md. The safety property is additionally model-checked
    exhaustively in the test suite.

    The argument relies only on register atomicity, so it holds verbatim
    for both backends of {!Backend.Mem.S}: the simulator instantiation
    below and [Make (Backend.Atomic_mem)], which the multicore tests
    and bench race on real domains. *)

module Make (M : Backend.Mem.S) : sig
  type t

  val create : ?name:M.name -> M.mem -> t

  val elect : t -> M.ctx -> port:int -> bool
  (** [port] must be 0 or 1. *)
end

type t = Make(Backend.Sim_mem).t

val create : ?name:string -> Sim.Memory.t -> t

val elect : t -> Sim.Ctx.t -> port:int -> bool
(** [port] must be 0 or 1. *)
