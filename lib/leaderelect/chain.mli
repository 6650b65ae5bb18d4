(** The Leader Election construction of Section 2.1.

    Level [i] holds a GroupElect object [GE_i], a deterministic splitter
    [SP_i] and a 2-process election [LE_i]. A process participates in
    the group elections in order; losing one loses the whole election.
    An elected process calls [SP_i.split()]: [L] loses, [R] proceeds to
    level [i+1], [S] turns around and must win [LE_i], [LE_(i-1)], ...,
    [LE_0] (entering [LE_i] on port 0 as the splitter winner and each
    earlier one on port 1 as the winner of the following one). The
    winner of [LE_0] wins.

    If [j > 0] processes reach level [i], at most [j - 1] reach level
    [i+1], so a chain of [n] levels never overflows; the expected number
    of levels used is the hitting time [Delta_(f-1)(k)] for the
    GroupElect performance parameter [f] (Lemma 2.1). *)

type forward = F_lost | F_stopped of int | F_exhausted

(** [Make_duel] plugs any {!Primitives.Duel.S} in as the per-level
    2-process election; [Make] is the historical instantiation over
    {!Primitives.Le2} — byte-identical to the pre-[Duel.S] code. *)
module Make_duel (D : Primitives.Duel.S) (M : Backend.Mem.S) : sig
  type t

  val create : M.mem -> ?name:M.name -> M.ctx Groupelect.Ge.gen array -> t
  val levels : t -> int
  val forward : t -> M.ctx -> from_level:int -> upto:int -> forward
  val backward : t -> M.ctx -> stopped_at:int -> bool
  val elect : t -> M.ctx -> bool
end

module Make (M : Backend.Mem.S) : sig
  type t

  val create : M.mem -> ?name:M.name -> M.ctx Groupelect.Ge.gen array -> t
  val levels : t -> int
  val forward : t -> M.ctx -> from_level:int -> upto:int -> forward
  val backward : t -> M.ctx -> stopped_at:int -> bool
  val elect : t -> M.ctx -> bool
end

type t = Make(Backend.Sim_mem).t

val create : Sim.Memory.t -> ?name:string -> Groupelect.Ge.t array -> t
(** One level per GroupElect object; splitters and 2-process elections
    are allocated here (2 + 2 registers per level). *)

val levels : t -> int

val forward : t -> Sim.Ctx.t -> from_level:int -> upto:int -> forward
(** Traverse levels [from_level .. upto - 1]. [F_stopped i] means the
    process won splitter [i] and must now run {!backward}. *)

val backward : t -> Sim.Ctx.t -> stopped_at:int -> bool
(** Win the chain of 2-process elections from [stopped_at] down to 0. *)

val elect : t -> Sim.Ctx.t -> bool
(** Run the full chain; raises [Failure] on overflow, which cannot
    happen if the chain has at least as many levels as participants. *)
