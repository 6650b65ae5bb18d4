(** The 2-process duel of {!Le2} with {e bounded} registers — matching
    the Tromp–Vitányi result, whose registers hold constantly many
    values, rather than unbounded positions.

    Positions are stored modulo 8. This is sound because while both
    processes are still undecided the true gap stays in [[-3, +3]]:
    a climbing process re-reads its opponent every iteration and
    decides as soon as it observes a gap of +2 (lose) or -3 (win), and
    its own position moves by at most one between reads — so gaps cross
    the thresholds exactly and never alias past them. The decoded
    difference [((o - pos + 4) mod 8) - 4] in [[-4, +3]] therefore
    equals the true gap at every decision point.

    Same guarantees as {!Le2}: at most one winner, exactly one without
    crashes, O(1) expected steps — now from two registers of domain
    size 8. Model-checked exhaustively in the test suite.

    [Make] satisfies {!Duel.S}, so the bounded duel drops into
    {!Leaderelect.Tournament.Make_duel} and
    {!Leaderelect.Chain.Make_duel} as the base case for every
    tree/chain construction, on either backend. *)

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
