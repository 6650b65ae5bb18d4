(** The pluggable 2-process leader-election signature ("duel").

    A duel is the base case of every tree and chain construction in the
    repo: two ports, 0 and 1; at most one process may call [elect] on
    each port; at most one call returns [true] (the winner), and if no
    caller crashes exactly one does. [create] allocates the duel's
    registers from [mem], prefixing their names with [name] so traces
    stay readable when many duels share an arena.

    The signature abstracts over {!Backend.Mem.S}, so one duel source
    runs on the simulator and on real [Atomic.t] memory alike.
    {!Le2.Make} (Tromp–Vitányi-style unbounded random walk) and
    {!Le2_bounded.Make} (the same walk over mod-8 positions) both match
    it, and {!Leaderelect.Tournament} / {!Leaderelect.Chain} are
    functorized over it — any new 2-process TAS composes with every
    construction without copying their bodies. *)

module type S = functor (M : Backend.Mem.S) -> sig
  type t

  val create : ?name:M.name -> M.mem -> t

  val elect : t -> M.ctx -> port:int -> bool
  (** [port] must be 0 or 1. *)
end
