(** Trivial Group Election that elects every participant.

    Uses no registers and no shared-memory steps. The paper uses these
    past the first O(log n) levels of the log* construction: with
    probability 1 - 1/n the real levels are never exhausted, so the
    remaining ones can be free — which caps the space at O(n). *)

val gen : unit -> 'ctx Ge.gen
(** Backend-polymorphic: the dummy never touches shared memory, so one
    value serves every {!Backend.Mem.S} context type. *)

val create : unit -> Ge.t
