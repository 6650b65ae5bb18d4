(** One-shot linearizable test-and-set on atomics: any packaged
    {!Mc_le.t} election plus a doorway register — literally
    [Primitives.Tas.Make (Backend.Atomic_mem)] fed with its [elect].

    For comparison, {!native} wraps the hardware-level
    [Atomic.exchange] — the primitive the paper's algorithms implement
    from plain reads and writes. *)

type t

val of_le : Mc_le.t -> t
(** Wrap any packaged election (e.g. a registry entry's [make_mc])
    into a test-and-set. *)

val native : unit -> t
(** [Atomic.exchange]-based; reference implementation. Ignores the
    [Random.State.t] passed to {!apply} — the hardware primitive flips
    no coins. *)

val apply : t -> Random.State.t -> slot:int -> int
(** Returns 0 to exactly one caller (the winner), 1 to all others.
    At most one call per slot. *)

val name : t -> string
