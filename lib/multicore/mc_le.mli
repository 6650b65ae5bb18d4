(** A packaged multicore leader election: a registry algorithm
    instantiated over {!Backend.Atomic_mem}, erased to a single [elect]
    closure so the registry, the chaos harness, the lock service and the
    CLI can iterate them uniformly.

    Contender identity is a [slot] in [0 .. n-1], distinct per
    participating domain; algorithms that need a nonzero id internally
    (splitter races) derive it themselves. *)

type t = {
  mc_name : string;
  registers : int;  (** atomics allocated by the structure *)
  elect : Backend.Atomic_mem.ctx -> bool;
}

val derive : string -> (module Leaderelect.Le.MAKE) -> n:int -> t
(** [derive name (module F)] applies [F] at {!Backend.Atomic_mem} once
    and returns the builder of entry [name]: each [~n] call allocates a
    fresh structure for [n] slots. Its [elect] closure rejects a slot
    outside [0 .. n-1] with one [Invalid_argument] naming [name], so
    {!elect} and [Mc_tas.apply] both check it. *)

val le2 : unit -> t
(** The raw 2-process duel ({!Primitives.Le2}) at {!Backend.Atomic_mem},
    packaged like a registry entry. It is not one: its port is the slot,
    so only slots 0 and 1 may call it. *)

val name : t -> string

val registers : t -> int

val elect : t -> Random.State.t -> slot:int -> bool
(** Wraps [rng] and [slot] into an {!Backend.Atomic_mem.ctx}. At most
    one call per slot; exactly one caller wins. *)
