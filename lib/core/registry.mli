(** Catalog of every leader-election implementation in the library, with
    the complexity bounds the paper (or its cited baselines) proves for
    each. Used by the benchmarks, the CLI and the examples to iterate
    over algorithms uniformly.

    Each algorithm has exactly one source — a functor over
    {!Backend.Mem.S} ({!Leaderelect.Le.MAKE}) — and an entry exposes
    whichever backends that functor has been instantiated at: [make]
    builds the simulator instantiation, and [make_mc] (when present)
    the [Atomic.t]-backed one for real domains, always
    [Multicore.Mc_le.derive name (module X.Make)]. *)

type entry = {
  name : string;
  make : Sim.Memory.t -> n:int -> Leaderelect.Le.t;
  make_mc : (n:int -> Multicore.Mc_le.t) option;
      (** Multicore backend of the same functor, derived by
          {!Multicore.Mc_le.derive} (the functor is applied once per
          entry; each call builds a fresh structure), when the
          algorithm does not need simulator-only machinery (adversary
          hooks, crash injection, effect coroutines) to run. *)
  make_flat : (n:int -> Flatsim.Machine.program) option;
      (** Flat-kernel compilation of the same algorithm
          ({!Flatsim.Programs}), when one exists. Bit-identical to
          [make] under matching seeds and schedules (pinned by the
          flat-vs-effect differential test); the hot-election set the
          bench, the perf gate and the service driver's [--kernel flat]
          path run on. *)
  adversary : Sim.Sched.klass;
      (** Strongest adversary class against which the step bound holds. *)
  steps : string;  (** Expected step complexity, as stated in the paper. *)
  space : string;  (** Register count. *)
  reference : string;
}

val all : entry list

val find : string -> entry option

val names : unit -> string list

val dual : unit -> entry list
(** The entries carrying both backends ([make_mc] present) — the ones
    the multicore chaos harness, the [rtas mc] subcommand and the lock
    service's [atomic] backend can iterate. *)

val dual_names : unit -> string list

val flat : unit -> entry list
(** The entries carrying a flat-kernel compilation ([make_flat]
    present) — the ones the flat differential test, the bench scaling
    sweep and [rtas service --kernel flat] can iterate. *)

val flat_names : unit -> string list
