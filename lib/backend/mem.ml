(** The MEM signature: the abstract shared-memory machine every election
    algorithm is written against, exactly once.

    An algorithm functorized over [S] sees multi-reader multi-writer
    atomic integer registers (allocated from a [mem] arena), a per-call
    execution context [ctx] carrying the caller's identity and coin
    source, and two probe hooks for phase attribution. Two backends
    implement it:

    - {!Sim_mem} forwards every operation to the effects-based simulator
      ({!Sim.Ctx}/{!Sim.Memory}/{!Obs}). Its executions are
      {e bit-identical} to the pre-functor hand-written code: same
      registers allocated in the same order with the same names, same
      effect sequence, same flip stream (see DESIGN.md §11).
    - {!Atomic_mem} runs on real domains: registers are [Atomic.t],
      coins come from a per-domain [Random.State], probes are no-ops.

    The contract mirrors the paper's model: registers hold integers
    (initially 0), operations are atomic reads and writes, and coin
    flips are local — the adversary (simulator scheduler or OS) only
    controls the interleaving of the shared-memory steps. *)

module type S = sig
  type mem
  (** Register arena; allocation happens only at construction time. *)

  type reg
  (** One atomic integer register, initially 0. *)

  type ctx
  (** Per-process execution context: identity + coin source. *)

  type name
  (** A register's diagnostic name (trace and metric labels). A
      structure builds its registers' names from the name it was given,
      with {!sub} and {!item}, as it allocates them. [Sim_mem] uses
      [string], so the simulator's names are the literal strings below;
      [Atomic_mem] uses [unit], so building an atomic structure formats
      nothing. Backends must not let a name affect behaviour. *)

  val label : string -> name
  (** A root name, e.g. the default ["tournament"]. *)

  val sub : name -> string -> name
  (** [sub n s] is [n ^ s], e.g. [sub n ".race"]. *)

  val item : name -> string -> int -> name
  (** [item n field i] is [Printf.sprintf "%s.%s[%d]" n field i], the
      name of element [i] of an array field, e.g. ["tree.rsp[3]"]. *)

  val alloc : mem -> name:name -> reg
  (** Allocate a fresh register. *)

  val self : ctx -> int
  (** The caller's contender slot, [0 .. n-1]. Algorithms use it for
      symmetry breaking (splitter race ids, tournament leaves); it must
      be distinct per participant of one object. *)

  val read : ctx -> reg -> int

  val write : ctx -> reg -> int -> unit

  val flip : ctx -> int -> int
  (** [flip ctx bound] is a uniform draw from [0 .. bound - 1]. *)

  val flip_bool : ctx -> bool
  (** A fair coin. [Sim_mem] implements it as [flip ctx 2 = 1] — the
      exact expression the pre-functor code used — so the simulator's
      flip stream is unchanged. *)

  val flip_geometric : ctx -> int -> int
  (** [flip_geometric ctx l] draws [x] with [Pr(x = i) = 2^-i],
      truncated to [1 .. l] (the cap absorbs the tail mass). *)

  val enter : ctx -> string -> unit
  (** Probe hook: the caller enters the named algorithm phase. Free when
      no observer is attached; always free on atomics. *)

  val leave : ctx -> string -> unit
end
