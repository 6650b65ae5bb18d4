(** Deterministic splitter (Moir–Anderson).

    [split] returns a value in [{L, R, S}]. If [k] processes call
    [split], at most [k-1] receive [L], at most [k-1] receive [R], and at
    most one receives [S]; a solo caller always receives [S]. Uses O(1)
    registers and O(1) steps.

    Written once over the {!Backend.Mem.S} signature; the unprefixed
    values below are the {!Backend.Sim_mem} instantiation (identical to
    the historical hand-written simulator code), and
    [Make (Backend.Atomic_mem)] is the real-multicore version. *)

type outcome = L | R | S

val equal_outcome : outcome -> outcome -> bool
val pp_outcome : outcome Fmt.t

module Make (M : Backend.Mem.S) : sig
  type t

  val create : ?name:M.name -> M.mem -> t

  val split : t -> M.ctx -> outcome
  (** At most one [split] call per process; [M.self] must be distinct
      per caller. *)
end

type t = Make(Backend.Sim_mem).t

val create : ?name:string -> Sim.Memory.t -> t

val split : t -> Sim.Ctx.t -> outcome
(** At most one [split] call per process. *)
