(** Group Election (Section 2.1 of the paper).

    A GroupElect object provides [elect], returning [true] (elected) or
    [false]. If some processes call [elect], at least one gets elected.
    Its quality is its {e performance parameter} [f]: the expected number
    of elected processes when [k] processes participate.

    The record is polymorphic in the execution-context type so the same
    shape serves every {!Backend.Mem.S} backend; {!t} is the simulator
    instantiation almost all call sites use. *)

type 'ctx gen = {
  elect : 'ctx -> bool;  (** At most one call per process. *)
}

type t = Sim.Ctx.t gen
