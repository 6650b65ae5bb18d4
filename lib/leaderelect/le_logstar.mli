(** The paper's headline algorithm (Theorem 2.3): adaptive leader
    election with O(log* k) expected steps against the location-oblivious
    adversary, from O(n) registers.

    It is the Section 2.1 chain instantiated with the Figure 1
    GroupElect. Only the first [cutoff] levels (default
    [3 * ceil(log2 n)], following the paper's observation that with
    probability [1 - 1/n] only O(log n) levels are used) carry real
    GroupElect objects of O(log n) registers each; the rest are dummies
    that elect everyone, leaving the splitters to eliminate at least one
    process per level. Total space: O(log^2 n) + Theta(n) = Theta(n).

    One source for every backend: the simulator instantiation below
    feeds the registry, and the registry derives the [Atomic.t] election
    from [Make] ({!Le.MAKE}). *)

module Make (M : Backend.Mem.S) : sig
  type t

  val create_cutoff :
    ?name:M.name -> ?cutoff:int -> M.mem -> n:int -> t
  (** [cutoff] (clamped to [n]) is the number of levels carrying a real
      GroupElect; the rest are dummies. Varying it is an ablation; the
      default is [3 * ceil_log2 n]. *)

  val create : ?name:M.name -> M.mem -> n:int -> t
  (** [create_cutoff] at the default cutoff. *)

  val elect : t -> M.ctx -> bool
end

type t = Make(Backend.Sim_mem).t

val create : ?name:string -> ?cutoff:int -> Sim.Memory.t -> n:int -> t

val elect : t -> Sim.Ctx.t -> bool

val to_le : t -> Le.t

val make : Sim.Memory.t -> n:int -> Le.t
