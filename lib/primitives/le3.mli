(** Randomized 3-process leader election from two 2-process elections,
    as used at every node of RatRace's primary tree and backup grid.

    Three ports, 0-2; at most one process per port. Port 0 and port 1
    first duel each other; the survivor then duels port 2. At most one
    {!elect} call returns [true]; if no participant crashes, exactly one
    does. O(1) registers, O(1) expected steps. *)

module Make (M : Backend.Mem.S) : sig
  type t

  val create : ?name:M.name -> M.mem -> t

  val elect : t -> M.ctx -> port:int -> bool
  (** [port] must be 0, 1 or 2. *)
end

type t = Make(Backend.Sim_mem).t

val create : ?name:string -> Sim.Memory.t -> t

val elect : t -> Sim.Ctx.t -> port:int -> bool
(** [port] must be 0, 1 or 2. *)
