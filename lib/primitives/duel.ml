(* The pluggable 2-process leader-election (duel) signature. See the
   interface for the contract. *)

module type S = functor (M : Backend.Mem.S) -> sig
  type t

  val create : ?name:M.name -> M.mem -> t

  val elect : t -> M.ctx -> port:int -> bool
end
