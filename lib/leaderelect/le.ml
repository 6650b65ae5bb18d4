type t = {
  le_name : string;
  elect : Sim.Ctx.t -> bool;
}

module type MAKE = functor (M : Backend.Mem.S) -> sig
  type t

  val create : ?name:M.name -> M.mem -> n:int -> t
  val elect : t -> M.ctx -> bool
end

let programs t ~k =
  Array.init k (fun _ ctx -> if t.elect ctx then 1 else 0)

let winners sched =
  let out = ref [] in
  Array.iteri
    (fun pid r -> if r = Some 1 then out := pid :: !out)
    (Sim.Sched.results sched);
  List.rev !out
