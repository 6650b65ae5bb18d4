module Make_duel (D : Primitives.Duel.S) (M : Backend.Mem.S) = struct
  module Duel = D (M)

  type t = {
    les : Duel.t array;  (* heap layout, internal nodes 1..leaves-1 *)
    leaves : int;
  }

  let create ?(name = M.label "tournament") mem ~n =
    if n < 1 then invalid_arg "Tournament.create: n must be >= 1";
    let leaves = Sim.Bits.pow2_at_least n in
    {
      les =
        Array.init leaves (fun v ->
            Duel.create ~name:(M.item name "le" v) mem);
      leaves;
    }

  let slots t = t.leaves

  let elect t ctx =
    let p = M.self ctx in
    if p >= t.leaves then invalid_arg "Tournament.elect: pid out of range";
    let rec up v =
      if v = 1 then true
      else
        let port = v land 1 in
        if Duel.elect t.les.(v / 2) ctx ~port then up (v / 2) else false
    in
    up (t.leaves + p)
end

module Make (M : Backend.Mem.S) = Make_duel (Primitives.Le2.Make) (M)

include Make (Backend.Sim_mem)

let to_le t = { Le.le_name = "tournament"; elect = elect t }

let make mem ~n = to_le (create mem ~n)
