type forward = F_lost | F_stopped of int | F_exhausted

module Make_duel (D : Primitives.Duel.S) (M : Backend.Mem.S) = struct
  module Sp = Primitives.Splitter.Make (M)
  module Duel = D (M)

  type t = {
    ges : M.ctx Groupelect.Ge.gen array;
    sps : Sp.t array;
    les : Duel.t array;
  }

  let create mem ?(name = M.label "chain") ges =
    let n = Array.length ges in
    {
      ges;
      sps =
        Array.init n (fun i ->
            Sp.create ~name:(M.item name "sp" i) mem);
      les =
        Array.init n (fun i ->
            Duel.create ~name:(M.item name "le" i) mem);
    }

  let levels t = Array.length t.ges

  let forward t ctx ~from_level ~upto =
    let upto = min upto (Array.length t.ges) in
    let rec go i =
      if i >= upto then F_exhausted
      else if not (t.ges.(i).Groupelect.Ge.elect ctx) then F_lost
      else
        match Sp.split t.sps.(i) ctx with
        | Primitives.Splitter.L -> F_lost
        | Primitives.Splitter.R -> go (i + 1)
        | Primitives.Splitter.S -> F_stopped i
    in
    M.enter ctx "chain_forward";
    let r = go from_level in
    M.leave ctx "chain_forward";
    r

  let backward t ctx ~stopped_at =
    let rec go j =
      let port = if j = stopped_at then 0 else 1 in
      if Duel.elect t.les.(j) ctx ~port then
        if j = 0 then true else go (j - 1)
      else false
    in
    M.enter ctx "chain_backward";
    let r = go stopped_at in
    M.leave ctx "chain_backward";
    r

  let elect t ctx =
    match forward t ctx ~from_level:0 ~upto:(levels t) with
    | F_lost -> false
    | F_stopped i -> backward t ctx ~stopped_at:i
    | F_exhausted ->
        failwith "Chain.elect: ran out of levels (more participants than levels?)"
end

module Make (M : Backend.Mem.S) = Make_duel (Primitives.Le2.Make) (M)

include Make (Backend.Sim_mem)
