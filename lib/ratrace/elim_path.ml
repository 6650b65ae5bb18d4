type outcome = Lost | Won | Fell_off

module Make (M : Backend.Mem.S) = struct
  module Sp = Primitives.Splitter.Make (M)
  module Duel = Primitives.Le2.Make (M)

  type t = {
    sps : Sp.t array;
    les : Duel.t array;
  }

  let create ?(name = M.label "ep") mem ~length =
    if length < 1 then invalid_arg "Elim_path.create: length must be >= 1";
    {
      sps =
        Array.init length (fun i ->
            Sp.create ~name:(M.item name "sp" i) mem);
      les =
        Array.init length (fun i ->
            Duel.create ~name:(M.item name "le" i) mem);
    }

  let length t = Array.length t.sps

  (* Node [j]'s election is between the winner of splitter [j] (port 0)
     and the process moving left from node [j+1] (port 1). *)
  let rec backward t ctx ~stopped_at j =
    let port = if j = stopped_at then 0 else 1 in
    if Duel.elect t.les.(j) ctx ~port then
      if j = 0 then Won else backward t ctx ~stopped_at (j - 1)
    else Lost

  let run ?(notify_stop = fun () -> ()) t ctx =
    let len = Array.length t.sps in
    let rec forward i =
      if i >= len then Fell_off
      else
        match Sp.split t.sps.(i) ctx with
        | Primitives.Splitter.L -> Lost
        | Primitives.Splitter.R -> forward (i + 1)
        | Primitives.Splitter.S ->
            notify_stop ();
            backward t ctx ~stopped_at:i i
    in
    M.enter ctx "rr_elim";
    let r = forward 0 in
    M.leave ctx "rr_elim";
    r
end

include Make (Backend.Sim_mem)
