let level n =
  let rec ceil_log2 acc v = if v <= 1 then acc else ceil_log2 (acc + 1) ((v + 1) / 2) in
  max 1 (ceil_log2 0 n)

let registers ~n = level n + 2

module Make (M : Backend.Mem.S) = struct
  let create ?(name = M.label "ge") mem ~n =
    let l = level n in
    let r =
      Array.init (l + 1) (fun i ->
          M.alloc mem ~name:(M.item name "R" (i + 1)))
    in
    let flag = M.alloc mem ~name:(M.sub name ".flag") in
    let elect ctx =
      M.enter ctx "ge_round";
      let won =
        if M.read ctx flag = 1 then false
        else begin
          M.write ctx flag 1;
          let x = M.flip_geometric ctx l in
          M.write ctx r.(x - 1) 1;
          M.read ctx r.(x) = 0
        end
      in
      M.leave ctx "ge_round";
      won
    in
    { Ge.elect }
end

include Make (Backend.Sim_mem)
