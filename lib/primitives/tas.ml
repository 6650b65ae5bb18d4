module Make (M : Backend.Mem.S) = struct
  type t = {
    elect : M.ctx -> bool;
    doorway : M.reg;
  }

  let create ?(name = M.label "tas") mem ~elect =
    { elect; doorway = M.alloc mem ~name:(M.sub name ".done") }

  let apply t ctx =
    if M.read ctx t.doorway = 1 then 1
    else if t.elect ctx then 0
    else begin
      M.write ctx t.doorway 1;
      1
    end
end

include Make (Backend.Sim_mem)
