module Make (M : Backend.Mem.S) = struct
  module C = Chain.Make (M)
  module Ge_l = Groupelect.Ge_logstar.Make (M)

  type t = { chain : C.t }

  let create_cutoff ?(name = M.label "logstar") ?cutoff mem ~n =
    if n < 1 then invalid_arg "Le_logstar.create: n must be >= 1";
    let cutoff =
      match cutoff with
      | Some c -> min c n
      | None -> min n (3 * Sim.Bits.ceil_log2 n)
    in
    let ges =
      Array.init n (fun i ->
          if i < cutoff then Ge_l.create ~name:(M.item name "ge" i) mem ~n
          else Groupelect.Ge_dummy.gen ())
    in
    { chain = C.create mem ~name ges }

  let create ?name mem ~n = create_cutoff ?name mem ~n

  let elect t ctx = C.elect t.chain ctx
end

include Make (Backend.Sim_mem)

let create = create_cutoff

let to_le t = { Le.le_name = "log*"; elect = elect t }

let make mem ~n = to_le (create mem ~n)
