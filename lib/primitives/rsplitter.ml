module Make (M : Backend.Mem.S) = struct
  module Sp = Splitter.Make (M)

  type t = Sp.t

  let create ?(name = M.label "rsp") mem = Sp.create ~name mem

  let split t ctx =
    match Sp.split t ctx with
    | Splitter.S -> Splitter.S
    | Splitter.L | Splitter.R ->
        if M.flip_bool ctx then Splitter.R else Splitter.L
end

include Make (Backend.Sim_mem)
