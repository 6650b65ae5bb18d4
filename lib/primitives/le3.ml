module Make (M : Backend.Mem.S) = struct
  module Duel = Le2.Make (M)

  type t = { first : Duel.t; final : Duel.t }

  let create ?(name = M.label "le3") mem =
    {
      first = Duel.create ~name:(M.sub name ".first") mem;
      final = Duel.create ~name:(M.sub name ".final") mem;
    }

  let elect t ctx ~port =
    match port with
    | 2 -> Duel.elect t.final ctx ~port:1
    | 0 | 1 ->
        if Duel.elect t.first ctx ~port then Duel.elect t.final ctx ~port:0
        else false
    | _ -> invalid_arg "Le3.elect: port must be 0, 1 or 2"
end

include Make (Backend.Sim_mem)
