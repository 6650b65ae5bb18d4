let modulus = 8

(* Decode the opponent's position relative to ours into [-4, +3]. *)
let gap ~o ~pos = (((o - pos) mod modulus) + modulus + 4) mod modulus - 4

module Make (M : Backend.Mem.S) = struct
  type t = { a : M.reg; b : M.reg }

  let create ?(name = M.label "le2b") mem =
    {
      a = M.alloc mem ~name:(M.sub name ".pos0");
      b = M.alloc mem ~name:(M.sub name ".pos1");
    }

  let elect t ctx ~port =
    if port <> 0 && port <> 1 then
      invalid_arg "Le2_bounded.elect: port must be 0 or 1";
    let mine, other = if port = 0 then (t.a, t.b) else (t.b, t.a) in
    let rec loop pos =
      let o = M.read ctx other in
      let g = gap ~o ~pos in
      if g >= 2 then false
      else if g <= -3 then true
      else if M.flip_bool ctx then begin
        let pos' = (pos + 1) mod modulus in
        M.write ctx mine pos';
        loop pos'
      end
      else loop pos
    in
    loop 0
end

include Make (Backend.Sim_mem)
