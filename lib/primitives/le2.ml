module Make (M : Backend.Mem.S) = struct
  type t = { a : M.reg; b : M.reg }

  let create ?(name = M.label "le2") mem =
    {
      a = M.alloc mem ~name:(M.sub name ".pos0");
      b = M.alloc mem ~name:(M.sub name ".pos1");
    }

  (* Win/lose thresholds are asymmetric on purpose. A process's true
     position can exceed its exposed register by one (its +1 write may
     still be pending), so an opponent that wins seeing us k behind only
     guarantees we are k-1 behind. Winning at gap 3 guarantees the loser
     is at least 2 behind at its next read — and every position change is
     preceded by a read — so it cannot climb past the losing observation.
     See the safety argument in the interface. *)
  let elect t ctx ~port =
    if port <> 0 && port <> 1 then invalid_arg "Le2.elect: port must be 0 or 1";
    let mine, other = if port = 0 then (t.a, t.b) else (t.b, t.a) in
    let rec loop pos =
      let o = M.read ctx other in
      if o >= pos + 2 then false
      else if o <= pos - 3 then true
      else begin
        let pos' = pos + (if M.flip_bool ctx then 1 else 0) in
        if pos' > pos then M.write ctx mine pos';
        loop pos'
      end
    in
    loop 0
end

include Make (Backend.Sim_mem)
