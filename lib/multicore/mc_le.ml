type t = {
  mc_name : string;
  registers : int;
  elect : Backend.Atomic_mem.ctx -> bool;
}

let derive name (module F : Leaderelect.Le.MAKE) =
  let module E = F (Backend.Atomic_mem) in
  fun ~n ->
    let mem = Backend.Atomic_mem.create () in
    let le = E.create mem ~n in
    let elect ctx =
      let slot = Backend.Atomic_mem.self ctx in
      if slot < 0 || slot >= n then
        invalid_arg
          (Printf.sprintf "%s: slot %d outside [0, %d)" name slot n);
      E.elect le ctx
    in
    { mc_name = name; registers = Backend.Atomic_mem.allocated mem; elect }

let le2 () =
  let module D = Primitives.Le2.Make (Backend.Atomic_mem) in
  let mem = Backend.Atomic_mem.create () in
  let duel = D.create mem in
  {
    mc_name = "le2";
    registers = Backend.Atomic_mem.allocated mem;
    elect = (fun ctx -> D.elect duel ctx ~port:(Backend.Atomic_mem.self ctx));
  }

let name t = t.mc_name

let registers t = t.registers

let elect t rng ~slot = t.elect (Backend.Atomic_mem.ctx ~rng ~slot ())
