let tree_height ~n = 3 * Sim.Bits.ceil_log2 n

type t = {
  tree : Primary_tree.t;
  grid : Backup_grid.t;
  top : Primitives.Le2.t;
}

let create ?(name = "ratrace") mem ~n =
  if n < 1 then invalid_arg "Ratrace.create: n must be >= 1";
  {
    tree = Primary_tree.create ~name:(name ^ ".tree") mem ~height:(tree_height ~n);
    grid = Backup_grid.create ~name:(name ^ ".grid") mem ~n;
    top = Primitives.Le2.create ~name:(name ^ ".top") mem;
  }

let top_elect t ctx ~port =
  let pid = Sim.Ctx.pid ctx in
  Obs.enter ~pid "rr_top";
  let won = Primitives.Le2.elect t.top ctx ~port in
  Obs.leave ~pid "rr_top";
  won

let elect ?notify_splitter_win t ctx =
  let notify_stop = match notify_splitter_win with Some f -> f | None -> fun () -> () in
  match Primary_tree.run ~notify_stop t.tree ctx with
  | Primary_tree.Won -> top_elect t ctx ~port:0
  | Primary_tree.Lost -> false
  | Primary_tree.Fell_off _ -> (
      match Backup_grid.run ~notify_stop t.grid ctx with
      | Backup_grid.Won -> top_elect t ctx ~port:1
      | Backup_grid.Lost -> false)
