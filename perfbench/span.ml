(* In-memory spans around the benchmark's calls into the library's
   layers. Nothing inside lib/ records spans: every span here opens and
   closes in the benchmark's own files, so it measures a layer's public
   function from the outside.

   A span is (name, start, end, parent, run). The layer of a span is
   its name up to the first '.', and [run] identifies one workload run
   (one iteration of the workload loop), so the spans of a run share an
   id. Recording is off unless [enabled] is set, and then costs two
   clock reads and a few array stores per span; the arrays grow by
   doubling and are written out once, at the end of the traced run. *)

let enabled = ref false

type store = {
  mutable n : int;
  mutable names : string array;
  mutable starts : float array;
  mutable stops : float array;
  mutable parents : int array;
  mutable runs : int array;
  mutable cur : int;  (* innermost open span, -1 at top level *)
  mutable run : int;
}

let s =
  {
    n = 0;
    names = Array.make 1024 "";
    starts = Array.make 1024 0.0;
    stops = Array.make 1024 0.0;
    parents = Array.make 1024 (-1);
    runs = Array.make 1024 0;
    cur = -1;
    run = 0;
  }

let grow () =
  let cap = 2 * Array.length s.names in
  let ext a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 s.n;
    b
  in
  s.names <- ext s.names "";
  s.starts <- ext s.starts 0.0;
  s.stops <- ext s.stops 0.0;
  s.parents <- ext s.parents (-1);
  s.runs <- ext s.runs 0

(* Start a new workload run: later spans carry its id. *)
let new_run () = s.run <- s.run + 1

let enter name =
  if not !enabled then -1
  else begin
    if s.n = Array.length s.names then grow ();
    let id = s.n in
    s.n <- id + 1;
    s.names.(id) <- name;
    s.parents.(id) <- s.cur;
    s.runs.(id) <- s.run;
    s.cur <- id;
    s.starts.(id) <- Util.now ();
    id
  end

let leave id =
  if id >= 0 then begin
    s.stops.(id) <- Util.now ();
    s.cur <- s.parents.(id)
  end

let within name f =
  let id = enter name in
  match f () with
  | v ->
      leave id;
      v
  | exception e ->
      leave id;
      raise e

let layer name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

(* Self time of every span: its duration minus the part its children
   cover (children never overlap: the benchmark is single-threaded). *)
let self_times () =
  let self = Array.init s.n (fun i -> s.stops.(i) -. s.starts.(i)) in
  for i = 0 to s.n - 1 do
    let p = s.parents.(i) in
    if p >= 0 then self.(p) <- self.(p) -. (s.stops.(i) -. s.starts.(i))
  done;
  self

(* Total self seconds per layer over the spans matching [keep]. *)
let self_by_layer ?(keep = fun _ -> true) () =
  let self = self_times () in
  let tbl = Hashtbl.create 16 in
  for i = 0 to s.n - 1 do
    if keep i then begin
      let l = layer s.names.(i) in
      let prev = Option.value ~default:0.0 (Hashtbl.find_opt tbl l) in
      Hashtbl.replace tbl l (prev +. self.(i))
    end
  done;
  tbl

let count () = s.n

let write path =
  let oc = open_out path in
  let t0 = if s.n > 0 then s.starts.(0) else 0.0 in
  output_string oc "[\n";
  for i = 0 to s.n - 1 do
    Printf.fprintf oc
      "  {\"id\": %d, \"name\": %s, \"start_us\": %.3f, \"end_us\": %.3f, \
       \"parent\": %d, \"run\": %d}%s\n"
      i (Util.json_string s.names.(i))
      ((s.starts.(i) -. t0) *. 1e6)
      ((s.stops.(i) -. t0) *. 1e6)
      s.parents.(i) s.runs.(i)
      (if i = s.n - 1 then "" else ",")
  done;
  output_string oc "]\n";
  close_out oc
