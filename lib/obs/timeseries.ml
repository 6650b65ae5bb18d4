(* Windowed time-series recorder. See timeseries.mli for the model.

   Layout notes: each series keeps its per-window cells in growable
   scalar arrays indexed by window (doubling growth, like the flat
   kernel's pools), so recording into an already-touched window is a
   couple of array stores — no allocation, no boxing. Quantile series
   lazily allocate one bucket array per touched window; untouched
   windows all share the one empty sentinel array. *)

type bucketing = {
  b_name : string;
  b_count : int;
  b_of_value : float -> int;
  b_midpoint : int -> float;
}

type counter = {
  c_w : float;
  mutable c_data : int array;
  mutable c_hi : int;  (* 1 + largest window touched *)
}

type gauge = {
  g_w : float;
  mutable g_data : float array;
  mutable g_set : bool array;
  mutable g_hi : int;
}

(* The shared "untouched window" sentinel: physical equality against it
   is the lazy-allocation test. *)
let no_buckets : int array = [||]

type quantile = {
  q_w : float;
  q_b : bucketing;
  mutable q_counts : int array array;
  mutable q_n : int array;
  mutable q_sum : float array;
  mutable q_max : float array;
  mutable q_hi : int;
}

type item = C of counter | G of gauge | Q of quantile

type t = {
  window : float;
  tbl : (string, item) Hashtbl.t;
}

let create ~window () =
  if not (window > 0.0) then
    invalid_arg "Timeseries.create: window must be > 0";
  { window; tbl = Hashtbl.create 16 }

let window t = t.window

let widx w at =
  let i = int_of_float (at /. w) in
  if i < 0 then 0 else i

let kind_name = function C _ -> "counter" | G _ -> "gauge" | Q _ -> "quantile"

let clash name got want =
  invalid_arg
    (Printf.sprintf "Timeseries.%s: %S is a %s" want name (kind_name got))

let counter t name =
  match Hashtbl.find_opt t.tbl name with
  | Some (C c) -> c
  | Some it -> clash name it "counter"
  | None ->
      let c = { c_w = t.window; c_data = Array.make 16 0; c_hi = 0 } in
      Hashtbl.add t.tbl name (C c);
      c

let gauge t name =
  match Hashtbl.find_opt t.tbl name with
  | Some (G g) -> g
  | Some it -> clash name it "gauge"
  | None ->
      let g =
        {
          g_w = t.window;
          g_data = Array.make 16 0.0;
          g_set = Array.make 16 false;
          g_hi = 0;
        }
      in
      Hashtbl.add t.tbl name (G g);
      g

let quantile t b name =
  if b.b_count < 1 then invalid_arg "Timeseries.quantile: empty bucketing";
  match Hashtbl.find_opt t.tbl name with
  | Some (Q q) ->
      if q.q_b.b_name <> b.b_name then
        invalid_arg
          (Printf.sprintf
             "Timeseries.quantile: %S re-registered with scheme %S (was %S)"
             name b.b_name q.q_b.b_name);
      q
  | Some it -> clash name it "quantile"
  | None ->
      let q =
        {
          q_w = t.window;
          q_b = b;
          q_counts = Array.make 16 no_buckets;
          q_n = Array.make 16 0;
          q_sum = Array.make 16 0.0;
          q_max = Array.make 16 0.0;
          q_hi = 0;
        }
      in
      Hashtbl.add t.tbl name (Q q);
      q

(* Growable-array plumbing: next power-of-two capacity covering [i]. *)
let grown_cap cap i =
  let c = ref (max 16 cap) in
  while !c <= i do
    c := 2 * !c
  done;
  !c

let grow_int a i fill =
  let b = Array.make (grown_cap (Array.length a) i) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let grow_float a i fill =
  let b = Array.make (grown_cap (Array.length a) i) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let grow_bool a i =
  let b = Array.make (grown_cap (Array.length a) i) false in
  Array.blit a 0 b 0 (Array.length a);
  b

let grow_arr a i =
  let b = Array.make (grown_cap (Array.length a) i) no_buckets in
  Array.blit a 0 b 0 (Array.length a);
  b

let add c ~at v =
  let i = widx c.c_w at in
  if i >= Array.length c.c_data then c.c_data <- grow_int c.c_data i 0;
  c.c_data.(i) <- c.c_data.(i) + v;
  if i >= c.c_hi then c.c_hi <- i + 1

let bump c ~at = add c ~at 1

let set g ~at v =
  let i = widx g.g_w at in
  if i >= Array.length g.g_data then begin
    g.g_data <- grow_float g.g_data i 0.0;
    g.g_set <- grow_bool g.g_set i
  end;
  g.g_data.(i) <- v;
  g.g_set.(i) <- true;
  if i >= g.g_hi then g.g_hi <- i + 1

let observe q ~at v =
  let i = widx q.q_w at in
  if i >= Array.length q.q_n then begin
    q.q_counts <- grow_arr q.q_counts i;
    q.q_n <- grow_int q.q_n i 0;
    q.q_sum <- grow_float q.q_sum i 0.0;
    q.q_max <- grow_float q.q_max i 0.0
  end;
  if q.q_counts.(i) == no_buckets then
    q.q_counts.(i) <- Array.make q.q_b.b_count 0;
  let b = q.q_b.b_of_value v in
  q.q_counts.(i).(b) <- q.q_counts.(i).(b) + 1;
  if q.q_n.(i) = 0 || v > q.q_max.(i) then q.q_max.(i) <- v;
  q.q_n.(i) <- q.q_n.(i) + 1;
  q.q_sum.(i) <- q.q_sum.(i) +. v;
  if i >= q.q_hi then q.q_hi <- i + 1

(* {1 Snapshots} *)

type qbucket = { qb_idx : int; qb_count : int; qb_mid : float }

type qwindow = {
  qw_win : int;
  qw_n : int;
  qw_sum : float;
  qw_max : float;
  qw_buckets : qbucket list;
}

type qseries = { qs_scheme : string; qs_windows : qwindow list }

type snapshot = {
  s_window : float;
  s_counters : (string * (int * int) list) list;
  s_gauges : (string * (int * float) list) list;
  s_quantiles : (string * qseries) list;
}

let empty_snapshot =
  { s_window = 0.0; s_counters = []; s_gauges = []; s_quantiles = [] }

let snapshot t =
  let cs = ref [] and gs = ref [] and qs = ref [] in
  Hashtbl.iter
    (fun name -> function
      | C c ->
          let cells = ref [] in
          for i = c.c_hi - 1 downto 0 do
            if c.c_data.(i) <> 0 then cells := (i, c.c_data.(i)) :: !cells
          done;
          cs := (name, !cells) :: !cs
      | G g ->
          let cells = ref [] in
          for i = g.g_hi - 1 downto 0 do
            if g.g_set.(i) then cells := (i, g.g_data.(i)) :: !cells
          done;
          gs := (name, !cells) :: !gs
      | Q q ->
          let wins = ref [] in
          for i = q.q_hi - 1 downto 0 do
            if q.q_n.(i) > 0 then begin
              let buckets = ref [] in
              let counts = q.q_counts.(i) in
              for b = Array.length counts - 1 downto 0 do
                if counts.(b) > 0 then
                  buckets :=
                    {
                      qb_idx = b;
                      qb_count = counts.(b);
                      qb_mid = q.q_b.b_midpoint b;
                    }
                    :: !buckets
              done;
              wins :=
                {
                  qw_win = i;
                  qw_n = q.q_n.(i);
                  qw_sum = q.q_sum.(i);
                  qw_max = q.q_max.(i);
                  qw_buckets = !buckets;
                }
                :: !wins
            end
          done;
          qs := (name, { qs_scheme = q.q_b.b_name; qs_windows = !wins }) :: !qs)
    t.tbl;
  let by_name (a, _) (b, _) = String.compare a b in
  {
    s_window = t.window;
    s_counters = List.sort by_name !cs;
    s_gauges = List.sort by_name !gs;
    s_quantiles = List.sort by_name !qs;
  }

(* Merge two key-sorted assoc lists, combining values under equal keys.
   Polymorphic in the key ([compare] is the stdlib total order — keys
   here are strings or ints, never functions). *)
let rec merge_assoc combine a b =
  match (a, b) with
  | [], rest | rest, [] -> rest
  | (ka, va) :: ta, (kb, vb) :: tb ->
      let c = compare ka kb in
      if c < 0 then (ka, va) :: merge_assoc combine ta b
      else if c > 0 then (kb, vb) :: merge_assoc combine a tb
      else (ka, combine va vb) :: merge_assoc combine ta tb

let merge_qwindows name a b =
  let rec go a b =
    match (a, b) with
    | [], rest | rest, [] -> rest
    | (wa : qwindow) :: ta, wb :: tb ->
        if wa.qw_win < wb.qw_win then wa :: go ta b
        else if wa.qw_win > wb.qw_win then wb :: go a tb
        else
          let buckets =
            List.map
              (fun (idx, (count, mid)) ->
                { qb_idx = idx; qb_count = count; qb_mid = mid })
              (merge_assoc
                 (fun (ca, mid) (cb, _) -> (ca + cb, mid))
                 (List.map (fun q -> (q.qb_idx, (q.qb_count, q.qb_mid))) wa.qw_buckets)
                 (List.map (fun q -> (q.qb_idx, (q.qb_count, q.qb_mid))) wb.qw_buckets))
          in
          {
            qw_win = wa.qw_win;
            qw_n = wa.qw_n + wb.qw_n;
            qw_sum = wa.qw_sum +. wb.qw_sum;
            qw_max = Float.max wa.qw_max wb.qw_max;
            qw_buckets = buckets;
          }
          :: go ta tb
  in
  ignore name;
  go a b

let merge_qseries name a b =
  if a.qs_scheme <> b.qs_scheme then
    invalid_arg
      (Printf.sprintf "Timeseries.merge: quantile %S has mismatched schemes"
         name);
  { qs_scheme = a.qs_scheme; qs_windows = merge_qwindows name a.qs_windows b.qs_windows }

let is_empty s = s.s_counters = [] && s.s_gauges = [] && s.s_quantiles = []

let merge a b =
  if is_empty a then b
  else if is_empty b then a
  else if a.s_window <> b.s_window then
    invalid_arg "Timeseries.merge: window width mismatch"
  else
    {
      s_window = a.s_window;
      s_counters =
        List.map
          (fun (name, cells) -> (name, cells))
          (merge_assoc
             (merge_assoc (fun x y -> x + y))
             a.s_counters b.s_counters);
      (* Gauges: the right-hand side is the later write in merge order. *)
      s_gauges = merge_assoc (merge_assoc (fun _ y -> y)) a.s_gauges b.s_gauges;
      s_quantiles =
        (let rec go a b =
           match (a, b) with
           | [], rest | rest, [] -> rest
           | (na, qa) :: ta, (nb, qb) :: tb ->
               let c = String.compare na nb in
               if c < 0 then (na, qa) :: go ta b
               else if c > 0 then (nb, qb) :: go a tb
               else (na, merge_qseries na qa qb) :: go ta tb
         in
         go a.s_quantiles b.s_quantiles);
    }

let windows s =
  let m = ref 0 in
  let seen w = if w + 1 > !m then m := w + 1 in
  List.iter (fun (_, cells) -> List.iter (fun (w, _) -> seen w) cells) s.s_counters;
  List.iter (fun (_, cells) -> List.iter (fun (w, _) -> seen w) cells) s.s_gauges;
  List.iter
    (fun (_, q) -> List.iter (fun qw -> seen qw.qw_win) q.qs_windows)
    s.s_quantiles;
  !m

let counter_sum s name =
  match List.assoc_opt name s.s_counters with
  | None -> 0
  | Some cells -> List.fold_left (fun acc (_, v) -> acc + v) 0 cells

(* Nearest-rank percentile over the window's sparse buckets, the Histo
   rank rule: clamp the midpoint to the exact max so a top-bucket
   midpoint can never exceed the largest observed sample. *)
let percentile qw p =
  if qw.qw_n = 0 then 0.0
  else begin
    let rank = int_of_float (ceil (p *. float_of_int qw.qw_n)) - 1 in
    let rank = min (qw.qw_n - 1) (max 0 rank) in
    let rec walk acc = function
      | [] -> qw.qw_max
      | b :: rest ->
          let acc = acc + b.qb_count in
          if acc > rank then Float.min b.qb_mid qw.qw_max else walk acc rest
    in
    walk 0 qw.qw_buckets
  end

(* {1 Export} *)

let to_json s =
  let series render entries =
    Json.Obj (List.map (fun (name, v) -> (name, render v)) entries)
  in
  let cells value cells =
    Json.Arr (List.map (fun (w, v) -> Json.Arr [ Json.int w; value v ]) cells)
  in
  let stat = Json.float "%g" in
  Json.to_string
    (Json.Obj
       [
         ("schema", Json.Str "rtas-timeseries/1");
         ("window_ticks", stat s.s_window);
         ("windows", Json.int (windows s));
         ("counters", series (cells Json.int) s.s_counters);
         ("gauges", series (cells stat) s.s_gauges);
         ( "quantiles",
           series
             (fun q ->
               Json.Obj
                 [
                   ("scheme", Json.Str q.qs_scheme);
                   ( "windows",
                     Json.Arr
                       (List.map
                          (fun qw ->
                            Json.Obj
                              [
                                ("window", Json.int qw.qw_win);
                                ("n", Json.int qw.qw_n);
                                ("mean", stat (qw.qw_sum /. float_of_int qw.qw_n));
                                ("p50", stat (percentile qw 0.5));
                                ("p90", stat (percentile qw 0.9));
                                ("p99", stat (percentile qw 0.99));
                                ("max", stat qw.qw_max);
                              ])
                          q.qs_windows) );
                 ])
             s.s_quantiles );
       ])

let sanitize name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c
      | _ -> '_')
    name

let to_openmetrics s =
  let b = Buffer.create 4096 in
  let add = Buffer.add_string b in
  List.iter
    (fun (name, cells) ->
      let m = "rtas_" ^ sanitize name in
      add (Printf.sprintf "# TYPE %s counter\n" m);
      List.iter
        (fun (w, v) -> add (Printf.sprintf "%s_total{window=\"%d\"} %d\n" m w v))
        cells)
    s.s_counters;
  List.iter
    (fun (name, cells) ->
      let m = "rtas_" ^ sanitize name in
      add (Printf.sprintf "# TYPE %s gauge\n" m);
      List.iter
        (fun (w, v) -> add (Printf.sprintf "%s{window=\"%d\"} %g\n" m w v))
        cells)
    s.s_gauges;
  List.iter
    (fun (name, q) ->
      let m = "rtas_" ^ sanitize name in
      add (Printf.sprintf "# TYPE %s summary\n" m);
      List.iter
        (fun qw ->
          List.iter
            (fun (lbl, p) ->
              add
                (Printf.sprintf "%s{window=\"%d\",quantile=\"%s\"} %g\n" m
                   qw.qw_win lbl (percentile qw p)))
            [ ("0.5", 0.5); ("0.9", 0.9); ("0.99", 0.99) ];
          add (Printf.sprintf "%s_count{window=\"%d\"} %d\n" m qw.qw_win qw.qw_n);
          add (Printf.sprintf "%s_sum{window=\"%d\"} %g\n" m qw.qw_win qw.qw_sum))
        q.qs_windows)
    s.s_quantiles;
  add "# EOF\n";
  Buffer.contents b

let to_chrome s tr =
  let ts w = int_of_float (float_of_int w *. s.s_window) in
  List.iter
    (fun (name, cells) ->
      List.iter
        (fun (w, v) ->
          Chrome_trace.counter tr ~name ~ts:(ts w) ~value:(float_of_int v))
        cells)
    s.s_counters;
  List.iter
    (fun (name, cells) ->
      List.iter (fun (w, v) -> Chrome_trace.counter tr ~name ~ts:(ts w) ~value:v) cells)
    s.s_gauges;
  List.iter
    (fun (name, q) ->
      List.iter
        (fun qw ->
          Chrome_trace.counter tr ~name:(name ^ ".p50") ~ts:(ts qw.qw_win)
            ~value:(percentile qw 0.5);
          Chrome_trace.counter tr ~name:(name ^ ".p99") ~ts:(ts qw.qw_win)
            ~value:(percentile qw 0.99))
        q.qs_windows)
    s.s_quantiles

(* {1 Table rendering} *)

(* Strip the common dotted prefix ("service." usually) from the column
   headers when every series shares it. *)
let strip_prefix names =
  match names with
  | [] -> fun n -> n
  | first :: _ -> (
      match String.index_opt first '.' with
      | None -> fun n -> n
      | Some i ->
          let p = String.sub first 0 (i + 1) in
          let plen = String.length p in
          if
            List.for_all
              (fun n ->
                String.length n > plen && String.sub n 0 plen = p)
              names
          then fun n -> String.sub n plen (String.length n - plen)
          else fun n -> n)

let pp ppf s =
  let n = windows s in
  let all_names =
    List.map fst s.s_counters
    @ List.map fst s.s_gauges
    @ List.map fst s.s_quantiles
  in
  let short = strip_prefix all_names in
  Fmt.pf ppf "@[<v>";
  Fmt.pf ppf "window";
  List.iter (fun (name, _) -> Fmt.pf ppf "  %s" (short name)) s.s_counters;
  List.iter (fun (name, _) -> Fmt.pf ppf "  %s" (short name)) s.s_gauges;
  List.iter
    (fun (name, _) ->
      Fmt.pf ppf "  %s(n/p50/p99)" (short name))
    s.s_quantiles;
  for w = 0 to n - 1 do
    Fmt.pf ppf "@ %6d" w;
    List.iter
      (fun (name, cells) ->
        let v = Option.value ~default:0 (List.assoc_opt w cells) in
        Fmt.pf ppf "  %*d" (String.length (short name)) v)
      s.s_counters;
    List.iter
      (fun (name, cells) ->
        match List.assoc_opt w cells with
        | None -> Fmt.pf ppf "  %*s" (String.length (short name)) "-"
        | Some v -> Fmt.pf ppf "  %*g" (String.length (short name)) v)
      s.s_gauges;
    List.iter
      (fun (name, q) ->
        match List.find_opt (fun qw -> qw.qw_win = w) q.qs_windows with
        | None ->
            Fmt.pf ppf "  %*s" (String.length (short name) + 11) "-"
        | Some qw ->
            Fmt.pf ppf "  %*s"
              (String.length (short name) + 11)
              (Printf.sprintf "%d/%.0f/%.0f" qw.qw_n (percentile qw 0.5)
                 (percentile qw 0.99)))
      s.s_quantiles
  done;
  Fmt.pf ppf "@]"
