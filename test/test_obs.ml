(* Tests for the Probe observability layer: metrics merge algebra, the
   no-sink bit-identity guarantee, per-worker collector merging across
   domain counts, collector span accounting (incl. crashes), the JSON
   layer, and the structure of the Perfetto trace-event export. *)

let check = Alcotest.check
let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* {1 Metrics} *)

let test_metrics_basics () =
  let m = Obs.Metrics.create () in
  let c = Obs.Metrics.counter m "steps" in
  Obs.Metrics.incr c;
  Obs.Metrics.add c 4;
  checki "counter value" 5 (Obs.Metrics.value c);
  checkb "get-or-create returns the same counter" true
    (Obs.Metrics.counter m "steps" == c);
  let h = Obs.Metrics.histogram ~limits:[| 1; 2; 4 |] m "per_trial" in
  List.iter (Obs.Metrics.observe h) [ 0; 1; 2; 3; 5; 100 ];
  let sn = Obs.Metrics.snapshot m in
  (match List.assoc_opt "per_trial" sn.Obs.Metrics.histograms with
  | None -> Alcotest.fail "histogram missing from snapshot"
  | Some hs ->
      check
        Alcotest.(array int)
        "bucket counts" [| 2; 1; 1; 2 |] hs.Obs.Metrics.hs_counts;
      checki "n" 6 hs.Obs.Metrics.hs_n;
      checki "sum" 111 hs.Obs.Metrics.hs_sum;
      checki "min" 0 hs.Obs.Metrics.hs_min;
      checki "max" 100 hs.Obs.Metrics.hs_max);
  Alcotest.check_raises "counter/histogram kind clash"
    (Invalid_argument "Metrics.histogram: \"steps\" is a counter") (fun () ->
      ignore (Obs.Metrics.histogram m "steps"))

let registry_with pairs hist_vals =
  let m = Obs.Metrics.create () in
  List.iter (fun (name, v) -> Obs.Metrics.add (Obs.Metrics.counter m name) v) pairs;
  List.iter
    (fun v -> Obs.Metrics.observe (Obs.Metrics.histogram m "h") v)
    hist_vals;
  Obs.Metrics.snapshot m

let test_metrics_merge_associative () =
  let a = registry_with [ ("x", 1); ("y", 2) ] [ 3; 9 ] in
  let b = registry_with [ ("y", 5); ("z", 7) ] [ 1 ] in
  let c = registry_with [ ("x", 10) ] [ 4000; 2 ] in
  let left = Obs.Metrics.merge (Obs.Metrics.merge a b) c in
  let right = Obs.Metrics.merge a (Obs.Metrics.merge b c) in
  checkb "merge associative" true (left = right);
  checkb "empty is left identity" true
    (Obs.Metrics.merge Obs.Metrics.empty_snapshot a = a);
  checkb "empty is right identity" true
    (Obs.Metrics.merge a Obs.Metrics.empty_snapshot = a);
  checkb "merge commutative" true
    (Obs.Metrics.merge a b = Obs.Metrics.merge b a);
  match List.assoc_opt "y" left.Obs.Metrics.counters with
  | Some v -> checki "summed counter" 7 v
  | None -> Alcotest.fail "merged counter missing"

(* {1 Bit-identity: probing must never change the execution} *)

let run_target ?probe_sink ~seed () =
  let go () =
    let mem = Sim.Memory.create () in
    let progs =
      Rtas.Probe_target.rr_classic.Rtas.Probe_target.pt_programs mem ~n:16
        ~k:8
    in
    let sched = Sim.Sched.create ~record_trace:true ~seed progs in
    Sim.Sched.run sched (Sim.Adversary.random_oblivious ~seed);
    ( Sim.Sched.results sched,
      Sim.Sched.time sched,
      Sim.Sched.max_rmrs sched,
      List.map Sim.Op.event_to_string (Sim.Sched.trace sched) )
  in
  match probe_sink with None -> go () | Some s -> Obs.with_sink s go

let test_probed_run_bit_identical () =
  let seed = 0xB17L in
  let r_plain, t_plain, m_plain, trace_plain = run_target ~seed () in
  let collector = Obs.Collector.create () in
  let chrome = Obs.Chrome_trace.create () in
  let r_probed, t_probed, m_probed, trace_probed =
    run_target
      ~probe_sink:
        (Obs.tee (Obs.Collector.sink collector) (Obs.Chrome_trace.sink chrome))
      ~seed ()
  in
  check
    Alcotest.(array (option int))
    "results identical" r_plain r_probed;
  checki "total steps identical" t_plain t_probed;
  checki "max rmrs identical" m_plain m_probed;
  check Alcotest.(list string) "traces identical" trace_plain trace_probed;
  (* The probed run actually observed the execution. *)
  let sn = Obs.Collector.snapshot collector in
  checki "collector saw every step" t_plain sn.Obs.Collector.sn_steps;
  checki "collector saw every finish + crash" 8
    (sn.Obs.Collector.sn_finishes + sn.Obs.Collector.sn_crashes);
  checkb "trace has events" true (Obs.Chrome_trace.n_events chrome > 0)

let test_reset_with_sink_bit_identical () =
  let seed = 0xA5EEDL in
  let r_fresh, t_fresh, m_fresh, trace_fresh = run_target ~seed () in
  let collector = Obs.Collector.create () in
  let r, t, m, trace =
    Obs.with_sink (Obs.Collector.sink collector) (fun () ->
        let mem = Sim.Memory.create () in
        let progs =
          Rtas.Probe_target.rr_classic.Rtas.Probe_target.pt_programs mem ~n:16
            ~k:8
        in
        let sched = Sim.Sched.create ~record_trace:true ~seed:1L progs in
        Sim.Sched.run sched (Sim.Adversary.random_oblivious ~seed:1L);
        (* Reuse the arena: the second (reset) run must match a fresh
           probed run bit for bit, and the trace only covers it. *)
        Sim.Memory.reset mem;
        Sim.Sched.reset ~seed sched progs;
        Sim.Sched.run sched (Sim.Adversary.random_oblivious ~seed);
        ( Sim.Sched.results sched,
          Sim.Sched.time sched,
          Sim.Sched.max_rmrs sched,
          List.map Sim.Op.event_to_string (Sim.Sched.trace sched) ))
  in
  check Alcotest.(array (option int)) "results identical" r_fresh r;
  checki "total steps identical" t_fresh t;
  checki "max rmrs identical" m_fresh m;
  check Alcotest.(list string) "post-reset trace = fresh trace" trace_fresh
    trace

(* {1 Engine.run_probed: per-worker collectors merge domain-independently} *)

let probed_batch ~domains =
  let _stats, collectors =
    Engine.run_probed ~domains ~chunk:2 ~trials:12 ~seed:0xFEEDL
      ~probe:(fun () ->
        let c = Obs.Collector.create () in
        (c, Obs.Collector.sink c))
      ~local:(fun c -> c)
      (fun c ~trial:_ ~seed ->
        let mem = Sim.Memory.create () in
        let progs =
          Rtas.Probe_target.chain.Rtas.Probe_target.pt_programs mem ~n:16 ~k:6
        in
        let sched = Sim.Sched.create ~seed progs in
        Sim.Sched.run sched (Sim.Adversary.random_oblivious ~seed);
        let winners = Obs.Metrics.counter (Obs.Collector.metrics c) "winners" in
        for pid = 0 to Sim.Sched.n sched - 1 do
          if Sim.Sched.result sched pid = Some 1 then Obs.Metrics.incr winners
        done)
  in
  List.fold_left Obs.Collector.merge Obs.Collector.empty_snapshot
    (List.map Obs.Collector.snapshot collectors)

let test_run_probed_domain_independent () =
  let sn1 = probed_batch ~domains:1 in
  let sn3 = probed_batch ~domains:3 in
  checkb "batch saw work" true (sn1.Obs.Collector.sn_steps > 0);
  checkb "merged snapshots equal across domain counts" true (sn1 = sn3);
  match
    List.assoc_opt "winners" sn1.Obs.Collector.sn_metrics.Obs.Metrics.counters
  with
  | Some w -> checki "one winner per trial" 12 w
  | None -> Alcotest.fail "winners counter missing"

let test_collector_merge_associative () =
  let sn = probed_batch ~domains:1 in
  let e = Obs.Collector.empty_snapshot in
  checkb "empty left identity" true (Obs.Collector.merge e sn = sn);
  checkb "empty right identity" true (Obs.Collector.merge sn e = sn);
  checkb "self-merge doubles steps" true
    ((Obs.Collector.merge sn sn).Obs.Collector.sn_steps
    = 2 * sn.Obs.Collector.sn_steps)

(* {1 Collector span accounting on a handcrafted program} *)

let test_collector_attribution () =
  let collector = Obs.Collector.create () in
  Obs.with_sink (Obs.Collector.sink collector) (fun () ->
      let mem = Sim.Memory.create () in
      let r = Sim.Register.create ~name:"r" mem in
      let program ctx =
        let pid = Sim.Ctx.pid ctx in
        Obs.enter ~pid "outer";
        Sim.Ctx.write ctx r 1;
        Obs.enter ~pid "inner";
        ignore (Sim.Ctx.read ctx r);
        ignore (Sim.Ctx.read ctx r);
        Obs.leave ~pid "inner";
        Sim.Ctx.write ctx r 2;
        Obs.leave ~pid "outer";
        0
      in
      let sched = Sim.Sched.create ~seed:1L [| program |] in
      Sim.Sched.run sched (Sim.Adversary.round_robin ()));
  let sn = Obs.Collector.snapshot collector in
  let phase name =
    match
      List.find_opt
        (fun p -> p.Obs.Collector.ps_phase = name)
        sn.Obs.Collector.sn_phases
    with
    | Some p -> p
    | None -> Alcotest.fail ("missing phase " ^ name)
  in
  let outer = phase "outer" and inner = phase "inner" in
  (* Leaf attribution: the two reads inside "inner" belong to it, the
     two writes outside it to "outer". *)
  checki "outer calls" 1 outer.Obs.Collector.ps_calls;
  checki "outer steps" 2 outer.Obs.Collector.ps_steps;
  checki "outer writes" 2 outer.Obs.Collector.ps_writes;
  checki "inner calls" 1 inner.Obs.Collector.ps_calls;
  checki "inner steps" 2 inner.Obs.Collector.ps_steps;
  (* First read after a write by the same pid is cached: 0 RMRs. *)
  checki "inner rmrs" 0 inner.Obs.Collector.ps_rmrs;
  checki "outer rmrs" 2 outer.Obs.Collector.ps_rmrs;
  check
    Alcotest.(array (float 1e-9))
    "inner per-span steps sample" [| 2.0 |]
    inner.Obs.Collector.ps_step_samples;
  checki "nothing unattributed" 0
    (phase "(unattributed)").Obs.Collector.ps_steps

let test_collector_unclosed_on_crash () =
  let collector = Obs.Collector.create () in
  Obs.with_sink (Obs.Collector.sink collector) (fun () ->
      let mem = Sim.Memory.create () in
      let r = Sim.Register.create ~name:"r" mem in
      let program ctx =
        Obs.enter ~pid:(Sim.Ctx.pid ctx) "doomed";
        ignore (Sim.Ctx.read ctx r);
        ignore (Sim.Ctx.read ctx r);
        Obs.leave ~pid:(Sim.Ctx.pid ctx) "doomed";
        0
      in
      let sched = Sim.Sched.create ~seed:1L [| program |] in
      Sim.Sched.step sched 0;
      Sim.Sched.crash sched 0);
  let sn = Obs.Collector.snapshot collector in
  match sn.Obs.Collector.sn_phases with
  | _ ->
      let doomed =
        List.find
          (fun p -> p.Obs.Collector.ps_phase = "doomed")
          sn.Obs.Collector.sn_phases
      in
      checki "no clean calls" 0 doomed.Obs.Collector.ps_calls;
      checki "one unclosed span" 1 doomed.Obs.Collector.ps_unclosed;
      checki "steps still attributed" 1 doomed.Obs.Collector.ps_steps;
      checki "no per-span sample for crashed span" 0
        (Array.length doomed.Obs.Collector.ps_step_samples);
      checki "crash seen" 1 sn.Obs.Collector.sn_crashes

(* {1 JSON}

   The one JSON layer every exporter writes through: a printed value
   parses back to itself (escapes included), [\u] escapes decode to
   UTF-8, non-finite floats print as null, and a streamed document is
   the text of the same tree printed whole. *)

module J = Obs.Json

let gen_json =
  let open QCheck2.Gen in
  let specials = oneofl [ '"'; '\\'; '\n'; '\t'; '\001'; '\031'; '/' ] in
  let str = string_size ~gen:(oneof [ char; specials ]) (0 -- 12) in
  let leaf =
    oneof
      [
        pure J.Null;
        map (fun b -> J.Bool b) bool;
        map J.int int;
        map (J.float "%.3f") (float_range (-1e6) 1e6);
        map (J.float "%g") float;
        map (fun s -> J.Str s) str;
      ]
  in
  sized
  @@ fix (fun self n ->
         let items g = list_size (0 -- 4) g in
         if n <= 0 then leaf
         else
           frequency
             [
               (3, leaf);
               (1, map (fun l -> J.Arr l) (items (self (n / 4))));
               (1, map (fun l -> J.Obj l) (items (pair str (self (n / 4)))));
             ])

let prop_json_round_trip =
  QCheck2.Test.make ~count:500 ~name:"parse (to_string v) = v"
    ~print:J.to_string gen_json (fun v -> J.parse (J.to_string v) = v)

let test_json_decoding () =
  let str = Alcotest.testable (fun ppf v -> Fmt.string ppf (J.to_string v)) ( = ) in
  check str "\\u escapes decode to UTF-8, surrogate pairs joined"
    (J.Str "\xc3\xa9\xf0\x9f\x98\x80\x01/\"\\")
    (J.parse {|"\u00e9\ud83d\ude00\u0001\/\"\\"|});
  check str "numbers keep their literal"
    (J.Arr [ J.Num "-0.50"; J.Num "1e+06"; J.Num "0" ])
    (J.parse " [-0.50, 1e+06 ,0] ");
  List.iter
    (fun bad ->
      match J.parse bad with
      | _ -> Alcotest.failf "accepted %S" bad
      | exception J.Parse_error _ -> ())
    [ {|"\ud83d"|}; {|"\udc00"|}; "01"; "[1,]"; "{\"a\" 1}"; "tru"; "\"a\nb\""; "1 2" ];
  check str "non-finite floats print as null"
    (J.Arr [ J.Null; J.Null; J.Num "1.5" ])
    (J.Arr [ J.float "%g" Float.infinity; J.float "%g" Float.nan; J.float "%g" 1.5 ])

let test_json_stream () =
  let rest = [ ("unit", J.Str "ms"); ("n", J.int 2) ] in
  let events =
    [ J.Obj [ ("a", J.int 1); ("b", J.Arr [ J.Null ]) ]; J.Str "x"; J.Arr [] ]
  in
  let s = J.stream "ev\"ents" in
  check Alcotest.string "empty stream" (J.to_string (J.Obj (("ev\"ents", J.Arr []) :: rest)))
    (J.stream_to_string s rest);
  List.iter (J.push s) events;
  check Alcotest.string "streamed = printed whole"
    (J.to_string (J.Obj (("ev\"ents", J.Arr events) :: rest)))
    (J.stream_to_string s rest)

(* {1 Perfetto export: JSON validity and span structure} *)

(* The events of an exported trace; the export must parse. *)
let trace_events chrome =
  match J.member "traceEvents" (J.parse (Obs.Chrome_trace.to_string chrome)) with
  | J.Arr evs -> evs
  | _ -> Alcotest.fail "missing traceEvents array"

let test_chrome_trace_structure () =
  let chrome = Obs.Chrome_trace.create () in
  Obs.with_sink (Obs.Chrome_trace.sink chrome) (fun () ->
      let mem = Sim.Memory.create () in
      let progs =
        Rtas.Probe_target.rr_classic.Rtas.Probe_target.pt_programs mem ~n:8
          ~k:4
      in
      let sched = Sim.Sched.create ~seed:3L progs in
      Sim.Sched.run sched (Sim.Adversary.random_oblivious ~seed:3L));
  let events = trace_events chrome in
  checkb "has events" true (events <> []);
  (* Perfetto essentials: every event carries ph/ts/pid/tid with the
     right types, and B/E spans nest (LIFO per track). *)
  let stacks : (string, string list ref) Hashtbl.t = Hashtbl.create 8 in
  let stack tid =
    match Hashtbl.find_opt stacks tid with
    | Some s -> s
    | None ->
        let s = ref [] in
        Hashtbl.add stacks tid s;
        s
  in
  List.iter
    (fun ev ->
      let str field =
        match J.member field ev with
        | J.Str s -> s
        | _ -> Alcotest.fail ("event without " ^ field)
      in
      let ph = str "ph" and name = str "name" in
      let tid =
        match (J.member "ts" ev, J.member "pid" ev, J.member "tid" ev) with
        | J.Num _, J.Num _, J.Num tid -> tid
        | _ -> Alcotest.fail "event missing ts/pid/tid number"
      in
      match ph with
      | "B" -> stack tid := name :: !(stack tid)
      | "E" -> (
          match !(stack tid) with
          | top :: rest ->
              check Alcotest.string "spans nest (E matches its B)" top name;
              stack tid := rest
          | [] -> Alcotest.fail "E without open B")
      | "i" | "M" -> ()
      | other -> Alcotest.fail ("unexpected ph " ^ other))
    events;
  Hashtbl.iter
    (fun _ s -> checki "all spans closed" 0 (List.length !s))
    stacks;
  let phases =
    List.filter_map
      (fun ev ->
        match (J.member "ph" ev, J.member "name" ev) with
        | J.Str "B", J.Str name -> Some name
        | _ -> None)
      events
  in
  checkb "rr_tree span present" true (List.mem "rr_tree" phases)

let test_chrome_trace_crash_closes_spans () =
  let chrome = Obs.Chrome_trace.create () in
  Obs.with_sink (Obs.Chrome_trace.sink chrome) (fun () ->
      let mem = Sim.Memory.create () in
      let r = Sim.Register.create ~name:"r" mem in
      let program ctx =
        Obs.enter ~pid:(Sim.Ctx.pid ctx) "doomed";
        ignore (Sim.Ctx.read ctx r);
        ignore (Sim.Ctx.read ctx r);
        0
      in
      let sched = Sim.Sched.create ~seed:1L [| program |] in
      Sim.Sched.step sched 0;
      Sim.Sched.crash sched 0);
  let evs = trace_events chrome in
  let count ph =
    List.length (List.filter (fun ev -> J.member "ph" ev = J.Str ph) evs)
  in
  checki "crashed span closed by exporter" (count "B") (count "E")

(* {1 Gauges} *)

let checkf = Alcotest.(check (float 1e-9))

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_metrics_gauges () =
  let m = Obs.Metrics.create () in
  let g = Obs.Metrics.gauge m "depth" in
  checkb "unset gauge stays out of the snapshot" true
    ((Obs.Metrics.snapshot m).Obs.Metrics.gauges = []);
  Obs.Metrics.set g 3.0;
  Obs.Metrics.set g 7.5;
  checkf "last write wins" 7.5 (Obs.Metrics.gauge_value g);
  checkb "get-or-create returns the same gauge" true
    (Obs.Metrics.gauge m "depth" == g);
  (match
     List.assoc_opt "depth" (Obs.Metrics.snapshot m).Obs.Metrics.gauges
   with
  | Some v -> checkf "snapshot carries the level" 7.5 v
  | None -> Alcotest.fail "set gauge missing from snapshot");
  Alcotest.check_raises "counter/gauge kind clash"
    (Invalid_argument "Metrics.counter: \"depth\" is a gauge") (fun () ->
      ignore (Obs.Metrics.counter m "depth"))

let gauge_registry pairs =
  let m = Obs.Metrics.create () in
  List.iter (fun (n, v) -> Obs.Metrics.set (Obs.Metrics.gauge m n) v) pairs;
  Obs.Metrics.snapshot m

let test_metrics_gauge_merge () =
  let a = gauge_registry [ ("x", 1.0); ("y", 2.0) ] in
  let b = gauge_registry [ ("y", 5.0); ("z", 7.0) ] in
  let c = gauge_registry [ ("y", 9.0) ] in
  let ab = Obs.Metrics.merge a b in
  (match List.assoc_opt "y" ab.Obs.Metrics.gauges with
  | Some v -> checkf "right side wins where both set" 5.0 v
  | None -> Alcotest.fail "merged gauge missing");
  checkb "one-sided gauges survive" true
    (List.assoc_opt "x" ab.Obs.Metrics.gauges = Some 1.0
    && List.assoc_opt "z" ab.Obs.Metrics.gauges = Some 7.0);
  checkb "right-biased union is associative" true
    (Obs.Metrics.merge (Obs.Metrics.merge a b) c
    = Obs.Metrics.merge a (Obs.Metrics.merge b c));
  checkb "empty is identity" true
    (Obs.Metrics.merge Obs.Metrics.empty_snapshot a = a
    && Obs.Metrics.merge a Obs.Metrics.empty_snapshot = a);
  (* A registered-but-never-set gauge snapshots as absent, so merging
     it in cannot clobber a real level with a default 0. *)
  let unset =
    let m = Obs.Metrics.create () in
    ignore (Obs.Metrics.gauge m "y");
    Obs.Metrics.snapshot m
  in
  checkb "unset gauge never clobbers" true (Obs.Metrics.merge a unset = a)

(* {1 Timeseries} *)

module TS = Obs.Timeseries

(* A toy linear bucketing: bucket i holds values in [i, i+1), midpoint
   read back as i. Small enough to reason about ranks by hand. *)
let lin8 =
  {
    TS.b_name = "lin8";
    b_count = 8;
    b_of_value =
      (fun v ->
        let i = int_of_float v in
        if i < 0 then 0 else if i > 7 then 7 else i);
    b_midpoint = float_of_int;
  }

let test_timeseries_windows () =
  let ts = TS.create ~window:10.0 () in
  let c = TS.counter ts "ev" in
  TS.bump c ~at:0.0;
  TS.bump c ~at:9.9;
  TS.add c ~at:25.0 3;
  let g = TS.gauge ts "depth" in
  TS.set g ~at:5.0 2.0;
  TS.set g ~at:8.0 4.0;
  TS.set g ~at:25.0 1.0;
  let q = TS.quantile ts lin8 "lat" in
  TS.observe q ~at:3.0 2.5;
  TS.observe q ~at:4.0 6.5;
  TS.observe q ~at:21.0 3.5;
  let s = TS.snapshot ts in
  checki "windows" 3 (TS.windows s);
  checkb "counter cells (nonzero windows only)" true
    (List.assoc "ev" s.TS.s_counters = [ (0, 2); (2, 3) ]);
  checki "counter_sum" 5 (TS.counter_sum s "ev");
  checki "absent counter sums to 0" 0 (TS.counter_sum s "nope");
  checkb "gauge keeps the last write per window" true
    (List.assoc "depth" s.TS.s_gauges = [ (0, 4.0); (2, 1.0) ]);
  let qs = List.assoc "lat" s.TS.s_quantiles in
  checkb "scheme tag travels" true (qs.TS.qs_scheme = "lin8");
  (match qs.TS.qs_windows with
  | [ w0; w2 ] ->
      checki "first quantile window" 0 w0.TS.qw_win;
      checki "its n" 2 w0.TS.qw_n;
      checkf "its exact max" 6.5 w0.TS.qw_max;
      checkf "p50 reads the low bucket midpoint" 2.0 (TS.percentile w0 0.5);
      checkf "p99 clamps the midpoint to the exact max" 6.0
        (TS.percentile w0 0.99);
      checki "second quantile window" 2 w2.TS.qw_win
  | ws -> Alcotest.failf "expected 2 quantile windows, got %d" (List.length ws));
  Alcotest.check_raises "counter/gauge kind clash"
    (Invalid_argument "Timeseries.gauge: \"ev\" is a counter") (fun () ->
      ignore (TS.gauge ts "ev"))

(* Replay a fixed event tape into one recorder per shard (shard = event
   index mod n) and merge the per-shard snapshots: the result must not
   depend on n — the exact property the service driver leans on when it
   fans shards out over domains. Counter and quantile cells commute;
   gauge cells are last-write-wins, so the tape's gauge values are a
   function of the window alone (as the driver's per-shard wheel gauges
   are per-shard state, stripped before its cross-shard comparison). *)
let tape =
  List.init 60 (fun i ->
      (float_of_int (i * 7 mod 100), i mod 3, float_of_int (i mod 11)))

let sharded n =
  let recs = Array.init n (fun _ -> TS.create ~window:10.0 ()) in
  List.iteri
    (fun i (at, kind, v) ->
      let ts = recs.(i mod n) in
      match kind with
      | 0 -> TS.bump (TS.counter ts "ev") ~at
      | 1 -> TS.set (TS.gauge ts "depth") ~at (float_of_int (int_of_float (at /. 10.0)))
      | _ -> TS.observe (TS.quantile ts lin8 "lat") ~at v)
    tape;
  Array.fold_left
    (fun acc ts -> TS.merge acc (TS.snapshot ts))
    TS.empty_snapshot recs

let test_timeseries_merge () =
  let s1 = sharded 1 and s2 = sharded 2 and s4 = sharded 4 in
  checkb "1 vs 2 shards" true (s1 = s2);
  checkb "2 vs 4 shards" true (s2 = s4);
  checkb "empty is identity" true
    (TS.merge TS.empty_snapshot s1 = s1 && TS.merge s1 TS.empty_snapshot = s1);
  (* Counters with no overlapping gauge windows merge commutatively;
     associativity holds regardless (the shard test above exercises it
     across groupings). *)
  let other = TS.create ~window:20.0 () in
  TS.bump (TS.counter other "ev") ~at:0.0;
  Alcotest.check_raises "window width mismatch"
    (Invalid_argument "Timeseries.merge: window width mismatch") (fun () ->
      ignore (TS.merge s1 (TS.snapshot other)))

let test_timeseries_export () =
  let ts = TS.create ~window:10.0 () in
  TS.bump (TS.counter ts "svc.ev") ~at:1.0;
  TS.bump (TS.counter ts "svc.ev") ~at:15.0;
  TS.set (TS.gauge ts "svc.depth") ~at:3.0 5.0;
  TS.observe (TS.quantile ts lin8 "svc.lat") ~at:2.0 4.5;
  let s = TS.snapshot ts in
  let json = J.parse (TS.to_json s) in
  checkb "json carries the schema tag" true
    (J.member "schema" json = J.Str "rtas-timeseries/1");
  checkb "json counter pairs" true
    (J.member "svc.ev" (J.member "counters" json)
    = J.Arr [ J.Arr [ J.int 0; J.int 1 ]; J.Arr [ J.int 1; J.int 1 ] ]);
  let om = TS.to_openmetrics s in
  checkb "openmetrics sanitizes and prefixes" true
    (contains om "rtas_svc_ev_total{window=\"0\"} 1");
  checkb "openmetrics quantile summary" true
    (contains om "rtas_svc_lat{window=\"0\",quantile=\"0.5\"}");
  checkb "openmetrics ends with EOF" true (contains om "# EOF\n");
  let tr = Obs.Chrome_trace.create () in
  TS.to_chrome s tr;
  let evs = trace_events tr in
  checkb "counter events present" true
    (List.exists (fun ev -> J.member "ph" ev = J.Str "C") evs);
  checkb "every event carries ph/ts/pid" true
    (List.for_all
       (fun ev -> List.for_all (fun f -> J.member f ev <> J.Null) [ "ph"; "ts"; "pid" ])
       evs)

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "counters and histograms" `Quick
            test_metrics_basics;
          Alcotest.test_case "merge is associative/commutative" `Quick
            test_metrics_merge_associative;
          Alcotest.test_case "gauges are last-write levels" `Quick
            test_metrics_gauges;
          Alcotest.test_case "gauge merge is a right-biased union" `Quick
            test_metrics_gauge_merge;
        ] );
      ( "timeseries",
        [
          Alcotest.test_case "windowed counters, gauges, quantiles" `Quick
            test_timeseries_windows;
          Alcotest.test_case "shard merge is grouping-independent" `Quick
            test_timeseries_merge;
          Alcotest.test_case "JSON, OpenMetrics and Perfetto exports" `Quick
            test_timeseries_export;
        ] );
      ( "bit-identity",
        [
          Alcotest.test_case "probed run = plain run" `Quick
            test_probed_run_bit_identical;
          Alcotest.test_case "probed reset run = fresh run" `Quick
            test_reset_with_sink_bit_identical;
        ] );
      ( "engine",
        [
          Alcotest.test_case "run_probed merges domain-independently" `Quick
            test_run_probed_domain_independent;
          Alcotest.test_case "collector merge algebra" `Quick
            test_collector_merge_associative;
        ] );
      ( "collector",
        [
          Alcotest.test_case "leaf attribution" `Quick
            test_collector_attribution;
          Alcotest.test_case "crash leaves unclosed span" `Quick
            test_collector_unclosed_on_crash;
        ] );
      ( "json",
        [
          QCheck_alcotest.to_alcotest prop_json_round_trip;
          Alcotest.test_case "escapes, literals, errors" `Quick test_json_decoding;
          Alcotest.test_case "streamed document = whole tree" `Quick
            test_json_stream;
        ] );
      ( "chrome-trace",
        [
          Alcotest.test_case "valid JSON, fields, nesting" `Quick
            test_chrome_trace_structure;
          Alcotest.test_case "crash closes open spans" `Quick
            test_chrome_trace_crash_closes_spans;
        ] );
    ]
