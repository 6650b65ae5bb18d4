(* The repository benchmark. One process, one domain:

     main.exe --workload elect|svc-events --seed N
              --seconds S --trace 0|1 [--plant CHECK]
     main.exe --list-metrics

   With --trace 0 it sets the workload up several times (set-up time is
   the median), runs one warm-up pass, then repeats the workload's pass
   on the same inputs for S seconds (at least three more passes) and
   reports the end-to-end metrics: set-up time as the median of its
   samples, throughput from the fastest time of each timed part over
   the measured passes (see [fastest_s]) scaled to the reference host
   speed (see Hostref), simulated metrics from the warm-up pass after
   checking that every later pass repeats it exactly. With --trace 1 it
   alternates untraced and traced passes after the warm-up for S
   seconds, then runs the per-layer ledger, and reports the per-layer
   metrics; the spans go to perfbench/out/.

   Human-readable lines come first; the last line of standard output is
   the JSON result. A failed correctness check exits 1 without a
   result. *)

type pass = {
  wall : float;  (* host seconds of the workload pass, checks excluded *)
  parts : float list;
      (* host seconds of each separately timed part of the pass, the
         same parts in every pass; they sum to about [wall] *)
  attempted : int;  (* operations: elections, or whole service runs *)
  ops : int;  (* what ops_per_s counts: elections, or simulated clients *)
  sim : (string * float) list;  (* simulated metrics: must repeat *)
  witness : string;  (* the pass's full output, for the repeat check *)
  host : (string * float) list;  (* host-time extras per pass *)
  counts : (string * float) list;  (* per-run work counts *)
  predict : (string -> float) -> float;
      (* seconds the pass should take at the ledger's unit costs *)
}

(* {1 Workloads} *)

let elect_workload ~seed () =
  let a = Elect.setup ~seed in
  fun () ->
    let p, wall = Engine.timed (fun () -> Elect.run_pass a) in
    Elect.check a p;
    let failed = ref 0 in
    let count_failed ws = Array.iter (fun w -> if w < 0 then incr failed) ws in
    Array.iter (Array.iter (fun b -> count_failed b.Elect.winners)) p.Elect.flat_b;
    Array.iter (Array.iter (fun b -> count_failed b.Elect.winners)) p.Elect.eff_b;
    Array.iter (Array.iter count_failed) p.Elect.atomic_w;
    let total = Elect.elections_per_pass in
    let rate n s = float_of_int n /. s in
    {
      wall;
      parts = p.Elect.block_s;
      attempted = total;
      ops = total;
      sim =
        Elect.sim_metrics p
        @ [ ("ok_ratio", float_of_int (total - !failed) /. float_of_int total) ];
      witness =
        Digest.to_hex
          (Digest.string
             (Marshal.to_string (p.Elect.flat_b, p.Elect.eff_b, p.Elect.atomic_w) []));
      host =
        [
          ("elect.flat_trials_per_s", rate Elect.flat_elections p.Elect.flat_s);
          ("elect.effect_trials_per_s", rate Elect.effect_elections p.Elect.eff_s);
          ("elect.atomic_elects_per_s", rate Elect.atomic_elections p.Elect.atomic_s);
        ];
      counts = [];
      predict =
        (fun cost ->
          let part kernel entries trials =
            Array.fold_left
              (fun acc e ->
                Array.fold_left
                  (fun acc k ->
                    acc
                    +. float_of_int trials
                       *. cost
                            (Printf.sprintf "%s.elect_ns.%s.k%d" kernel
                               (Util.slug e) k))
                  acc Elect.ks)
              0.0 entries
          in
          1e-9
          *. (part "flatsim" Elect.flat_entries Elect.flat_trials
             +. part "sim" Elect.effect_entries Elect.effect_trials
             +. part "atomic" Elect.atomic_entries Elect.atomic_trials));
    }

let svc_workload ~seed () =
  let cfg = Svc.config ~seed in
  Svc.setup cfg;
  fun () ->
    let p, wall = Engine.timed (fun () -> Svc.run_pass cfg) in
    Svc.check cfg p;
    let r = p.Svc.report in
    let c = r.Service.Report.counts in
    let retry = cfg.Service.Driver.on_shed = `Retry in
    (* Timer events: one arrival per client, one per retry (and per
       shed under retry), a release and a lease per round. *)
    let events =
      c.clients + c.retries + (if retry then c.shed else 0) + (2 * c.rounds)
    in
    {
      wall;
      parts = [ wall ];
      attempted = 1;
      ops = c.clients;
      sim = Svc.sim_metrics cfg p;
      witness =
        Service.Report.to_json r
        ^ Obs.Timeseries.to_json p.Svc.sink.Service.Telemetry.snapshot;
      host = [];
      counts =
        [
          ("driver.rounds", float_of_int c.rounds);
          ("driver.retries", float_of_int c.retries);
          ("driver.shed", float_of_int c.shed);
        ];
      predict =
        (fun cost ->
          let f = float_of_int in
          let per_event = cost "wheel.event_ns.short" +. cost "timeseries.record_ns" in
          1e-9
          *. ((f c.rounds
              *. (cost "flatsim.elect_ns.tournament.k2" +. cost "resettable.cycle_ns"))
             +. (f c.clients *. (cost "zipf.sample_ns" +. cost "arrival.next_ns"))
             +. (f events *. per_event)
             +. (f (c.retries + if retry then c.shed else 0) *. cost "backoff.delay_ns")
             +. (f c.completed *. cost "histo.observe_ns")));
    }

let workload name ~seed =
  match name with
  | "elect" -> elect_workload ~seed
  | "svc-events" -> svc_workload ~seed
  | _ -> raise (Arg.Bad ("unknown workload " ^ name))

(* {1 Measurement} *)

(* Set-up is timed at least [setup_min_reps] times and for at least
   [setup_min_s] seconds before the first pass, then again after every
   measured pass for about [setup_share] of that pass's time, so the
   samples span the run as the passes do and host-speed drift reaches
   both alike. Set-up time is the median of all samples. Only one
   set-up is kept, for the passes. A full major collection runs before
   each sample, untimed, so earlier set-ups are freed and every sample
   starts alike. *)
let setup_min_reps = 5
let setup_min_s = 0.5
let setup_share = 0.05
let min_passes = 3

let time_setup build =
  Gc.full_major ();
  Engine.timed build

let set_up build =
  let t0 = Util.now () in
  let last = ref None and times = ref [] in
  while
    List.length !times < setup_min_reps || Util.now () -. t0 < setup_min_s
  do
    last := None;
    let runner, t = time_setup build in
    last := Some runner;
    times := t :: !times
  done;
  (Option.get !last, !times)

let resample build ~budget times =
  let t0 = Util.now () in
  let rec go times =
    let times = snd (time_setup build) :: times in
    if Util.now () -. t0 < budget then go times else times
  in
  go times

(* A full major collection before each pass, untimed, so every pass
   starts from the same collector state instead of paying for the
   previous pass's garbage. *)
let run_pass runner =
  Gc.full_major ();
  Span.new_run ();
  Span.within "harness.pass" runner

(* Every pass repeats the first one's simulated output exactly. *)
let check_repeat first p =
  let witness =
    if Check.planted "drift" then p.witness ^ "drift" else p.witness
  in
  Check.require "sim repeat"
    (p.sim = first.sim && witness = first.witness)
    "a pass on the same seed did not repeat the first pass's simulated output"

(* Throughput is taken at the fastest speed the run saw. On a shared
   host, other tenants slow this process down for stretches of seconds
   to minutes, by up to 1.8x; a pass can only be slowed, never sped up,
   by them, so the fastest of many repeats of the same work is the
   steadiest estimate of what the code costs. A pass's parts are timed
   separately and each part's fastest time counts, so a part that ran
   in a quiet moment counts even when the rest of its pass did not. The
   parts are each entry's block on [elect] (22 of them, from under a
   millisecond to a fifth of a second) and the whole service run on
   [svc-*]. *)
let fastest_s passes =
  match passes with
  | [] -> invalid_arg "fastest_s: no passes"
  | p :: _ ->
      List.fold_left
        (fun best q -> List.map2 Float.min best q.parts)
        p.parts passes
      |> List.fold_left ( +. ) 0.0

let fastest_of key passes =
  List.fold_left (fun acc p -> Float.max acc (List.assoc key p.host)) 0.0 passes

let top_heap_mb () =
  float_of_int (Gc.quick_stat ()).Gc.top_heap_words
  *. float_of_int (Sys.word_size / 8)
  /. 1048576.0

let print_line indent (k, v) =
  Printf.printf "%s%-*s %.6g %s\n" indent (42 - String.length indent) k v
    (Catalog.unit_of k)

let print_result ~attempted metrics =
  let body =
    List.map
      (fun (name, v) ->
        if not (Util.valid_name name) then failwith ("bad metric name " ^ name);
        Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (Util.json_string name)
          (Util.json_float v)
          (Util.json_string (Catalog.unit_of name)))
      metrics
  in
  Printf.printf "{\"correct\": true, \"attempted\": %d, \"failed\": 0, \"metrics\": {%s}}\n"
    attempted (String.concat ", " body)

let untraced ~name ~seed ~seconds =
  let build = workload name ~seed in
  let runner, setup_times = set_up build in
  let setup_times = ref setup_times in
  let t0 = Util.now () in
  let first = run_pass runner in
  (* Peak heap of set-up plus one pass: later passes repeat the same
     allocations, so this does not depend on how many passes fit. *)
  let heap_mb = top_heap_mb () in
  (* The first call builds the reference's table; after the heap is
     measured, so it does not count there. *)
  ignore (Hostref.time ());
  let passes = ref [] and refs = ref [] in
  while Util.now () -. t0 < seconds || List.length !passes < min_passes do
    let p = run_pass runner in
    check_repeat first p;
    passes := p :: !passes;
    refs := Hostref.time () :: !refs;
    setup_times := resample build ~budget:(setup_share *. p.wall) !setup_times
  done;
  let passes = List.rev !passes in
  let measured_ops_per_s = float_of_int first.ops /. fastest_s passes in
  let slowdown = Hostref.slowdown !refs in
  let sim k = List.assoc k first.sim in
  let metrics =
    [
      ("setup_s", Sim.Stats.percentile !setup_times 0.5);
      ("ops_per_s", measured_ops_per_s *. slowdown);
      ("lat_p50_ticks", sim "lat_p50_ticks");
      ("completions_per_ktick", sim "completions_per_ktick");
      ("ok_ratio", sim "ok_ratio");
      ("top_heap_mb", heap_mb);
    ]
  in
  Printf.printf "workload %s, seed %d: %d passes in %.2f s, all checks passed\n"
    name seed (List.length passes) (Util.now () -. t0);
  Printf.printf "  (ops_per_s counts %s)\n"
    (if name = "elect" then "elections" else "simulated clients");
  List.iter (print_line "  ") metrics;
  Printf.printf "  ops_per_s as measured %.6g 1/s; the host ran %.4g x slower than the reference\n"
    measured_ops_per_s slowdown;
  Printf.printf "  simulated, exact for the seed:\n";
  List.iter (print_line "    ") first.sim;
  if first.host <> [] then Printf.printf "  host time, fastest over passes:\n";
  List.iter (fun (k, _) -> print_line "    " (k, fastest_of k passes)) first.host;
  print_result ~attempted:(List.fold_left (fun a p -> a + p.attempted) 0 passes) metrics

let traced ~name ~seed ~seconds =
  let runner, _ = set_up (workload name ~seed) in
  let t0 = Util.now () in
  let first = run_pass runner in
  let plain = ref [] and with_spans = ref [] in
  while
    Util.now () -. t0 < seconds
    || List.length !plain < 2
    || List.length !with_spans < 2
  do
    let p = run_pass runner in
    check_repeat first p;
    plain := p :: !plain;
    Span.enabled := true;
    let q = run_pass runner in
    Span.enabled := false;
    check_repeat first q;
    with_spans := q :: !with_spans
  done;
  let traced_runs = List.length !with_spans in
  let wall ps = Sim.Stats.percentile (List.map (fun p -> p.wall) ps) 0.5 in
  let plain_wall = wall !plain in
  let workload_spans = Span.count () in
  Span.enabled := true;
  Span.new_run ();
  let ledger = Span.within "ledger.all" Ledger.run in
  Span.enabled := false;
  let cost k =
    match List.assoc_opt k ledger with
    | Some v -> v
    | None -> failwith ("ledger has no " ^ k)
  in
  let self = Span.self_by_layer ~keep:(fun i -> i < workload_spans) () in
  let self_ms l =
    1000.0 *. Option.value ~default:0.0 (Hashtbl.find_opt self l)
    /. float_of_int traced_runs
  in
  (* A figure the workload does not have reads 0. *)
  let or_zero l k = Option.value ~default:0.0 (List.assoc_opt k l) in
  let host_fastest = List.map (fun (k, _) -> (k, fastest_of k !plain)) first.host in
  let run_level =
    [
      ("driver.rounds", or_zero first.counts "driver.rounds");
      ("driver.retries", or_zero first.counts "driver.retries");
      ("driver.shed", or_zero first.counts "driver.shed");
      ("driver.unattributed_share", 1.0 -. (first.predict cost /. fastest_s !plain));
      ("trace.overhead", wall !with_spans /. plain_wall);
      ("elect.flat_trials_per_s", or_zero host_fastest "elect.flat_trials_per_s");
      ("elect.effect_trials_per_s", or_zero host_fastest "elect.effect_trials_per_s");
      ("elect.atomic_elects_per_s", or_zero host_fastest "elect.atomic_elects_per_s");
      ("elect.steps_per_elect", or_zero first.sim "steps_per_elect");
    ]
    @ List.map (fun l -> ("span.self_ms." ^ l, self_ms l)) Catalog.span_layers
  in
  let all = ledger @ run_level in
  let metrics =
    List.map
      (fun l ->
        match List.assoc_opt l.Catalog.name all with
        | Some v -> (l.Catalog.name, v)
        | None -> failwith ("no value for per-layer metric " ^ l.Catalog.name))
      Catalog.per_layer
  in
  let dir = Filename.concat "perfbench" "out" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Filename.concat dir (Printf.sprintf "spans-%s-seed%d.json" name seed) in
  Span.write path;
  Printf.printf
    "workload %s, seed %d: %d untraced + %d traced passes, ledger of %d unit \
     costs, %d spans written to %s\n"
    name seed (List.length !plain) traced_runs (List.length ledger) (Span.count ())
    path;
  List.iter (print_line "  ") metrics;
  print_result
    ~attempted:(List.fold_left (fun a p -> a + p.attempted) 0 (!plain @ !with_spans))
    metrics

(* {1 Command line} *)

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref (-1.0) in
  let trace = ref (-1) and list = ref false in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME elect | svc-events");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S how long to measure");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run, or traced per-layer run");
      ( "--plant",
        Arg.Symbol (Check.plants, fun s -> Check.plant := s),
        " break one correctness check on purpose (tests)" );
      ("--list-metrics", Arg.Set list, " print the metric catalog and exit");
    ]
  in
  let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1" in
  (try Arg.parse_argv Sys.argv spec (fun a -> raise (Arg.Bad ("extra argument " ^ a))) usage
   with
  | Arg.Bad msg ->
      prerr_string msg;
      exit 2
  | Arg.Help msg ->
      print_string msg;
      exit 0);
  if !list then Catalog.print ()
  else begin
    if not (List.mem !workload Catalog.workloads) || !seed < 0 || !seconds <= 0.0
       || (!trace <> 0 && !trace <> 1)
    then begin
      prerr_endline (Arg.usage_string spec usage);
      exit 2
    end;
    try
      if !trace = 0 then untraced ~name:!workload ~seed:!seed ~seconds:!seconds
      else traced ~name:!workload ~seed:!seed ~seconds:!seconds
    with Check.Failed msg ->
      Printf.eprintf "CHECK FAILED: %s\n" msg;
      exit 1
  end
