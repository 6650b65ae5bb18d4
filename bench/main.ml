(* Benchmark & experiment driver.

   dune exec bench/main.exe                         -- every experiment table
   dune exec bench/main.exe -- e5 e8                -- selected experiments
   dune exec bench/main.exe -- --domains 4 e1       -- table runs on 4 domains
   dune exec bench/main.exe -- perf --domains 4     -- parallel speedup bench
   dune exec bench/main.exe -- bechamel             -- Bechamel microbenches
   dune exec bench/main.exe -- gate CURRENT BASELINE -- perf gate table

   Every run that executes experiments or the perf sweep also writes a
   machine-readable BENCH_results.json (override with --out FILE) so
   the perf trajectory of the repo can be tracked PR over PR; the
   schema is documented in EXPERIMENTS.md. *)

open Bechamel
open Toolkit

(* {1 Bechamel microbenches: one per experiment table, measuring the
   core operation that the table sweeps} *)

let run_election ~algorithm ~n ~k seed =
  ignore
    (Rtas.Election.run ~seed ~algorithm ~n ~k
       ~adversary:
         (Sim.Adversary.random_oblivious
            ~seed:(Sim.Rng.derive seed ~stream:1))
       ())

let bench_tests =
  let counter = ref 0L in
  let next () =
    counter := Int64.add !counter 1L;
    !counter
  in
  [
    (* E1: one Figure-1 GroupElect round, k = 32. *)
    Test.make ~name:"e1/ge-logstar-round-k32"
      (Staged.stage (fun () ->
           let mem = Sim.Memory.create () in
           let ge = Groupelect.Ge_logstar.create mem ~n:4096 in
           let sched =
             Sim.Sched.create ~seed:(next ())
               (Array.init 32 (fun _ ctx ->
                    if ge.Groupelect.Ge.elect ctx then 1 else 0))
           in
           Sim.Sched.run sched (Sim.Adversary.round_robin ())));
    (* E2: a full log* election, k = 256. *)
    Test.make ~name:"e2/logstar-election-k256"
      (Staged.stage (fun () ->
           run_election ~algorithm:"log*" ~n:256 ~k:256 (next ())));
    (* E3: a full loglog election, k = 256. *)
    Test.make ~name:"e3/loglog-election-k256"
      (Staged.stage (fun () ->
           run_election ~algorithm:"loglog" ~n:256 ~k:256 (next ())));
    (* E4: a lean RatRace election, k = 256. *)
    Test.make ~name:"e4/ratrace-lean-k256"
      (Staged.stage (fun () ->
           run_election ~algorithm:"ratrace-lean" ~n:256 ~k:256 (next ())));
    (* E5: allocation cost of the lean structure (space experiment). *)
    Test.make ~name:"e5/allocate-ratrace-lean-n1024"
      (Staged.stage (fun () ->
           let mem = Sim.Memory.create () in
           ignore (Ratrace.Ratrace_lean.create mem ~n:1024)));
    (* E6: a combined election, k = 64. *)
    Test.make ~name:"e6/combined-logstar-k64"
      (Staged.stage (fun () ->
           run_election ~algorithm:"combined-log*" ~n:64 ~k:64 (next ())));
    (* E7: the covering recurrence f over all k for n = 2^16. *)
    Test.make ~name:"e7/covering-f-n65536"
      (Staged.stage (fun () ->
           ignore (Lowerbound.Covering.f ~n:65536 (65536 - 4))));
    (* E8: one 2-process TAS duel under a fixed alternating schedule. *)
    Test.make ~name:"e8/tas-duel"
      (Staged.stage (fun () ->
           let mem = Sim.Memory.create () in
           let le = Primitives.Le2.create mem in
           let tas =
             Primitives.Tas.create mem ~elect:(fun ctx ->
                 Primitives.Le2.elect le ctx ~port:(Sim.Ctx.pid ctx))
           in
           let sched =
             Sim.Sched.create ~seed:(next ())
               (Array.init 2 (fun _ ctx -> Primitives.Tas.apply tas ctx))
           in
           Sim.Sched.run sched (Sim.Adversary.round_robin ())));
    (* E9: tournament election, k = 256 (the O(log n) baseline). *)
    Test.make ~name:"e9/tournament-k256"
      (Staged.stage (fun () ->
           run_election ~algorithm:"tournament" ~n:256 ~k:256 (next ())));
    (* E10: single-thread cost of a multicore TAS op (no domain spawn). *)
    Test.make ~name:"e10/mc-native-tas"
      (Staged.stage
         (let rng = Random.State.make [| 42 |] in
          fun () ->
            let tas = Multicore.Mc_tas.native () in
            ignore (Multicore.Mc_tas.apply tas rng ~slot:0)));
    Test.make ~name:"e10/mc-tournament-tas-solo"
      (Staged.stage
         (let rng = Random.State.make [| 43 |] in
          fun () ->
            let tas = Multicore.Mc_tas.of_tournament ~n:4 in
            ignore (Multicore.Mc_tas.apply tas rng ~slot:0)));
  ]

let run_bechamel () =
  Fmt.pr "@.== Bechamel microbenches (ns per run, OLS on monotonic clock) ==@.";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
  in
  let grouped = Test.make_grouped ~name:"rtas" ~fmt:"%s/%s" bench_tests in
  let raw = Benchmark.all cfg instances grouped in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw) instances
  in
  let merged = Analyze.merge ols instances results in
  Hashtbl.iter
    (fun measure tbl ->
      if measure = Measure.label Instance.monotonic_clock then begin
        let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) tbl [] in
        List.iter
          (fun (name, ols) ->
            match Analyze.OLS.estimates ols with
            | Some [ est ] -> Fmt.pr "  %-42s %14.1f ns@." name est
            | _ -> Fmt.pr "  %-42s %14s@." name "n/a")
          (List.sort compare rows)
      end)
    merged

(* {1 BENCH_results.json}

   Each section is built as an {!Obs.Json.t} where it is measured; the
   schema is documented in EXPERIMENTS.md and gated by bench/gate.ml. *)

module J = Obs.Json

let per_sec n wall = float_of_int n /. Float.max wall 1e-9
let ratio a b = a /. Float.max b 1e-9

(* Run [f] [n] times: the last result (every run computes the same one)
   and the fastest wall clock. Min-of-N is the noise-robust estimator
   on a contended host; both sides of a same-run ratio get the same N. *)
let best_of n f =
  let last, best = Engine.timed f in
  let last = ref last and best = ref best in
  for _ = 2 to n do
    let r, w = Engine.timed f in
    last := r;
    best := Float.min !best w
  done;
  (!last, !best)

(* [best_of] for the two sides of a same-run ratio, run alternately so
   drift in the host's speed lands on both sides alike. *)
let best_of_pair n f g =
  let rf = ref (Engine.timed f) and rg = ref (Engine.timed g) in
  for _ = 2 to n do
    let r, w = Engine.timed f in
    rf := (r, Float.min (snd !rf) w);
    let r, w = Engine.timed g in
    rg := (r, Float.min (snd !rg) w)
  done;
  (!rf, !rg)

(* Print a section of the results as it is recorded. *)
let show name v = Fmt.pr "%s: %s@?" name (J.to_string v)

(* The determinism contracts, checked on every perf run. *)
let require ok msg =
  if not ok then begin
    Fmt.epr "perf: %s@." msg;
    exit 1
  end

(* A chunk size from one timed calibration trial on a fresh arena, so a
   chunk costs ~10ms however fast the workload is. *)
let calibrate ~domains ~trials make trial =
  let arena = make () in
  Engine.calibrated_chunk ~domains ~trials (fun () ->
      ignore (trial arena ~seed:(Sim.Rng.derive Experiments.base_seed ~stream:0)))

let total_minor_words (workers : Engine.worker_stats array) =
  Array.fold_left (fun a w -> a +. w.Engine.w_minor_words) 0.0 workers

let workers_json (workers : Engine.worker_stats array) =
  J.Arr
    (Array.to_list
       (Array.map
          (fun (w : Engine.worker_stats) ->
            J.Obj
              [
                ("worker", J.int w.w_worker);
                ("trials", J.int w.w_trials);
                ("chunks", J.int w.w_chunks);
                ("minor_words", J.float "%.0f" w.w_minor_words);
                ("promoted_words", J.float "%.0f" w.w_promoted_words);
                ("major_words", J.float "%.0f" w.w_major_words);
                ("minor_collections", J.int w.w_minor_collections);
                ("major_collections", J.int w.w_major_collections);
              ])
          workers))

let write_json ~path ~domains ~domains_requested ~scale ~kernel ~experiments
    sections =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc
        (J.to_string
           (J.Obj
              ([
                 ("schema_version", J.int 7);
                 ("domains", J.int domains);
                 ("domains_requested", J.int domains_requested);
                 ( "recommended_domains",
                   J.int (Domain.recommended_domain_count ()) );
                 ("experiments_scale", J.float "%.4f" scale);
                 ("kernel", J.Str kernel);
                 ( "experiments",
                   J.Arr
                     (List.map
                        (fun (id, wall_s) ->
                          J.Obj
                            [ ("id", J.Str id); ("wall_s", J.float "%.6f" wall_s) ])
                        experiments) );
               ]
              @ sections))));
  Fmt.pr "@.wrote %s@." path

(* {1 The perf sweep: wall-clock speedup of the parallel trial engine} *)

let resolve_bench_domains ~exact requested =
  let recommended = Domain.recommended_domain_count () in
  if exact || requested <= recommended then requested
  else begin
    Fmt.epr
      "perf: clamping --domains %d to the recommended %d (results are \
       identical either way; pass --exact-domains to overcommit anyway)@."
      requested recommended;
    recommended
  end

let run_perf ~kernel ~domains_requested ~exact ~trials ~scale ~out () =
  let domains = resolve_bench_domains ~exact domains_requested in
  let kernel_name =
    match kernel with `Flat -> "flat" | `Effect -> "effect"
  in
  Fmt.pr "== Parallel trial engine: reduced E1/E2 sweep, %d trials, %s kernel ==@."
    trials kernel_name;
  (* Adaptive chunking, calibrated per kernel. Both kernels get a chunk
     because both get timed (the primary sweep on [kernel], the
     cross-kernel comparison on the other). *)
  let flat_chunk =
    calibrate ~domains ~trials Experiments.make_flat_perf_arena
      Experiments.flat_perf_trial
  in
  let effect_chunk =
    calibrate ~domains ~trials Experiments.make_perf_arena
      Experiments.perf_trial
  in
  let sweep_of = function
    | `Flat -> fun ~domains ~trials () ->
        Experiments.flat_sweep ~domains ~chunk:flat_chunk ~trials ()
    | `Effect -> fun ~domains ~trials () ->
        Experiments.perf_sweep ~domains ~chunk:effect_chunk ~trials ()
  in
  let chunk =
    match kernel with `Flat -> flat_chunk | `Effect -> effect_chunk
  in
  let primary = sweep_of kernel in
  (* Untimed warmup pass: the first run of a sweep pays page faults and
     cold predictors (measurably ~20% on the flat kernel), which would
     skew both the domains=1 figure and the kernel comparison below. *)
  ignore (primary ~domains:1 ~trials ());
  (* [r1], whose GC counters feed the allocation rows, is the first
     timed run, the run those rows were baselined on. The parallel
     speedup's sides are then timed in alternation, min of 5 runs at
     domains=n and of 6 at domains=1 (counting [r1]'s): the same-run
     gates sit near their bounds on a contended host. At domains=1 the
     domains=n run would be the same measured code path run twice:
     reuse the domains=1 figures and report speedup exactly 1.0 (gate
     row parallel_sweep.speedup_vs_domains_1). *)
  let one () = primary ~domains:1 ~trials () in
  let r1, t0 = Engine.timed one in
  let t1, rn, tn, bit_identical =
    if domains = 1 then
      let t1 = Float.min t0 (snd (best_of 5 one)) in
      (t1, r1, t1, true)
    else
      let (_, t), (rn, tn) =
        best_of_pair 5 one (fun () -> primary ~domains ~trials ())
      in
      (Float.min t0 t, rn, tn, Experiments.sweep_results_equal r1 rn)
  in
  let parallel_sweep =
    J.Obj
      [
        ("workload", J.Str "e1e2-reduced");
        ("kernel", J.Str kernel_name);
        ("trials", J.int trials);
        ("domains", J.int domains);
        ("domains_requested", J.int domains_requested);
        ("chunk", J.int chunk);
        ("wall_s_domains_1", J.float "%.6f" t1);
        ("wall_s", J.float "%.6f" tn);
        ("trials_per_sec_domains_1", J.float "%.2f" (per_sec trials t1));
        ("trials_per_sec", J.float "%.2f" (per_sec trials tn));
        ( "speedup_vs_domains_1",
          J.float "%.4f" (if domains = 1 then 1.0 else ratio t1 tn) );
        ( "minor_words_per_trial_domains_1",
          J.float "%.1f"
            (total_minor_words r1.Experiments.sr_workers
            /. float_of_int (max trials 1)) );
        ("gc_domains_1", workers_json r1.Experiments.sr_workers);
        ("gc", workers_json rn.Experiments.sr_workers);
        (* Measured with the Probe layer compiled into the hot path but
           no sink installed: the configuration under which the
           throughput gate doubles as the probed-off overhead gate. *)
        ( "probe",
          J.Obj
            [
              ("compiled_in", J.Bool true);
              ("sink_installed", J.Bool (Obs.Probe.enabled ()));
            ] );
        ("bit_identical", J.Bool bit_identical);
      ]
  in
  show "parallel_sweep" parallel_sweep;
  require bit_identical
    "determinism violation — results differ across domains";
  (* Cross-kernel comparison: run the same trials on the other kernel
     (domains=1) and require the full per-trial outcome vectors to
     match — the bench-level flat-vs-effect differential. *)
  let other = match kernel with `Flat -> `Effect | `Effect -> `Flat in
  (* Both kernels timed in alternation, min of 5 each (the other
     kernel's first rep doubles as its warmup). *)
  let (_, tp), (ro, to_) =
    best_of_pair 5 one (fun () -> (sweep_of other) ~domains:1 ~trials ())
  in
  let outcomes_match = Experiments.sweep_results_equal r1 ro in
  let kc_flat_wall_s, kc_effect_wall_s =
    match kernel with `Flat -> (tp, to_) | `Effect -> (to_, tp)
  in
  let flat_vs_effect =
    J.Obj
      [
        ("trials", J.int trials);
        ("flat_wall_s", J.float "%.6f" kc_flat_wall_s);
        ("flat_trials_per_sec", J.float "%.2f" (per_sec trials kc_flat_wall_s));
        ("effect_wall_s", J.float "%.6f" kc_effect_wall_s);
        ( "effect_trials_per_sec",
          J.float "%.2f" (per_sec trials kc_effect_wall_s) );
        ("speedup", J.float "%.2f" (ratio kc_effect_wall_s kc_flat_wall_s));
        ("outcomes_match", J.Bool outcomes_match);
      ]
  in
  show "flat_vs_effect" flat_vs_effect;
  require outcomes_match
    "kernel divergence — flat and effect outcome vectors differ";
  (* PoisonPill cross-kernel bench: the successor election's flat
     compilation against its effect oracle (min of 3, domains=1, first
     rep as warmup, full per-trial outcome equality). *)
  let poison_flat_chunk =
    calibrate ~domains:1 ~trials Experiments.make_poison_flat_arena
      Experiments.poison_flat_trial
  in
  let poison_effect_chunk =
    calibrate ~domains:1 ~trials Experiments.make_poison_effect_arena
      Experiments.poison_effect_trial
  in
  let pf_r, pf_wall =
    best_of 3 (fun () ->
        Experiments.poison_flat_sweep ~domains:1 ~chunk:poison_flat_chunk
          ~trials ())
  in
  let pe_r, pe_wall =
    best_of 3 (fun () ->
        Experiments.poison_effect_sweep ~domains:1 ~chunk:poison_effect_chunk
          ~trials ())
  in
  let poison_match = Experiments.poison_results_equal pf_r pe_r in
  let poison_words =
    total_minor_words pf_r.Experiments.po_workers
    /. float_of_int (max trials 1)
  in
  let poison_flat =
    J.Obj
      [
        ("trials", J.int trials);
        ("flat_wall_s", J.float "%.6f" pf_wall);
        ("trials_per_sec", J.float "%.2f" (per_sec trials pf_wall));
        ("effect_wall_s", J.float "%.6f" pe_wall);
        ("effect_trials_per_sec", J.float "%.2f" (per_sec trials pe_wall));
        ("speedup", J.float "%.2f" (ratio pe_wall pf_wall));
        ("minor_words_per_trial", J.float "%.1f" poison_words);
        ("outcomes_match", J.Bool poison_match);
      ]
  in
  show "poison_flat" poison_flat;
  require poison_match
    "kernel divergence — poison flat and effect outcome vectors differ";
  (* Multi-domain scaling sweep, always on the flat kernel: one timed
     point per domain count from 1 to the resolved pool width. *)
  Fmt.pr "@.== Flat-kernel scaling sweep (1..%d domains) ==@." domains;
  let scaling =
    List.init domains (fun i ->
        let d = i + 1 in
        let r, w =
          Engine.timed (fun () ->
              Experiments.flat_sweep ~domains:d ~chunk:flat_chunk ~trials ())
        in
        let workers = r.Experiments.sr_workers in
        let collections f =
          Array.fold_left (fun a w -> a + f w) 0 workers
        in
        J.Obj
          [
            ("domains", J.int d);
            ("trials", J.int trials);
            ("wall_s", J.float "%.6f" w);
            ("trials_per_sec", J.float "%.2f" (per_sec trials w));
            ( "minor_words_per_trial",
              J.float "%.1f"
                (total_minor_words workers /. float_of_int (max trials 1)) );
            ( "minor_collections",
              J.int (collections (fun w -> w.Engine.w_minor_collections)) );
            ( "major_collections",
              J.int (collections (fun w -> w.Engine.w_major_collections)) );
          ])
  in
  show "scaling" (J.Arr scaling);
  (* Time every experiment family (at --scale, so the whole trajectory
     stays regression-guarded without hour-long runs). *)
  Experiments.domains := domains;
  Experiments.scale := scale;
  Fmt.pr "@.== Experiment families (scale %.2f) ==@." scale;
  let experiments =
    List.map
      (fun (id, _, run) ->
        let (), wall = Engine.timed run in
        (id, wall))
      Experiments.all
  in
  Fmt.pr "@.== Family wall-clock (scale %.2f) ==@." scale;
  List.iter (fun (id, wall) -> Fmt.pr "  %-5s %8.3fs@." id wall) experiments;
  (* The lock-service workload, run twice with one seed: the wall clock
     feeds the perf gate's clients_per_sec floor and the JSON equality
     of the two runs feeds its exact reproducibility check. *)
  let svc_cfg =
    {
      (Service.Driver.default ~algorithm:"log*") with
      Service.Driver.clients = 2000;
      kernel;
      seed = 42L;
    }
  in
  let svc_r1, svc_wall = Engine.timed (fun () -> Service.Driver.run svc_cfg) in
  let svc_r2 = Service.Driver.run svc_cfg in
  let svc_reproducible =
    Service.Report.to_json svc_r1 = Service.Report.to_json svc_r2
  in
  Fmt.pr "@.== Lock service (sim, %s kernel, %d clients) ==@." kernel_name
    svc_cfg.Service.Driver.clients;
  let service =
    let c = svc_r1.Service.Report.counts in
    J.Obj
      [
        ("algorithm", J.Str "log*");
        ("kernel", J.Str kernel_name);
        ("events", J.Str "wheel");
        ("clients", J.int svc_cfg.Service.Driver.clients);
        ("wall_s", J.float "%.6f" svc_wall);
        ("clients_per_sec", J.float "%.2f" (per_sec c.completed svc_wall));
        ("completed", J.int c.completed);
        ( "throughput_per_ktick",
          J.float "%.6f" svc_r1.Service.Report.throughput );
        ( "p99_ticks",
          match svc_r1.Service.Report.latency with
          | Some l -> J.float "%.3f" l.Service.Report.l_p99
          | None -> J.Null );
        ("reproducible", J.Bool svc_reproducible);
      ]
  in
  show "service" service;
  require svc_reproducible "service determinism violation — reruns differ";
  (* Wheel vs heap on the event-dominated workload: sustained overload
     (Poisson 20/tick onto 4 keys, queues capped at 16, backoff capped
     at 256 ticks so clients keep bouncing) with client-side retry, so
     nearly every event is a cheap backoff timer and the event engine
     is the bottleneck — elections are five orders of magnitude rarer
     than timer events (~44 against ~22M). min-of-2 per engine; the
     reports must match byte for byte (the engines share one total
     event order). *)
  let overload clients =
    {
      (Service.Driver.default ~algorithm:"tournament") with
      Service.Driver.clients;
      keys = 4;
      zipf_s = 0.0;
      arrival = Service.Arrival.Poisson { rate = 20.0 };
      backoff = Service.Backoff.Exp { base = 8.0; cap = 256.0 };
      contenders = 2;
      max_waiters = 16;
      hold = 2000.0;
      on_shed = `Retry;
      kernel = `Flat;
      latency = `Hist;
      seed = 42L;
    }
  in
  let timed_min2 cfg = best_of 2 (fun () -> Service.Driver.run cfg) in
  let gate_cfg = overload 100_000 in
  Fmt.pr "@.== Event engine: wheel vs heap (%d clients, overload + retry) ==@."
    gate_cfg.Service.Driver.clients;
  let wh_r, wh_wall = timed_min2 gate_cfg in
  let hp_r, hp_wall =
    timed_min2 { gate_cfg with Service.Driver.events = `Heap }
  in
  let wh_match =
    Service.Report.to_json wh_r = Service.Report.to_json hp_r
  in
  let wheel_vs_heap =
    J.Obj
      [
        ("clients", J.int gate_cfg.Service.Driver.clients);
        ("wheel_wall_s", J.float "%.6f" wh_wall);
        ("heap_wall_s", J.float "%.6f" hp_wall);
        ("speedup", J.float "%.4f" (ratio hp_wall wh_wall));
        ("reports_match", J.Bool wh_match);
      ]
  in
  show "wheel_vs_heap" wheel_vs_heap;
  require wh_match "event-engine divergence — wheel and heap reports differ";
  (* The same workload with a telemetry sink attached (1000-tick
     windows). The wheel run above is the telemetry-off baseline: the
     sink must not perturb the report byte for byte, every windowed
     counter must sum to its report total, and the on/off wall-clock
     ratio is the overhead the gate row telemetry.overhead caps. Both
     sides of that ratio are min of 5, timed here in alternation: the
     wheel figure above is min of 2, matched to the heap side of its own
     ratio. *)
  let tel_window = 1000.0 in
  let tel_once () =
    let s = Service.Telemetry.sink ~window:tel_window () in
    let r = Service.Driver.run ~telemetry:s gate_cfg in
    (r, s)
  in
  let (_, off_wall), ((tel_r, tel_s), tel_wall) =
    best_of_pair 5 (fun () -> Service.Driver.run gate_cfg) tel_once
  in
  let tel_snap = tel_s.Service.Telemetry.snapshot in
  let tel_unperturbed =
    Service.Report.to_json tel_r = Service.Report.to_json wh_r
  in
  let tel_sums_match =
    Service.Telemetry.counter_mismatches tel_snap tel_r = []
  in
  let telemetry =
    J.Obj
      [
        ("clients", J.int gate_cfg.Service.Driver.clients);
        ("window_ticks", J.float "%g" tel_window);
        ("windows", J.int (Obs.Timeseries.windows tel_snap));
        ("off_wall_s", J.float "%.6f" off_wall);
        ("on_wall_s", J.float "%.6f" tel_wall);
        ("overhead", J.float "%.4f" (ratio tel_wall off_wall));
        ("report_unperturbed", J.Bool tel_unperturbed);
        ("sums_match_totals", J.Bool tel_sums_match);
      ]
  in
  show "telemetry" telemetry;
  require tel_unperturbed "telemetry sink perturbed the service report";
  require tel_sums_match
    "windowed counter sums diverge from the report totals";
  (* Service scaling: clients/s as the population grows 10k -> 1M under
     moderate overload (most arrivals shed terminally, ~17% complete),
     wheel engine, bounded-memory histogram latency. *)
  let scaling_cfg clients =
    {
      (Service.Driver.default ~algorithm:"tournament") with
      Service.Driver.clients;
      keys = 256;
      zipf_s = 0.5;
      arrival = Service.Arrival.Poisson { rate = 20.0 };
      backoff = Service.Backoff.Exp { base = 8.0; cap = 512.0 };
      contenders = 2;
      max_waiters = 32;
      hold = 50.0;
      kernel = `Flat;
      latency = `Hist;
      seed = 42L;
    }
  in
  Fmt.pr "@.== Service scaling (wheel engine, histogram latency) ==@.";
  let service_scaling =
    List.map
      (fun clients ->
        let r, w =
          Engine.timed (fun () -> Service.Driver.run (scaling_cfg clients))
        in
        let p999 =
          match r.Service.Report.latency with
          | Some l -> l.Service.Report.l_p999
          | None -> 0.0
        in
        J.Obj
          [
            ("clients", J.int clients);
            ("wall_s", J.float "%.6f" w);
            ("clients_per_sec", J.float "%.2f" (per_sec clients w));
            ( "completed",
              J.int r.Service.Report.counts.Service.Report.completed );
            ("p999_ticks", J.float "%.3f" p999);
          ])
      [ 10_000; 100_000; 1_000_000 ]
  in
  show "service_scaling" (J.Arr service_scaling);
  write_json ~path:out ~domains ~domains_requested ~scale ~kernel:kernel_name
    ~experiments
    [
      ("parallel_sweep", parallel_sweep);
      ("flat_vs_effect", flat_vs_effect);
      ("poison_flat", poison_flat);
      ("scaling", J.Arr scaling);
      ("service", service);
      ("wheel_vs_heap", wheel_vs_heap);
      ("telemetry", telemetry);
      ("service_scaling", J.Arr service_scaling);
    ]

let run_tables ~domains ~out ids =
  Experiments.domains := domains;
  let chosen =
    match ids with
    | [] -> Experiments.all
    | ids ->
        List.map
          (fun id ->
            match
              List.find_opt (fun (i, _, _) -> i = id) Experiments.all
            with
            | Some e -> e
            | None ->
                Fmt.epr "unknown experiment %S; try `list`@." id;
                exit 1)
          ids
  in
  let timed =
    List.map
      (fun (id, _, run) ->
        let (), wall = Engine.timed run in
        (id, wall))
      chosen
  in
  write_json ~path:out ~domains ~domains_requested:domains ~scale:1.0
    ~kernel:"effect" ~experiments:timed
    (List.map
       (fun section -> (section, J.Null))
       [
         "parallel_sweep";
         "flat_vs_effect";
         "poison_flat";
         "scaling";
         "wheel_vs_heap";
         "telemetry";
         "service_scaling";
       ])

let usage () =
  Fmt.pr
    "usage: main.exe [--domains N] [--out FILE] [ids...]@.\
    \       main.exe perf [--domains N] [--exact-domains] [--trials T]@.\
    \                     [--scale S] [--kernel flat|effect] [--out FILE]@.\
    \       main.exe gate CURRENT.json BASELINE.json@.\
    \       main.exe bechamel | list@."

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let domains = ref (Engine.default_domains ()) in
  let out = ref "BENCH_results.json" in
  let trials = ref 400 in
  let scale = ref 0.05 in
  let exact = ref false in
  let kernel = ref `Flat in
  let rec parse acc = function
    | [] -> List.rev acc
    | "--domains" :: v :: rest -> (
        match int_of_string_opt v with
        | Some d when d >= 1 ->
            domains := d;
            parse acc rest
        | _ ->
            Fmt.epr "--domains expects a positive integer@.";
            exit 1)
    | "--exact-domains" :: rest ->
        exact := true;
        parse acc rest
    | "--kernel" :: v :: rest -> (
        match v with
        | "flat" ->
            kernel := `Flat;
            parse acc rest
        | "effect" ->
            kernel := `Effect;
            parse acc rest
        | _ ->
            Fmt.epr "--kernel expects flat or effect@.";
            exit 1)
    | "--out" :: v :: rest ->
        out := v;
        parse acc rest
    | "--trials" :: v :: rest -> (
        match int_of_string_opt v with
        | Some t when t >= 1 ->
            trials := t;
            parse acc rest
        | _ ->
            Fmt.epr "--trials expects a positive integer@.";
            exit 1)
    | "--scale" :: v :: rest -> (
        match float_of_string_opt v with
        | Some s when s > 0.0 && s <= 1.0 ->
            scale := s;
            parse acc rest
        | _ ->
            Fmt.epr "--scale expects a float in (0, 1]@.";
            exit 1)
    | ("--help" | "-h") :: _ ->
        usage ();
        exit 0
    | a :: rest -> parse (a :: acc) rest
  in
  match parse [] args with
  | [ "perf" ] ->
      run_perf ~kernel:!kernel ~domains_requested:!domains ~exact:!exact
        ~trials:!trials ~scale:!scale ~out:!out ()
  | [ "bechamel" ] -> run_bechamel ()
  | [ "gate"; current; baseline ] -> exit (Gate.run current baseline)
  | "gate" :: _ ->
      usage ();
      exit 2
  | [ "list" ] ->
      List.iter (fun (id, doc, _) -> Fmt.pr "%-5s %s@." id doc) Experiments.all;
      Fmt.pr "%-5s %s@." "bechamel" "Bechamel microbenches";
      Fmt.pr "%-5s %s@." "perf" "Parallel engine speedup sweep (writes JSON)"
  | [] ->
      run_tables ~domains:!domains ~out:!out [];
      run_bechamel ()
  | ids when List.mem "bechamel" ids ->
      let tables = List.filter (fun id -> id <> "bechamel") ids in
      if tables <> [] then run_tables ~domains:!domains ~out:!out tables;
      run_bechamel ()
  | ids -> run_tables ~domains:!domains ~out:!out ids
