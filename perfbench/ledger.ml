(* The per-layer cost ledger: microbenchmarks that time one public
   function of one layer at a time, in this process, min-of-N. It runs
   only in the traced run (--trace 1), never in the timed end-to-end
   runs. Each value is the cost of one call, including the benchmark's
   own loop and closure call (a few ns). *)

(* ns per call of [f]: the loop is doubled until one pass lasts
   [target] seconds, then timed [reps] times; the minimum is kept. *)
let ns_per ?(target = 0.004) ?(reps = 5) f =
  f ();
  let pass iters =
    let t0 = Util.now () in
    for _ = 1 to iters do
      f ()
    done;
    Util.now () -. t0
  in
  let rec calibrate iters =
    if pass iters >= target || iters >= 1 lsl 30 then iters
    else calibrate (2 * iters)
  in
  let iters = calibrate 1 in
  let best = ref infinity in
  for _ = 1 to reps do
    best := Float.min !best (pass iters)
  done;
  !best /. float_of_int iters *. 1e9

(* A ring of trial seeds: every call of a timed election runs the next
   one, so the loop does not time one schedule over and over. *)
let seeds = Array.init 64 (fun i -> Sim.Rng.derive 0x5eedL ~stream:i)

let cycling f =
  let i = ref 0 in
  fun () ->
    let s = Array.unsafe_get seeds (!i land 63) in
    incr i;
    f s

let minor_words_per calls f =
  let w0 = Gc.minor_words () in
  for _ = 1 to calls do
    f ()
  done;
  (Gc.minor_words () -. w0) /. float_of_int calls

let timed name f = Span.within ("ledger." ^ name) f

(* Flat kernel: one election per (entry, k), the step and reset unit
   costs on tournament at k = 32, the 2-process duel and one GroupElect
   round. *)
let flat_costs () =
  let open Flatsim in
  let out = ref [] in
  let add name v = out := (name, v) :: !out in
  let all_elections = ref [] in
  Array.iter
    (fun name ->
      let mk = Option.get (Elect.entry name).Rtas.Registry.make_flat in
      let m = Machine.create ~procs:Elect.n (mk ~n:Elect.n) in
      Array.iter
        (fun k ->
          let f = cycling (fun seed -> ignore (Elect.flat_trial m ~k ~seed)) in
          all_elections := f :: !all_elections;
          let metric = Printf.sprintf "flatsim.elect_ns.%s.k%d" (Util.slug name) k in
          add metric (timed metric (fun () -> ns_per f)))
        Elect.ks)
    Elect.flat_entries;
  let words =
    List.fold_left (fun acc f -> acc +. minor_words_per 256 f) 0.0 !all_elections
    /. float_of_int (List.length !all_elections)
  in
  add "flatsim.minor_words_per_elect" words;
  let tm = Machine.create ~procs:32 (Programs.tournament ~n:32) in
  let reset_ns =
    timed "flatsim.reset_ns" (fun () ->
        ns_per (cycling (fun seed -> Machine.reset ~seed ~procs:32 tm)))
  in
  add "flatsim.reset_ns" reset_ns;
  let run_ns =
    timed "flatsim.step_ns" (fun () ->
        ns_per
          (cycling (fun seed ->
               Machine.reset ~seed ~procs:32 tm;
               Machine.run_rr tm)))
  in
  let steps =
    Array.fold_left
      (fun acc seed ->
        Machine.reset ~seed ~procs:32 tm;
        Machine.run_rr tm;
        acc + Machine.time tm)
      0 seeds
  in
  add "flatsim.step_ns"
    ((run_ns -. reset_ns) /. (float_of_int steps /. float_of_int (Array.length seeds)));
  let duel = Machine.create ~procs:2 Programs.tas2 in
  add "flatsim.tas2_ns"
    (timed "flatsim.tas2_ns" (fun () ->
         ns_per
           (cycling (fun seed ->
                Machine.reset ~seed duel;
                Machine.run_random duel ~seed:(Sim.Rng.derive seed ~stream:1)))));
  let ge = Machine.create ~procs:32 (Programs.ge_round ~n:32) in
  add "flatsim.ge_round_ns"
    (timed "flatsim.ge_round_ns" (fun () ->
         ns_per
           (cycling (fun seed ->
                Machine.reset ~seed ge;
                Machine.run_random ge ~seed:(Sim.Rng.derive seed ~stream:1)))));
  List.rev !out

(* Effect kernel: one election per (entry, k) on Sim.Sched, the step
   unit cost, and one GroupElect round of each kind at k = 32. *)
let sim_costs () =
  let out = ref [] in
  let add name v = out := (name, v) :: !out in
  let a = Elect.setup ~seed:0 in
  let all_elections = ref [] in
  Array.iter
    (fun ea ->
      Array.iteri
        (fun ki k ->
          let f = cycling (fun seed -> ignore (Elect.effect_trial ea ~ki ~seed)) in
          all_elections := f :: !all_elections;
          let metric =
            Printf.sprintf "sim.elect_ns.%s.k%d" (Util.slug ea.Elect.e_name) k
          in
          add metric (timed metric (fun () -> ns_per f)))
        Elect.ks)
    a.Elect.eff;
  let words =
    List.fold_left (fun acc f -> acc +. minor_words_per 16 f) 0.0 !all_elections
    /. float_of_int (List.length !all_elections)
  in
  add "sim.minor_words_per_elect" words;
  (* Step cost: a full tournament election at k = 32 minus its reset. *)
  let ea = a.Elect.eff.(Elect.entry_id "tournament") and ki = 3 in
  let sched = ea.Elect.scheds.(ki) in
  let reset seed =
    Sim.Memory.reset ea.Elect.mem;
    Sim.Sched.reset ~seed sched ea.Elect.progs.(ki)
  in
  let reset_ns = ns_per (cycling reset) in
  let run_ns =
    timed "sim.step_ns" (fun () ->
        ns_per (cycling (fun seed -> ignore (Elect.effect_trial ea ~ki ~seed))))
  in
  let steps =
    Array.fold_left
      (fun acc seed ->
        ignore (Elect.effect_trial ea ~ki ~seed);
        acc + Sim.Sched.time sched)
      0 seeds
  in
  add "sim.step_ns"
    ((run_ns -. reset_ns) /. (float_of_int steps /. float_of_int (Array.length seeds)));
  let round name ge =
    let mem = Sim.Memory.create () in
    let ge = ge mem in
    let progs =
      Array.init 32 (fun _ ctx -> if ge.Groupelect.Ge.elect ctx then 1 else 0)
    in
    let sched = Sim.Sched.create progs in
    let metric = "groupelect.round_ns." ^ name in
    add metric
      (timed metric (fun () ->
           ns_per
             (cycling (fun seed ->
                  Sim.Memory.reset mem;
                  Sim.Sched.reset ~seed sched progs;
                  Sim.Sched.run sched
                    (Sim.Adversary.random_oblivious
                       ~seed:(Sim.Rng.derive seed ~stream:1))))))
  in
  round "logstar" (fun mem -> Groupelect.Ge_logstar.create mem ~n:32);
  let p = 1.0 /. sqrt 32.0 in
  round "sift" (fun mem -> Groupelect.Ge_sift.create mem ~write_prob:p);
  let pp, size = (Groupelect.Ge_poison.schedule ~n:32).(0) in
  round "poison" (fun mem -> Groupelect.Ge_poison.create mem ~size ~write_prob:pp);
  List.rev !out

let atomic_costs () =
  Array.to_list Elect.atomic_entries
  |> List.concat_map (fun name ->
         let mk = Option.get (Elect.entry name).Rtas.Registry.make_mc in
         let rng = Random.State.make [| 17 |] in
         Array.to_list Elect.ks
         |> List.map (fun k ->
                let metric =
                  Printf.sprintf "atomic.elect_ns.%s.k%d" (Util.slug name) k
                in
                ( metric,
                  timed metric (fun () ->
                      ns_per (fun () -> ignore (Elect.atomic_trial mk rng ~k)))
                )))

(* Per-trial overhead of the trial engine: an empty trial through
   Engine.run_local on one domain. *)
let engine_cost () =
  let trials = 100_000 in
  let ns =
    timed "engine.trial_overhead_ns" (fun () ->
        ns_per ~reps:5 (fun () ->
            ignore
              (Engine.run_local ~domains:1 ~trials ~seed:1L
                 ~local:(fun () -> ())
                 (fun () ~trial:_ ~seed:_ -> ()))))
  in
  [ ("engine.trial_overhead_ns", ns /. float_of_int trials) ]

(* Resettable claim + release over a flat tournament machine per key,
   with the per-key arena lookup the driver makes in [fresh]. *)
let keys = 4096

let arenas : (int, Flatsim.Machine.t) Hashtbl.t = Hashtbl.create keys

module Lock = Service.Resettable.Make (struct
  type instance = Flatsim.Machine.t

  let fresh ~key ~round:_ =
    match Hashtbl.find_opt arenas key with
    | Some m -> m
    | None ->
        let m =
          Flatsim.Machine.create ~procs:32 (Flatsim.Programs.tournament ~n:32)
        in
        Hashtbl.add arenas key m;
        m
end)

let service_costs () =
  let open Service in
  let out = ref [] in
  let add name v = out := (name, v) :: !out in
  let locks = Array.init keys (fun key -> Lock.create ~key ~now:0.0) in
  let i = ref 0 in
  add "resettable.cycle_ns"
    (timed "resettable.cycle_ns" (fun () ->
         ns_per (fun () ->
             let l = Array.unsafe_get locks (!i land (keys - 1)) in
             incr i;
             let round = Lock.round l in
             ignore (Lock.claim l ~round ~owner:1 ~now:0.0);
             ignore (Lock.release l ~round ~owner:1 ~now:0.0))));
  (* Wheel: steady state of [live] pending events; each call pops the
     earliest and schedules one more at a pseudo-random delay. *)
  let wheel name max_delay =
    let live = 4096 in
    let w = Wheel.create ~capacity:(2 * live) () in
    let rng = Sim.Rng.create 7L in
    let delays = Array.init 4096 (fun _ -> float_of_int (1 + Sim.Rng.int rng max_delay)) in
    let seq = ref 0 in
    let sched at =
      incr seq;
      Wheel.schedule w ~at ~key:(!seq land 1023) ~kseq:!seq ~kind:1 ~a:0 ~b:0
    in
    for j = 0 to live - 1 do
      sched delays.(j)
    done;
    let metric = "wheel.event_ns." ^ name in
    add metric
      (timed metric (fun () ->
           ns_per (fun () ->
               let id = Wheel.pop w in
               let at = Array.unsafe_get w.Wheel.ev_at id in
               sched (at +. Array.unsafe_get delays (!seq land 4095)))))
  in
  wheel "short" 256;
  wheel "long" 20_000;
  let b = Backoff.Exp { base = 8.0; cap = 256.0 } in
  let j = ref 0 in
  add "backoff.delay_ns"
    (timed "backoff.delay_ns" (fun () ->
         ns_per (fun () ->
             incr j;
             ignore
               (Sys.opaque_identity
                  (Backoff.delay b ~seed:42L ~client:(!j land 0xffff)
                     ~attempt:(1 + (!j land 7)))))));
  let ts = Obs.Timeseries.create ~window:Svc.telemetry_window () in
  let c = Obs.Timeseries.counter ts "events" in
  let q = Obs.Timeseries.quantile ts Telemetry.logbucket "lag" in
  let r = ref 0 in
  add "timeseries.record_ns"
    (timed "timeseries.record_ns" (fun () ->
         ns_per (fun () ->
             incr r;
             let at = float_of_int (!r lsr 6) in
             Obs.Timeseries.bump c ~at;
             Obs.Timeseries.observe q ~at (float_of_int (!r land 255)))));
  let z = Zipf.create ~n:4 ~s:0.0 in
  let zr = Sim.Rng.create 11L in
  add "zipf.sample_ns"
    (timed "zipf.sample_ns" (fun () ->
         ns_per (fun () -> ignore (Sys.opaque_identity (Zipf.sample z zr)))));
  let arr = Arrival.create (Arrival.Poisson { rate = 20.0 }) (Sim.Rng.create 10L) in
  add "arrival.next_ns"
    (timed "arrival.next_ns" (fun () ->
         ns_per (fun () -> ignore (Sys.opaque_identity (Arrival.next arr)))));
  let h = Histo.create `Log in
  let v = ref 0 in
  add "histo.observe_ns"
    (timed "histo.observe_ns" (fun () ->
         ns_per (fun () ->
             incr v;
             Histo.observe h (float_of_int (1 + (!v land 0x3fff))))));
  List.rev !out

let run () =
  flat_costs () @ sim_costs () @ atomic_costs () @ engine_cost ()
  @ service_costs ()
