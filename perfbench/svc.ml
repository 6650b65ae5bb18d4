(* The lock-service workload svc-events, an open-loop Driver run of
   [tournament] on the flat kernel and the wheel engine: the retry
   storm. 25k clients on 4 uniform keys, Poisson 20, exp:8:256 backoff,
   2 contenders, 16 waiters, hold 2000, retry on shed, histogram
   latency, with a 1000-tick telemetry sink: ~5.4M timer events against
   ~44 rounds, so Wheel, Backoff and Obs.Timeseries do the work. It is
   the bench/ wheel_vs_heap storm at a quarter of its 100k clients, so
   one run takes about half a second and a run of the benchmark times
   many of them (see Main.fastest_s).

   The seed of the run is the benchmark's --seed. *)

let config ~seed =
  {
    (Service.Driver.default ~algorithm:"tournament") with
    Service.Driver.clients = 25_000;
    keys = 4;
    zipf_s = 0.0;
    arrival = Service.Arrival.Poisson { rate = 20.0 };
    backoff = Service.Backoff.Exp { base = 8.0; cap = 256.0 };
    contenders = 2;
    max_waiters = 16;
    hold = 2000.0;
    on_shed = `Retry;
    kernel = `Flat;
    events = `Wheel;
    latency = `Hist;
    seed = Int64.of_int seed;
  }

let telemetry_window = 1000.0

(* The structures Driver.run builds for this config, through their
   public constructors: one flat machine per key, the Zipf alias table,
   the wheel's event pool, the latency histogram, the arrival process
   and the telemetry recorder. Driver.run builds its own
   copies inside the timed run; building them here gives set-up time a
   measure, so work moved into these constructors shows. *)
let setup cfg =
  let open Service in
  let prog =
    match Rtas.Registry.find cfg.Driver.algorithm with
    | Some { Rtas.Registry.make_flat = Some mk; _ } -> mk ~n:cfg.Driver.contenders
    | _ -> failwith "svc: algorithm has no flat compilation"
  in
  Driver.validate cfg;
  let machines =
    Array.init cfg.Driver.keys (fun _ ->
        Flatsim.Machine.create ~procs:cfg.Driver.contenders prog)
  in
  let zipf = Zipf.create ~n:cfg.Driver.keys ~s:cfg.Driver.zipf_s in
  let wheel = Wheel.create ~capacity:(cfg.Driver.clients + 256) () in
  let histo = Histo.create (if cfg.Driver.clients > 65_536 then `Log else `Exact) in
  let arrival =
    Arrival.create cfg.Driver.arrival (Sim.Rng.create cfg.Driver.seed)
  in
  let recorder = Telemetry.recorder ~window:telemetry_window () in
  ignore (Sys.opaque_identity (machines, zipf, wheel, histo, arrival, recorder))

type pass = {
  report : Service.Report.t;
  sink : Service.Telemetry.sink;
}

let run_pass cfg =
  let sink = Service.Telemetry.sink ~window:telemetry_window () in
  let report =
    Span.within "service.Driver.run" (fun () ->
        Service.Driver.run ~telemetry:sink cfg)
  in
  { report; sink }

(* The checks of one pass: every client ends in exactly one terminal
   bucket (a shed is terminal only under `Drop), nothing livelocked, no
   stale win, and every windowed telemetry counter sums to its report
   total. *)
let check cfg p =
  Span.within "check.svc" (fun () ->
      let open Service.Report in
      let c = p.report.counts in
      let c =
        if Check.planted "svc-balance" then { c with completed = c.completed + 1 }
        else c
      in
      let c =
        if Check.planted "svc-stale" then { c with stale_wins = 1 } else c
      in
      Check.require "svc balanced"
        (balanced ~shed_terminal:(cfg.Service.Driver.on_shed = `Drop) c)
        (Printf.sprintf
           "completed %d + deadline %d + crashed %d + shed %d <> clients %d"
           c.completed c.deadline_exceeded c.crashed_clients c.shed c.clients);
      Check.require "svc not livelocked" (not p.report.livelocked) "livelocked";
      Check.require "svc no stale wins" (c.stale_wins = 0)
        (Printf.sprintf "%d stale wins" c.stale_wins);
      Check.require "svc completions" (p.report.latency <> None)
        "no client completed";
      let r =
        if Check.planted "telemetry" then
          { p.report with counts = { c with rounds = c.rounds + 1 } }
        else p.report
      in
      let bad = Service.Telemetry.counter_mismatches p.sink.snapshot r in
      Check.require "telemetry sums" (bad = [])
        (String.concat ", "
           (List.map
              (fun (name, sum, total) ->
                Printf.sprintf "%s: windows %d, report %d" name sum total)
              bad)))

let latency p =
  match p.report.Service.Report.latency with
  | Some l -> l
  | None -> assert false (* excluded by [check] *)

(* The simulated metrics of a pass, all functions of the seed alone.
   There is no tail latency: the run completes 44 clients, too few
   samples for one. *)
let sim_metrics cfg p =
  let r = p.report in
  let c = r.Service.Report.counts in
  let l = latency p in
  let clients = float_of_int c.clients in
  let failed =
    c.deadline_exceeded + c.crashed_clients
    + if cfg.Service.Driver.on_shed = `Drop then c.shed else 0
  in
  [
    ("lat_p50_ticks", l.Service.Report.l_p50);
    ("lat_samples", float_of_int l.Service.Report.l_n);
    ("completions_per_ktick", r.Service.Report.throughput);
    ("fail_ratio", float_of_int failed /. clients);
    ("ok_ratio", float_of_int c.completed /. clients);
  ]
