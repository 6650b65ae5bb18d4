(* Rendering of Probe collector snapshots: the per-phase step/RMR table
   printed by [rtas_cli trace]/[rtas_cli profile], and a JSON form for
   scripting (validated by `make trace-smoke`). Lives here rather than
   in lib/obs because the distribution summaries come from {!Sim.Stats},
   which obs (below sim in the dependency order) cannot see. *)

let pct x total =
  if total = 0 then 0.0 else 100.0 *. float_of_int x /. float_of_int total

(* A phase's steps-per-span summary (mean, stddev, median, p95); zeros
   when no span closed. *)
let step_summary (ps : Obs.Collector.phase_snapshot) =
  if Array.length ps.ps_step_samples = 0 then (0.0, 0.0, 0.0, 0.0)
  else
    let s = Sim.Stats.summarize_sorted ps.ps_step_samples in
    Sim.Stats.(s.mean, s.stddev, s.median, s.p95)

let pp_profile ppf (sn : Obs.Collector.snapshot) =
  Fmt.pf ppf "%-16s %9s %11s %6s %11s %6s %8s %8s %9s@." "phase" "calls"
    "steps" "stp%" "rmrs" "rmr%" "steps/c" "p95" "unclosed";
  List.iter
    (fun (ps : Obs.Collector.phase_snapshot) ->
      let mean, _, _, p95 = step_summary ps in
      Fmt.pf ppf "%-16s %9d %11d %5.1f%% %11d %5.1f%% %8.2f %8.1f %9d@."
        ps.ps_phase ps.ps_calls ps.ps_steps
        (pct ps.ps_steps sn.Obs.Collector.sn_steps)
        ps.ps_rmrs
        (pct ps.ps_rmrs sn.Obs.Collector.sn_rmrs)
        mean p95 ps.ps_unclosed)
    sn.Obs.Collector.sn_phases;
  Fmt.pf ppf "%-16s %9s %11d %6s %11d@." "total" "" sn.Obs.Collector.sn_steps
    "" sn.Obs.Collector.sn_rmrs;
  Fmt.pf ppf "flips=%d finishes=%d crashes=%d span_errors=%d@."
    sn.Obs.Collector.sn_flips sn.Obs.Collector.sn_finishes
    sn.Obs.Collector.sn_crashes sn.Obs.Collector.sn_span_errors;
  let counters = sn.Obs.Collector.sn_metrics.Obs.Metrics.counters in
  if counters <> [] then
    List.iter (fun (name, v) -> Fmt.pf ppf "%s = %d@." name v) counters

(* {1 JSON} *)

let phase_to_json (ps : Obs.Collector.phase_snapshot) =
  let module J = Obs.Json in
  let mean, stddev, median, p95 = step_summary ps in
  let rmr_mean =
    if Array.length ps.ps_rmr_samples = 0 then 0.0
    else Sim.Stats.mean_array ps.ps_rmr_samples
  in
  let stat = J.float "%.6g" in
  J.Obj
    [
      ("phase", J.Str ps.ps_phase);
      ("calls", J.int ps.ps_calls);
      ("unclosed", J.int ps.ps_unclosed);
      ("steps", J.int ps.ps_steps);
      ("rmrs", J.int ps.ps_rmrs);
      ("writes", J.int ps.ps_writes);
      ("invalidated", J.int ps.ps_invalidations);
      ( "steps_per_call",
        J.Obj
          [
            ("mean", stat mean);
            ("stddev", stat stddev);
            ("median", stat median);
            ("p95", stat p95);
          ] );
      ("rmrs_per_call_mean", stat rmr_mean);
    ]

let snapshot_to_json (sn : Obs.Collector.snapshot) =
  let module J = Obs.Json in
  J.Obj
    [
      ("phases", J.Arr (List.map phase_to_json sn.Obs.Collector.sn_phases));
      ( "totals",
        J.Obj
          [
            ("steps", J.int sn.Obs.Collector.sn_steps);
            ("rmrs", J.int sn.Obs.Collector.sn_rmrs);
            ("flips", J.int sn.Obs.Collector.sn_flips);
            ("crashes", J.int sn.Obs.Collector.sn_crashes);
            ("finishes", J.int sn.Obs.Collector.sn_finishes);
            ("span_errors", J.int sn.Obs.Collector.sn_span_errors);
          ] );
      ( "counters",
        J.Obj
          (List.map
             (fun (name, v) -> (name, J.int v))
             sn.Obs.Collector.sn_metrics.Obs.Metrics.counters) );
    ]
