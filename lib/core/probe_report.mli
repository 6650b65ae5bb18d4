(** Rendering of Probe collector snapshots: the per-phase step/RMR
    table behind [rtas_cli trace]/[rtas_cli profile], and a JSON form
    for scripting. Distribution columns use {!Sim.Stats} on the
    snapshot's per-span samples (already sorted, so summaries skip the
    sort). *)

val pp_profile : Obs.Collector.snapshot Fmt.t
(** Per-phase table (calls, steps, RMRs, share of totals, steps/call
    mean and p95, unclosed spans), then totals and any custom
    counters. *)

val snapshot_to_json : Obs.Collector.snapshot -> Obs.Json.t
(** One JSON object: [{"phases": [...], "totals": {...},
    "counters": {...}}]. *)
