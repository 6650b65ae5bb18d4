(* Every metric the benchmark reports, with the end-to-end metric and
   workloads each per-layer metric is expected to move. BENCHMARK.json
   lists the same names and units; the benchmark's tests check that the
   two agree and that every target names a real end-to-end metric and
   workload. `main.exe --list-metrics` prints this table. *)

let workloads = [ "elect"; "svc-events" ]

type e2e = { e_name : string; e_unit : string; e_better : string }

(* Every workload reports every end-to-end metric; see README.md for
   what each means on each workload. *)
let end_to_end =
  [
    { e_name = "setup_s"; e_unit = "s"; e_better = "lower" };
    { e_name = "ops_per_s"; e_unit = "1/s"; e_better = "higher" };
    { e_name = "lat_p50_ticks"; e_unit = "ticks"; e_better = "lower" };
    { e_name = "completions_per_ktick"; e_unit = "1/ktick"; e_better = "higher" };
    { e_name = "ok_ratio"; e_unit = "ratio"; e_better = "higher" };
    { e_name = "top_heap_mb"; e_unit = "MB"; e_better = "lower" };
  ]

type layer = {
  name : string;
  unit_ : string;
  better : string;
  moves : (string * string list) list;  (* end-to-end metric, workloads *)
  why : string;
}

let ns name moves why = { name; unit_ = "ns"; better = "lower"; moves; why }

let on_elect = [ ("ops_per_s", [ "elect" ]) ]
let on_events = [ ("ops_per_s", [ "svc-events" ]) ]
let on_all = [ ("ops_per_s", workloads) ]

let per_k kernel entries f =
  Array.to_list entries
  |> List.concat_map (fun e ->
         Array.to_list Elect.ks
         |> List.map (fun k ->
                f
                  (Printf.sprintf "%s.elect_ns.%s.k%d" kernel (Util.slug e) k)
                  e k))

let flatsim =
  per_k "flatsim" Elect.flat_entries (fun name e k ->
      ns name
        (if e = "tournament" && k = 2 then on_elect @ on_events else on_elect)
        "one flat election, reset + run_random at n = 32")
  @ [
      ns "flatsim.step_ns" on_elect "one Machine.step, tournament at k = 32";
      ns "flatsim.reset_ns" on_elect "Machine.reset, tournament at k = 32";
      ns "flatsim.tas2_ns" on_elect "one 2-process duel (Programs.tas2)";
      ns "flatsim.ge_round_ns" on_elect "one GroupElect round at k = 32";
      {
        name = "flatsim.minor_words_per_elect";
        unit_ = "words";
        better = "lower";
        moves = on_elect;
        why = "allocation per flat election, over every entry and k";
      };
    ]

let sim =
  per_k "sim" Elect.effect_entries (fun name _ _ ->
      ns name on_elect "one effect election, reset + Sched.run at n = 32")
  @ [
      ns "sim.step_ns" on_elect "one Sched step, tournament at k = 32";
      {
        name = "sim.minor_words_per_elect";
        unit_ = "words";
        better = "lower";
        moves = on_elect;
        why = "allocation per effect election, over every entry and k";
      };
    ]
  @ List.map
      (fun g ->
        ns ("groupelect.round_ns." ^ g) on_elect
          "one GroupElect round on the effect kernel at k = 32")
      [ "logstar"; "sift"; "poison" ]

let atomic =
  per_k "atomic" Elect.atomic_entries (fun name _ _ ->
      ns name on_elect "one Atomic.t election: fresh structure + k slots")

let service =
  [
    ns "engine.trial_overhead_ns" on_elect "an empty trial through Engine.run_local";
    ns "resettable.cycle_ns" on_events
      "Resettable claim + release with the per-key arena lookup";
    ns "wheel.event_ns.short" on_events "Wheel pop + schedule, delays <= 256";
    ns "wheel.event_ns.long" on_events "Wheel pop + schedule, delays <= 20k";
    ns "backoff.delay_ns" on_events "one Backoff.delay (exp:8:256)";
    ns "timeseries.record_ns" on_events "one Timeseries bump + observe";
    ns "zipf.sample_ns" on_events "one Zipf.sample, n = 4, s = 0";
    ns "arrival.next_ns" on_events "one Poisson Arrival.next";
    ns "histo.observe_ns" on_events "one log-bucketed Histo.observe";
  ]

let count name moves why = { name; unit_ = "count"; better = "lower"; moves; why }

let run_level =
  [
    count "driver.rounds" on_events "election rounds per service run (0 on elect)";
    count "driver.retries" on_events "loser retries per service run (0 on elect)";
    count "driver.shed" on_events "shed events per service run (0 on elect)";
    {
      name = "driver.unattributed_share";
      unit_ = "ratio";
      better = "lower";
      moves = on_all;
      why = "1 - (sum of count x ledger unit cost) / fastest pass time";
    };
    {
      name = "trace.overhead";
      unit_ = "ratio";
      better = "lower";
      moves = on_all;
      why = "traced pass time over untraced pass time, same process";
    };
    {
      name = "elect.flat_trials_per_s";
      unit_ = "1/s";
      better = "higher";
      moves = on_elect;
      why = "flat part of the elect pass, fastest (0 elsewhere)";
    };
    {
      name = "elect.effect_trials_per_s";
      unit_ = "1/s";
      better = "higher";
      moves = on_elect;
      why = "effect part of the elect pass, fastest (0 elsewhere)";
    };
    {
      name = "elect.atomic_elects_per_s";
      unit_ = "1/s";
      better = "higher";
      moves = on_elect;
      why = "atomic part of the elect pass, fastest (0 elsewhere)";
    };
    {
      name = "elect.steps_per_elect";
      unit_ = "steps";
      better = "lower";
      moves = [ ("lat_p50_ticks", [ "elect" ]) ];
      why = "mean max per-process steps, flat + effect (0 elsewhere)";
    };
  ]

(* Self time per layer of the traced passes, from the spans. *)
let span_layers = [ "harness"; "flatsim"; "sim"; "atomic"; "service"; "check" ]

let spans =
  List.map
    (fun l ->
      {
        name = "span.self_ms." ^ l;
        unit_ = "ms";
        better = "lower";
        moves =
          (match l with
          | "flatsim" | "sim" | "atomic" -> on_elect
          | "service" -> on_events
          | _ -> on_all);
        why = "self time of the layer's spans per traced pass";
      })
    span_layers

let per_layer = flatsim @ sim @ atomic @ service @ run_level @ spans

(* Figures printed above the result line that are not metrics of
   their own. *)
let detail_units =
  [
    ("steps_per_elect", "steps");
    ("lat_samples", "count");
    ("fail_ratio", "ratio");
  ]

let unit_of name =
  match List.find_opt (fun e -> e.e_name = name) end_to_end with
  | Some e -> e.e_unit
  | None -> (
      match List.find_opt (fun l -> l.name = name) per_layer with
      | Some l -> l.unit_
      | None -> List.assoc name detail_units)

let print () =
  List.iter
    (fun e ->
      Printf.printf "{\"kind\": \"end_to_end\", \"name\": %s, \"unit\": %s, \"better\": %s}\n"
        (Util.json_string e.e_name) (Util.json_string e.e_unit)
        (Util.json_string e.e_better))
    end_to_end;
  List.iter
    (fun l ->
      Printf.printf
        "{\"kind\": \"per_layer\", \"name\": %s, \"unit\": %s, \"better\": %s, \
         \"moves\": [%s], \"why\": %s}\n"
        (Util.json_string l.name) (Util.json_string l.unit_)
        (Util.json_string l.better)
        (String.concat ", "
           (List.map
              (fun (m, ws) ->
                Printf.sprintf "{\"metric\": %s, \"workloads\": [%s]}"
                  (Util.json_string m)
                  (String.concat ", " (List.map Util.json_string ws)))
              l.moves))
        (Util.json_string l.why))
    per_layer
