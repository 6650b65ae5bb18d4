(* The perf gate table: every bound a BENCH_results.json is held to,
   written once. Each row names the gated quantity, carries its value
   from the current results, the operator and the bound, and says what
   the bound is measured against:

   - absolute: a fixed constant (exact checks, floors, ceilings);
   - same-run: a ratio of two timings taken in the same run (min of N,
     interleaved), immune to the host's frequency swings because both
     sides see the same machine at the same moment;
   - baseline: a tolerance around the committed BENCH_baseline.json,
     loose where wall-clock is noisy, tight where the signal is
     deterministic (allocation).

   `bench/main.exe gate CURRENT BASELINE` prints one line per row and
   exits 1 if any row fails, 2 if a file cannot be read or parsed. *)

module J = Obs.Json

type op = Ge | Gt | Le | Eq
type kind = Absolute | Same_run | Baseline

type row = { name : string; value : J.t; op : op; bound : J.t; kind : kind }

let passes r =
  let v = J.to_float r.value and b = J.to_float r.bound in
  match (r.op, r.value, r.bound) with
  | Eq, J.Num _, J.Num _ -> v = b
  | Eq, _, _ -> r.value = r.bound
  | Ge, _, _ -> v >= b
  | Gt, _, _ -> v > b
  | Le, _, _ -> v <= b

(* A bound computed from a measurement, as the shortest literal that
   reads back as the same float. *)
let num x =
  let s = Printf.sprintf "%.15g" x in
  J.Num (if float_of_string s = x then s else Printf.sprintf "%.17g" x)

let get j path =
  List.fold_left (fun j k -> J.member k j) j (String.split_on_char '.' path)

let elements = function J.Arr l -> l | _ -> []

(* The element of the array at [path] whose [key] is [v]. *)
let find j path key v =
  List.find_opt (fun e -> J.member key e = v) (elements (get j path))

let rows ~current ~baseline =
  let row ?(kind = Absolute) name value op bound =
    { name; value; op; bound; kind }
  in
  let at ?kind path op bound = row ?kind path (get current path) op bound in
  let is path v = at path Eq v in
  let vs_baseline ?(name = "") ?(value = fun j -> get j name) op f =
    row ~kind:Baseline (name ^ ".vs_baseline") (value current) op
      (num (f (J.to_float (value baseline))))
  in
  let nonpositive path field =
    let bad e = not (J.to_float (J.member field e) > 0.0) in
    J.int (List.length (List.filter bad (elements (get current path))))
  in
  let domains = J.to_float (get current "domains") in
  (* Exactly 1.0 at one domain (computed from the single measured run,
     never re-timed); with real parallelism the fan-out must pay. *)
  let parallel =
    let path = "parallel_sweep.speedup_vs_domains_1" in
    if domains >= 2.0 then
      [
        at ~kind:Same_run path Gt (J.Num "1.5");
        row ~kind:Same_run (path ^ ".per_domain") (get current path) Ge
          (num (0.7 *. domains));
      ]
    else [ at ~kind:Same_run path Eq (J.Num "1.0") ]
  in
  let scaling_points =
    match get current "scaling" with J.Arr l -> J.int (List.length l) | _ -> J.Null
  in
  (* Each family is timed once, not averaged. *)
  let experiments =
    List.map
      (fun e ->
        let id = J.member "id" e in
        let wall j =
          Option.fold ~none:J.Null ~some:(J.member "wall_s")
            (find j "experiments" "id" id)
        in
        let name = match id with J.Str s -> s | _ -> "?" in
        vs_baseline ~name:("experiments." ^ name ^ ".wall_s") ~value:wall Le
          (fun b -> (4.0 *. b) +. 1.0))
      (elements (get baseline "experiments"))
  in
  let one_million =
    let point j = find j "service_scaling" "clients" (J.int 1_000_000) in
    let cps j = Option.fold ~none:J.Null ~some:(J.member "clients_per_sec") (point j) in
    let name = "service_scaling.1M.clients_per_sec" in
    row "service_scaling.1M" (J.Bool (point current <> None)) Eq (J.Bool true)
    :: (if point current = None then []
        else
          [
            row name (cps current) Ge (J.int 400_000);
            vs_baseline ~name ~value:cps Ge (fun b -> 0.5 *. b);
          ])
  in
  [
    is "schema_version" (J.int 7);
    row "baseline.schema_version" (get baseline "schema_version") Eq (J.int 7);
    is "kernel" (J.Str "flat");
    is "parallel_sweep.kernel" (J.Str "flat");
    is "parallel_sweep.bit_identical" (J.Bool true);
    is "parallel_sweep.probe.compiled_in" (J.Bool true);
    is "parallel_sweep.probe.sink_installed" (J.Bool false);
    is "flat_vs_effect.outcomes_match" (J.Bool true);
    (* The flat kernel's reason to exist. *)
    at ~kind:Same_run "flat_vs_effect.speedup" Ge (J.Num "10.0");
    is "poison_flat.outcomes_match" (J.Bool true);
    (* An order of magnitude under the measured rate. *)
    at "poison_flat.trials_per_sec" Ge (J.int 7000);
    vs_baseline ~name:"poison_flat.trials_per_sec" Ge (fun b -> 0.5 *. b);
    (* Generous against the measured ~0 while still catching per-step
       boxing; the baseline tolerance carries 16 words of grace because
       130% of ~0 would reject any jitter from the engine's chunk
       bookkeeping. *)
    at "poison_flat.minor_words_per_trial" Le (J.int 128);
    vs_baseline ~name:"poison_flat.minor_words_per_trial" Le (fun b ->
        (1.3 *. b) +. 16.0);
    (* Loose for wall-clock noise, yet it catches a return to a
       per-step-allocating path (a ~10x cliff). The sweep runs with
       Probe compiled in and no sink installed, so this doubles as the
       probed-off overhead gate. *)
    vs_baseline ~name:"parallel_sweep.trials_per_sec_domains_1" Ge (fun b -> 0.5 *. b);
    (* 5% of the effect path's allocation per trial: the flat machines
       allocate nothing after creation (pinned by test_flatsim), so what
       remains is per-trial outcome records. Allocation is
       deterministic, hence the tight baseline tolerance. *)
    at "parallel_sweep.minor_words_per_trial_domains_1" Le (J.int 830);
    vs_baseline ~name:"parallel_sweep.minor_words_per_trial_domains_1" Le (fun b ->
        1.3 *. b);
  ]
  @ parallel
  @ [
      row ~kind:Same_run "scaling.points" scaling_points Eq (num domains);
      row "scaling.nonpositive" (nonpositive "scaling" "trials_per_sec") Eq
        (J.int 0);
    ]
  @ experiments
  @ [
      is "service.reproducible" (J.Bool true);
      is "service.kernel" (J.Str "flat");
      vs_baseline ~name:"service.clients_per_sec" Ge (fun b -> 0.5 *. b);
      is "wheel_vs_heap.clients" (J.int 100_000);
      is "wheel_vs_heap.reports_match" (J.Bool true);
      (* Under the measured ratio because the heap side alone swings
         ~5% run to run. *)
      at ~kind:Same_run "wheel_vs_heap.speedup" Ge (J.Num "4.5");
      row "service_scaling.nonpositive"
        (nonpositive "service_scaling" "clients_per_sec")
        Eq (J.int 0);
    ]
  @ one_million
  @ [
      is "telemetry.report_unperturbed" (J.Bool true);
      is "telemetry.sums_match_totals" (J.Bool true);
      at "telemetry.windows" Gt (J.int 0);
      (* The telemetry sink on the wheel workload against the same
         run without it. *)
      at ~kind:Same_run "telemetry.overhead" Le (J.Num "1.15");
    ]

let line r =
  let text v = String.trim (J.to_string v) in
  Printf.sprintf "%s  %-60s %s %s %s  (%s)"
    (if passes r then "pass" else "FAIL")
    r.name (text r.value)
    (match r.op with Ge -> ">=" | Gt -> ">" | Le -> "<=" | Eq -> "==")
    (text r.bound)
    (match r.kind with
    | Absolute -> "absolute"
    | Same_run -> "same-run"
    | Baseline -> "baseline")

let run current baseline =
  let load path =
    match J.parse (In_channel.with_open_bin path In_channel.input_all) with
    | v -> Ok v
    | exception Sys_error msg -> Error msg
    | exception J.Parse_error msg -> Error (path ^ ": " ^ msg)
  in
  match (load current, load baseline) with
  | Error msg, _ | _, Error msg ->
      prerr_endline ("gate: " ^ msg);
      2
  | Ok current, Ok baseline ->
      let rows = rows ~current ~baseline in
      List.iter (fun r -> print_endline (line r)) rows;
      let failed = List.length (List.filter (fun r -> not (passes r)) rows) in
      Printf.printf "gate: %d of %d gates failed\n" failed (List.length rows);
      if failed = 0 then 0 else 1
