(* The perf gate table (bench/gate.ml) against the committed baseline:
   the baseline gated against itself passes every gate, each gate
   fails alone on a copy pushed just past its bound, and several
   violations are all reported. *)

module J = Obs.Json

(* The committed baseline, from the repo root or the dune test
   directory below it. *)
let baseline =
  let path = "BENCH_baseline.json" in
  let path = if Sys.file_exists path then path else Filename.concat ".." path in
  J.parse (In_channel.with_open_bin path In_channel.input_all)

let failing ~current ~baseline =
  List.filter_map
    (fun (r : Gate.row) -> if Gate.passes r then None else Some r.name)
    (Gate.rows ~current ~baseline)

(* [update path f j] rewrites the value at a dotted [path] in which a
   numeric segment indexes an array. *)
let rec update path f j =
  match (path, j) with
  | [], v -> f v
  | k :: rest, J.Obj kvs ->
      J.Obj (List.map (fun (k', v) -> (k', if k' = k then update rest f v else v)) kvs)
  | k :: rest, J.Arr vs ->
      J.Arr (List.mapi (fun i v -> if string_of_int i = k then update rest f v else v) vs)
  | _ -> j

let value path j =
  let found = ref J.Null in
  ignore (update (String.split_on_char '.' path) (fun v -> found := v; v) j);
  !found

let set path v j = update (String.split_on_char '.' path) (fun _ -> v) j
let num x = J.Num (Printf.sprintf "%.17g" x)
let base path = J.to_float (value path baseline)

(* The baseline measured on [d] domains, with a parallel speedup of
   [speedup] and one scaling point per domain. *)
let on_domains d speedup =
  baseline |> set "domains" (J.int d)
  |> set "parallel_sweep.speedup_vs_domains_1" (num speedup)
  |> set "scaling" (J.Arr (List.init d (fun _ -> value "scaling.0" baseline)))

(* (gate, current, baseline), pushed just past that gate's bound.
   [~both] moves the baseline with the current value where an absolute
   bound sits under the baseline tolerance, so only the absolute gate
   trips. *)
let plants =
  let plant ?(both = false) ?name path v =
    ( Option.value name ~default:path,
      set path v baseline,
      if both then set path v baseline else baseline )
  in
  let flip path = plant path (J.Bool (value path baseline <> J.Bool true)) in
  let vs path f = plant ~name:(path ^ ".vs_baseline") path (num (f (base path))) in
  let million = "service_scaling.2.clients_per_sec" in
  [
    plant "schema_version" (J.int 6);
    ("baseline.schema_version", baseline, set "schema_version" (J.int 6) baseline);
    plant "kernel" (J.Str "effect");
    plant "parallel_sweep.kernel" (J.Str "effect");
    flip "parallel_sweep.bit_identical";
    flip "parallel_sweep.probe.compiled_in";
    flip "parallel_sweep.probe.sink_installed";
    flip "flat_vs_effect.outcomes_match";
    plant "flat_vs_effect.speedup" (num 9.9999);
    flip "poison_flat.outcomes_match";
    plant ~both:true "poison_flat.trials_per_sec" (num 6999.99);
    vs "poison_flat.trials_per_sec" (fun b -> (0.5 *. b) -. 0.01);
    plant ~both:true "poison_flat.minor_words_per_trial" (num 128.01);
    vs "poison_flat.minor_words_per_trial" (fun b -> (1.3 *. b) +. 16.01);
    vs "parallel_sweep.trials_per_sec_domains_1" (fun b -> (0.5 *. b) -. 0.01);
    plant ~both:true "parallel_sweep.minor_words_per_trial_domains_1" (num 830.01);
    vs "parallel_sweep.minor_words_per_trial_domains_1" (fun b -> (1.3 *. b) +. 0.01);
    plant "parallel_sweep.speedup_vs_domains_1" (num 0.9999);
    (* > 1.5 bites first at two domains, >= 0.7 x domains at three. *)
    ("parallel_sweep.speedup_vs_domains_1", on_domains 2 1.5, baseline);
    ("parallel_sweep.speedup_vs_domains_1.per_domain", on_domains 3 2.09, baseline);
    plant ~name:"scaling.points" "scaling" (J.Arr []);
    plant ~name:"scaling.nonpositive" "scaling.0.trials_per_sec" (J.int 0);
    flip "service.reproducible";
    plant "service.kernel" (J.Str "effect");
    vs "service.clients_per_sec" (fun b -> (0.5 *. b) -. 0.01);
    plant "wheel_vs_heap.clients" (J.int 99_999);
    flip "wheel_vs_heap.reports_match";
    plant "wheel_vs_heap.speedup" (num 4.4999);
    plant ~name:"service_scaling.nonpositive" "service_scaling.0.clients_per_sec"
      (J.int 0);
    plant ~name:"service_scaling.1M" "service_scaling.2.clients" (J.int 999_999);
    plant ~both:true ~name:"service_scaling.1M.clients_per_sec" million
      (num 399_999.99);
    plant ~name:"service_scaling.1M.clients_per_sec.vs_baseline" million
      (num ((0.5 *. base million) -. 0.01));
    flip "telemetry.report_unperturbed";
    flip "telemetry.sums_match_totals";
    plant "telemetry.windows" (J.int 0);
    plant "telemetry.overhead" (num 1.1501);
  ]
  @ List.mapi
      (fun i e ->
        let path = Printf.sprintf "experiments.%d.wall_s" i in
        let id = match J.member "id" e with J.Str s -> s | _ -> "?" in
        plant ~name:("experiments." ^ id ^ ".wall_s.vs_baseline") path
          (num ((4.0 *. base path) +. 1.01)))
      (match J.member "experiments" baseline with J.Arr l -> l | _ -> [])

let test_baseline_passes () =
  List.iter
    (fun (what, current) ->
      Alcotest.(check (list string)) what [] (failing ~current ~baseline))
    [
      ("against itself", baseline);
      ("2 domains", on_domains 2 1.6);
      ("3 domains", on_domains 3 2.2);
    ]

let test_each_gate_fails_alone () =
  let names current =
    List.map (fun (r : Gate.row) -> r.name) (Gate.rows ~current ~baseline)
  in
  Alcotest.(check (list string))
    "a plant per gate"
    (List.sort_uniq compare (names baseline @ names (on_domains 3 2.2)))
    (List.sort_uniq compare (List.map (fun (n, _, _) -> n) plants));
  List.iter
    (fun (name, current, baseline) ->
      Alcotest.(check (list string)) name [ name ] (failing ~current ~baseline))
    plants

let test_reports_every_failure () =
  let current =
    baseline
    |> set "flat_vs_effect.speedup" (num 9.0)
    |> set "telemetry.overhead" (num 1.2)
  in
  Alcotest.(check (list string))
    "both violations"
    [ "flat_vs_effect.speedup"; "telemetry.overhead" ]
    (failing ~current ~baseline);
  let write v =
    let path = Filename.temp_file "gate" ".json" in
    Out_channel.with_open_bin path (fun oc -> output_string oc (J.to_string v));
    path
  in
  Alcotest.(check int) "gate exits 1" 1 (Gate.run (write current) (write baseline));
  Alcotest.(check int) "gate exits 0" 0 (Gate.run (write baseline) (write baseline));
  Alcotest.(check int) "unreadable file exits 2" 2
    (Gate.run "no-such-file.json" (write baseline))

let () =
  Alcotest.run "gate"
    [
      ( "table",
        [
          Alcotest.test_case "baseline passes" `Quick test_baseline_passes;
          Alcotest.test_case "each gate fails alone just past its bound" `Quick
            test_each_gate_fails_alone;
          Alcotest.test_case "every failure reported" `Quick
            test_reports_every_failure;
        ] );
    ]
