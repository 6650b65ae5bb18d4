(* One-shot initialization race on real multicore OCaml.

   The canonical TAS use: several domains race to initialize a shared
   resource; the TAS winner performs the initialization exactly once.
   We run the race with the paper-derived implementations (tournament,
   sifting) and with the hardware Atomic.exchange for reference.

   dune exec examples/mutex.exe *)

let race ~name (make : unit -> Multicore.Mc_tas.t) =
  (* More domains than cores is fine - preemption gives real interleaving. *)
  let domains = 4 in
  let trials = 200 in
  let ok = ref 0 in
  for trial = 1 to trials do
    let tas = make () in
    let initialized = Atomic.make 0 in
    let results =
      List.init domains (fun slot ->
          Domain.spawn (fun () ->
              let rng = Random.State.make [| trial; slot; 0xC0FFEE |] in
              let won = Multicore.Mc_tas.apply tas rng ~slot = 0 in
              if won then Atomic.incr initialized;
              won))
      |> List.map Domain.join
    in
    let winners = List.length (List.filter Fun.id results) in
    if winners = 1 && Atomic.get initialized = 1 then incr ok
  done;
  Fmt.pr "  %-12s %d domains, %d/%d races initialized exactly once@." name
    domains !ok trials;
  assert (!ok = trials)

let () =
  Fmt.pr "== one-shot initialization race on %d cores ==@.@."
    (Domain.recommended_domain_count ());
  List.iter
    (fun name ->
      let make_mc =
        Option.get (Option.get (Rtas.Registry.find name)).Rtas.Registry.make_mc
      in
      race ~name (fun () -> Multicore.Mc_tas.of_le (make_mc ~n:4)))
    [ "tournament"; "sift" ];
  race ~name:"native" (fun () -> Multicore.Mc_tas.native ());
  Fmt.pr "@.All implementations initialized the resource exactly once.@."
