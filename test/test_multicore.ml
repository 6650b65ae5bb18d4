(* Tests for the real-multicore (Atomic/Domain) implementations.

   These exercise the algorithms across true parallel domains; the
   adversary is the OS scheduler, so assertions are safety properties
   plus single-run liveness. Domain counts are kept small.

   Contender identity is everywhere a [slot] in [0 .. n-1]; algorithms
   that need nonzero splitter ids derive them internally. *)

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* Run [k] domains, each evaluating [body slot rng], and return results. *)
let run_domains ~k body =
  let domains =
    List.init k (fun slot ->
        Domain.spawn (fun () ->
            let rng =
              Random.State.make [| slot * 7919; 42; Hashtbl.hash slot |]
            in
            body slot rng))
  in
  List.map Domain.join domains

let test_mc_le2_single_thread () =
  (* Sequential: first caller wins, second loses. *)
  for _ = 1 to 50 do
    let le = Multicore.Mc_le2.create () in
    let rng = Random.State.make [| 1 |] in
    let a = Multicore.Mc_le2.elect le rng ~slot:0 in
    let b = Multicore.Mc_le2.elect le rng ~slot:1 in
    checkb "first wins" true a;
    checkb "second loses" false b
  done

let test_mc_le2_parallel () =
  for _ = 1 to 100 do
    let le = Multicore.Mc_le2.create () in
    let results =
      run_domains ~k:2 (fun slot rng -> Multicore.Mc_le2.elect le rng ~slot)
    in
    let winners = List.length (List.filter Fun.id results) in
    checki "exactly one winner" 1 winners
  done

let test_mc_le2_solo () =
  let le = Multicore.Mc_le2.create () in
  let rng = Random.State.make [| 3 |] in
  checkb "solo wins" true (Multicore.Mc_le2.elect le rng ~slot:1)

let test_mc_tournament_parallel () =
  List.iter
    (fun k ->
      for _ = 1 to 50 do
        let le = Multicore.Mc_tournament.create ~n:k in
        let results =
          run_domains ~k (fun slot rng ->
              Multicore.Mc_tournament.elect le rng ~slot)
        in
        let winners = List.length (List.filter Fun.id results) in
        checki "exactly one winner" 1 winners
      done)
    [ 2; 3; 4 ]

let test_mc_tournament_sequential () =
  let le = Multicore.Mc_tournament.create ~n:4 in
  let rng = Random.State.make [| 5 |] in
  let results =
    List.init 4 (fun slot -> Multicore.Mc_tournament.elect le rng ~slot)
  in
  checki "one winner" 1 (List.length (List.filter Fun.id results))

let test_mc_sift_parallel () =
  for _ = 1 to 50 do
    let le = Multicore.Mc_sift.create ~n:4 in
    let results =
      run_domains ~k:4 (fun slot rng -> Multicore.Mc_sift.elect le rng ~slot)
    in
    let winners = List.length (List.filter Fun.id results) in
    checki "exactly one winner" 1 winners
  done

let test_mc_sift_solo () =
  let le = Multicore.Mc_sift.create ~n:64 in
  let rng = Random.State.make [| 7 |] in
  checkb "solo wins" true (Multicore.Mc_sift.elect le rng ~slot:13)

let test_mc_splitter_solo () =
  let sp = Multicore.Mc_splitter.create () in
  checkb "solo stops" true
    (Multicore.Mc_splitter.split sp ~slot:5 = Multicore.Mc_splitter.S)

let test_mc_splitter_parallel () =
  for _ = 1 to 100 do
    let sp = Multicore.Mc_splitter.create () in
    let results =
      run_domains ~k:3 (fun slot _rng -> Multicore.Mc_splitter.split sp ~slot)
    in
    let count v = List.length (List.filter (fun r -> r = v) results) in
    checkb "at most one S" true (count Multicore.Mc_splitter.S <= 1);
    checkb "not all L" true (count Multicore.Mc_splitter.L <= 2);
    checkb "not all R" true (count Multicore.Mc_splitter.R <= 2)
  done

let test_mc_elim_parallel () =
  for _ = 1 to 50 do
    let le = Multicore.Mc_elim.create ~n:4 in
    let results =
      run_domains ~k:4 (fun slot rng -> Multicore.Mc_elim.elect le rng ~slot)
    in
    checki "exactly one winner" 1 (List.length (List.filter Fun.id results))
  done

let test_mc_elim_sequential () =
  let le = Multicore.Mc_elim.create ~n:4 in
  let rng = Random.State.make [| 9 |] in
  let results = List.init 4 (fun slot -> Multicore.Mc_elim.elect le rng ~slot) in
  checki "one winner" 1 (List.length (List.filter Fun.id results))

let tas_impls =
  [
    ("tournament", fun () -> Multicore.Mc_tas.of_tournament ~n:4);
    ("sift", fun () -> Multicore.Mc_tas.of_sift ~n:4);
    ("elim", fun () -> Multicore.Mc_tas.of_elim ~n:4);
    ("rr-lean", fun () -> Multicore.Mc_tas.of_rr_lean ~n:4);
    ("native", fun () -> Multicore.Mc_tas.native ());
  ]

let test_mc_tas_unique_zero (name, make) () =
  ignore name;
  for _ = 1 to 50 do
    let tas = make () in
    let results =
      run_domains ~k:4 (fun slot rng -> Multicore.Mc_tas.apply tas rng ~slot)
    in
    let zeros = List.length (List.filter (fun r -> r = 0) results) in
    checki "exactly one 0" 1 zeros;
    checki "others get 1" 3 (List.length (List.filter (fun r -> r = 1) results))
  done

let test_mc_tas_le2_pair () =
  for _ = 1 to 100 do
    let tas = Multicore.Mc_tas.of_le2 () in
    let results =
      run_domains ~k:2 (fun slot rng -> Multicore.Mc_tas.apply tas rng ~slot)
    in
    checki "exactly one 0" 1 (List.length (List.filter (fun r -> r = 0) results))
  done

let test_mc_tas_sequential_semantics () =
  let tas = Multicore.Mc_tas.of_tournament ~n:4 in
  let rng = Random.State.make [| 11 |] in
  checki "first gets 0" 0 (Multicore.Mc_tas.apply tas rng ~slot:0);
  checki "second gets 1" 1 (Multicore.Mc_tas.apply tas rng ~slot:1);
  checki "third gets 1" 1 (Multicore.Mc_tas.apply tas rng ~slot:2)

(* --- Differential backend test ---------------------------------------

   Both backends of a functorized election are the same algorithm, so
   under any schedule in which each contender runs to completion before
   the next starts, the outcome vector is determined by the contender
   order alone: the first contender meets only fresh splitters / duels
   and wins, everyone after it loses to state the winner left behind —
   whatever either backend's coins say. The simulator run under a
   run-to-completion adversary must therefore produce bit-for-bit the
   outcome vector of the Atomic_mem run executed sequentially in the
   same order, for every seed and every contender permutation. *)

let permutation rng k =
  let order = Array.init k Fun.id in
  for i = k - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let tmp = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- tmp
  done;
  order

(* Schedule the runnable pid that comes earliest in [order]; since a
   scheduled process stays the earliest until it finishes, this runs
   order.(0) to completion, then order.(1), etc. *)
let seq_order_adversary order =
  let rank = Array.make (Array.length order) 0 in
  Array.iteri (fun i pid -> rank.(pid) <- i) order;
  Sim.Adversary.adaptive "seq-order" (fun v ->
      let best = ref v.Sim.Sched.runnable.(0) in
      Array.iter
        (fun pid -> if rank.(pid) < rank.(!best) then best := pid)
        v.Sim.Sched.runnable;
      Sim.Sched.Schedule !best)

let sim_outcomes entry ~k ~order ~seed =
  let mem = Sim.Memory.create () in
  let le = entry.Rtas.Registry.make mem ~n:k in
  let sched = Sim.Sched.create ~seed (Leaderelect.Le.programs le ~k) in
  Sim.Sched.run sched (seq_order_adversary order);
  Array.map (fun r -> r = Some 1) (Sim.Sched.results sched)

let atomic_outcomes make_mc ~k ~order ~seed =
  let le = make_mc ~n:k in
  let results = Array.make k false in
  Array.iter
    (fun slot ->
      let rng = Random.State.make [| Int64.to_int seed; slot; 0x5EED |] in
      results.(slot) <- Multicore.Mc_le.elect le rng ~slot)
    order;
  results

let test_differential entry make_mc () =
  let k = 4 in
  for seed_int = 1 to 120 do
    let seed = Int64.of_int (seed_int * 7919) in
    let order = permutation (Random.State.make [| seed_int; 0xD1FF |]) k in
    let sim = sim_outcomes entry ~k ~order ~seed in
    let atomic = atomic_outcomes make_mc ~k ~order ~seed in
    checkb "backends agree" true (sim = atomic);
    let winners a = Array.to_list a |> List.filter Fun.id |> List.length in
    checki "sim: exactly one winner" 1 (winners sim);
    checki "atomic: exactly one winner" 1 (winners atomic);
    checkb "first in order wins" true atomic.(order.(0))
  done

let differential_cases =
  List.filter_map
    (fun (e : Rtas.Registry.entry) ->
      Option.map
        (fun make_mc ->
          Alcotest.test_case e.Rtas.Registry.name `Quick
            (test_differential e make_mc))
        e.Rtas.Registry.make_mc)
    Rtas.Registry.all

let test_registry_backends_present () =
  let with_mc =
    List.filter
      (fun (e : Rtas.Registry.entry) -> e.Rtas.Registry.make_mc <> None)
      Rtas.Registry.all
  in
  checkb "at least 4 dual-backend entries" true (List.length with_mc >= 4);
  List.iter
    (fun (e : Rtas.Registry.entry) ->
      let le = (Option.get e.Rtas.Registry.make_mc) ~n:4 in
      checkb "mc name matches registry" true
        (Multicore.Mc_le.name le = e.Rtas.Registry.name);
      checkb "allocates registers" true (Multicore.Mc_le.registers le > 0);
      (* Both backends build from one functor source: the same
         allocations, whatever each does with register names. *)
      List.iter
        (fun n ->
          let mem = Sim.Memory.create () in
          ignore (e.Rtas.Registry.make mem ~n);
          checki
            (Printf.sprintf "%s n=%d: atomic registers = sim registers"
               e.Rtas.Registry.name n)
            (Sim.Memory.allocated mem)
            (Multicore.Mc_le.registers ((Option.get e.Rtas.Registry.make_mc) ~n)))
        [ 2; 32; 100 ])
    with_mc

let () =
  Alcotest.run "multicore"
    [
      ( "le2",
        [
          Alcotest.test_case "sequential" `Quick test_mc_le2_single_thread;
          Alcotest.test_case "parallel" `Quick test_mc_le2_parallel;
          Alcotest.test_case "solo" `Quick test_mc_le2_solo;
        ] );
      ( "tournament",
        [
          Alcotest.test_case "parallel" `Quick test_mc_tournament_parallel;
          Alcotest.test_case "sequential" `Quick test_mc_tournament_sequential;
        ] );
      ( "sift",
        [
          Alcotest.test_case "parallel" `Quick test_mc_sift_parallel;
          Alcotest.test_case "solo" `Quick test_mc_sift_solo;
        ] );
      ( "splitter",
        [
          Alcotest.test_case "solo" `Quick test_mc_splitter_solo;
          Alcotest.test_case "parallel" `Quick test_mc_splitter_parallel;
        ] );
      ( "elim",
        [
          Alcotest.test_case "parallel" `Quick test_mc_elim_parallel;
          Alcotest.test_case "sequential" `Quick test_mc_elim_sequential;
        ] );
      ( "rr-lean",
        [
          Alcotest.test_case "parallel" `Quick (fun () ->
              for _ = 1 to 50 do
                let le = Multicore.Mc_rr_lean.create ~n:4 in
                let results =
                  run_domains ~k:4 (fun slot rng ->
                      Multicore.Mc_rr_lean.elect le rng ~slot)
                in
                checki "exactly one winner" 1
                  (List.length (List.filter Fun.id results))
              done);
          Alcotest.test_case "larger crowd" `Quick (fun () ->
              for _ = 1 to 10 do
                let le = Multicore.Mc_rr_lean.create ~n:8 in
                let results =
                  run_domains ~k:8 (fun slot rng ->
                      Multicore.Mc_rr_lean.elect le rng ~slot)
                in
                checki "exactly one winner" 1
                  (List.length (List.filter Fun.id results))
              done);
          Alcotest.test_case "solo" `Quick (fun () ->
              let le = Multicore.Mc_rr_lean.create ~n:8 in
              let rng = Random.State.make [| 21 |] in
              checkb "solo wins" true (Multicore.Mc_rr_lean.elect le rng ~slot:3));
          Alcotest.test_case "sequential" `Quick (fun () ->
              let le = Multicore.Mc_rr_lean.create ~n:4 in
              let rng = Random.State.make [| 23 |] in
              let results =
                List.init 4 (fun slot ->
                    Multicore.Mc_rr_lean.elect le rng ~slot)
              in
              checki "one winner" 1 (List.length (List.filter Fun.id results)));
        ] );
      ( "tas",
        List.map
          (fun (name, make) ->
            Alcotest.test_case name `Quick (test_mc_tas_unique_zero (name, make)))
          tas_impls
        @ [
            Alcotest.test_case "le2 pair" `Quick test_mc_tas_le2_pair;
            Alcotest.test_case "sequential semantics" `Quick
              test_mc_tas_sequential_semantics;
          ] );
      ("differential", differential_cases);
      ( "registry",
        [
          Alcotest.test_case "dual backends" `Quick
            test_registry_backends_present;
        ] );
    ]
