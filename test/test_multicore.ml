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

(* The 2-process duel and the splitter are not registry elections: the
   duel is packaged by [Mc_le.le2], the splitter instantiated at
   Atomic_mem directly. *)
module Sp = Primitives.Splitter.Make (Backend.Atomic_mem)

let duel = Multicore.Mc_le.le2

let duel_elect = Multicore.Mc_le.elect

let test_mc_le2_single_thread () =
  (* Sequential: first caller wins, second loses. *)
  for _ = 1 to 50 do
    let le = duel () in
    let rng = Random.State.make [| 1 |] in
    let a = duel_elect le rng ~slot:0 in
    let b = duel_elect le rng ~slot:1 in
    checkb "first wins" true a;
    checkb "second loses" false b
  done

let test_mc_le2_parallel () =
  for _ = 1 to 100 do
    let le = duel () in
    let results = run_domains ~k:2 (fun slot rng -> duel_elect le rng ~slot) in
    let winners = List.length (List.filter Fun.id results) in
    checki "exactly one winner" 1 winners
  done

let test_mc_le2_solo () =
  let le = duel () in
  let rng = Random.State.make [| 3 |] in
  checkb "solo wins" true (duel_elect le rng ~slot:1)

let split sp ~slot = Sp.split sp (Backend.Atomic_mem.ctx ~slot ())

let test_mc_splitter_solo () =
  let sp = Sp.create (Backend.Atomic_mem.create ()) in
  checkb "solo stops" true (split sp ~slot:5 = Primitives.Splitter.S)

let test_mc_splitter_parallel () =
  for _ = 1 to 100 do
    let sp = Sp.create (Backend.Atomic_mem.create ()) in
    let results = run_domains ~k:3 (fun slot _rng -> split sp ~slot) in
    let count v = List.length (List.filter (fun r -> r = v) results) in
    checkb "at most one S" true (count Primitives.Splitter.S <= 1);
    checkb "not all L" true (count Primitives.Splitter.L <= 2);
    checkb "not all R" true (count Primitives.Splitter.R <= 2)
  done

(* --- Every dual registry entry on real domains ------------------------

   One loop over [Registry.dual ()]: each entry's derived Atomic.t
   election must elect exactly one winner among 2, 3, 4 and 8 racing
   domains (3 leaves a tree that is not a power of two), let a solo
   contender at a high slot win, elect one winner when run
   sequentially, and reject a slot outside [0 .. n-1]. *)

let make_mc (e : Rtas.Registry.entry) = Option.get e.Rtas.Registry.make_mc

let winners results = List.length (List.filter Fun.id results)

let races ~n ~times e () =
  for _ = 1 to times do
    let le = make_mc e ~n in
    let results =
      run_domains ~k:n (fun slot rng -> Multicore.Mc_le.elect le rng ~slot)
    in
    checki "exactly one winner" 1 (winners results)
  done

let test_solo e () =
  let le = make_mc e ~n:64 in
  let rng = Random.State.make [| 7 |] in
  checkb "solo wins" true (Multicore.Mc_le.elect le rng ~slot:63)

let test_sequential e () =
  let le = make_mc e ~n:4 in
  let rng = Random.State.make [| 23 |] in
  let results = List.init 4 (fun slot -> Multicore.Mc_le.elect le rng ~slot) in
  checki "one winner" 1 (winners results)

let test_slot_range (e : Rtas.Registry.entry) () =
  let name = e.Rtas.Registry.name in
  let rng = Random.State.make [| 29 |] in
  let rejects what f =
    match f () with
    | _ -> Alcotest.failf "%s: %s accepted" name what
    | exception Invalid_argument msg ->
        checkb
          (Printf.sprintf "%s: message %S names the entry" what msg)
          true
          (String.starts_with ~prefix:(name ^ ":") msg)
  in
  let le = make_mc e ~n:4 in
  let tas = Multicore.Mc_tas.of_le (make_mc e ~n:4) in
  List.iter
    (fun slot ->
      rejects
        (Printf.sprintf "Mc_le.elect slot %d" slot)
        (fun () -> Multicore.Mc_le.elect le rng ~slot);
      rejects
        (Printf.sprintf "Mc_tas.apply slot %d" slot)
        (fun () -> Multicore.Mc_tas.apply tas rng ~slot))
    [ -1; 4; 7 ];
  (* A rejected call touches no register: the structures still work. *)
  checkb "election still live" true (Multicore.Mc_le.elect le rng ~slot:3);
  checki "tas still live" 0 (Multicore.Mc_tas.apply tas rng ~slot:3)

let dual_groups =
  List.map
    (fun (e : Rtas.Registry.entry) ->
      ( e.Rtas.Registry.name,
        [
          Alcotest.test_case "parallel" `Quick (fun () ->
              List.iter (fun n -> races ~n ~times:50 e ()) [ 2; 3; 4 ]);
          Alcotest.test_case "larger crowd" `Quick (races ~n:8 ~times:10 e);
          Alcotest.test_case "solo" `Quick (test_solo e);
          Alcotest.test_case "sequential" `Quick (test_sequential e);
          Alcotest.test_case "slot range" `Quick (test_slot_range e);
        ] ))
    (Rtas.Registry.dual ())

(* --- Test-and-set on atomics ------------------------------------------ *)

let tas_impls =
  List.map
    (fun (e : Rtas.Registry.entry) ->
      (e.Rtas.Registry.name, fun () -> Multicore.Mc_tas.of_le (make_mc e ~n:4)))
    (Rtas.Registry.dual ())
  @ [ ("native", fun () -> Multicore.Mc_tas.native ()) ]

let test_mc_tas_unique_zero make () =
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
    let tas = Multicore.Mc_tas.of_le (Multicore.Mc_le.le2 ()) in
    let results =
      run_domains ~k:2 (fun slot rng -> Multicore.Mc_tas.apply tas rng ~slot)
    in
    checki "exactly one 0" 1 (List.length (List.filter (fun r -> r = 0) results))
  done

let test_mc_tas_sequential_semantics () =
  let tournament = Option.get (Rtas.Registry.find "tournament") in
  let tas = Multicore.Mc_tas.of_le (make_mc tournament ~n:4) in
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
    ([
      ( "le2",
        [
          Alcotest.test_case "sequential" `Quick test_mc_le2_single_thread;
          Alcotest.test_case "parallel" `Quick test_mc_le2_parallel;
          Alcotest.test_case "solo" `Quick test_mc_le2_solo;
        ] );
      ( "splitter",
        [
          Alcotest.test_case "solo" `Quick test_mc_splitter_solo;
          Alcotest.test_case "parallel" `Quick test_mc_splitter_parallel;
        ] );
    ]
    @ dual_groups
    @ [
      ( "tas",
        List.map
          (fun (name, make) ->
            Alcotest.test_case name `Quick (test_mc_tas_unique_zero make))
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
    ])
