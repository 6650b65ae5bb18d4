(* The [elect] workload: a closed-loop Monte Carlo trial batch, the
   traffic of the E-series experiments. Every election is a reset
   followed by a random-oblivious run at n = 32 contender slots and
   k in {1, 2, 8, 32} contenders, in three timed parts:

   - flat: the flat-compiled entries on Flatsim.Machine;
   - effect: every entry on the effect kernel (Sim.Sched), including
     the simulator-only ones;
   - atomic: the Atomic.t entries through Mc_le.elect, slots run one
     after another on one domain (a fresh structure is the reset).

   The entry lists are fixed here, not read from the registry, so the
   workload stays the same when entries are added. Trial [i] of entry
   [e] at [k] draws its seed from (seed, e, k, i) alone, and the flat
   and effect parts use the same seeds, so their per-trial outcomes
   must agree. *)

let n = 32
let ks = [| 1; 2; 8; 32 |]

let effect_entries =
  [|
    "log*";
    "loglog";
    "aa";
    "ratrace";
    "ratrace-lean";
    "tournament";
    "combined-log*";
    "combined-loglog";
    "sift";
    "poison";
    "opt-space";
    "elim";
  |]

let flat_entries = [| "log*"; "tournament"; "sift"; "poison" |]

let atomic_entries =
  [| "ratrace-lean"; "tournament"; "sift"; "poison"; "opt-space"; "elim" |]

(* Trials per (entry, k) in one pass. Sized so the three parts take
   comparable host time, so a speed-up in any one kernel moves the
   batch rate. *)
let flat_trials = 3000
let effect_trials = 10
let atomic_trials = 250

(* Step cut-off of one election; reaching it counts as a failed
   election. *)
let max_total_steps = 1_000_000

let entry name =
  match Rtas.Registry.find name with
  | Some e -> e
  | None -> failwith ("elect: registry entry missing: " ^ name)

(* Stream id of an entry: its index in [effect_entries], shared by all
   three parts. *)
let entry_id name =
  let rec go i =
    if i = Array.length effect_entries then
      failwith ("elect: unknown entry " ^ name)
    else if effect_entries.(i) = name then i
    else go (i + 1)
  in
  go 0

let trial_seed base ~eid ~k ~i =
  Sim.Rng.derive
    (Sim.Rng.derive (Sim.Rng.derive base ~stream:eid) ~stream:k)
    ~stream:i

type effect_arena = {
  e_name : string;
  mem : Sim.Memory.t;
  progs : (Sim.Ctx.t -> int) array array;  (* per k *)
  scheds : Sim.Sched.t array;  (* per k *)
}

type arena = {
  base : int64;
  flat : (string * Flatsim.Machine.t) array;
  eff : effect_arena array;
  atomic : (string * (n:int -> Multicore.Mc_le.t)) array;
}

(* Build every machine, arena and scheduler through the public
   constructors; the timed passes only reset them. *)
let setup ~seed =
  let flat =
    Array.map
      (fun name ->
        match (entry name).Rtas.Registry.make_flat with
        | Some mk -> (name, Flatsim.Machine.create ~procs:n (mk ~n))
        | None -> failwith ("elect: no flat compilation for " ^ name))
      flat_entries
  in
  let eff =
    Array.map
      (fun name ->
        let mem = Sim.Memory.create () in
        let le = (entry name).Rtas.Registry.make mem ~n in
        let progs = Array.map (fun k -> Leaderelect.Le.programs le ~k) ks in
        { e_name = name; mem; progs; scheds = Array.map Sim.Sched.create progs })
      effect_entries
  in
  let atomic =
    Array.map
      (fun name ->
        match (entry name).Rtas.Registry.make_mc with
        | Some mk -> (name, mk)
        | None -> failwith ("elect: no atomic backend for " ^ name))
      atomic_entries
  in
  { base = Int64.of_int seed; flat; eff; atomic }

(* Outcome encoding of one election: the winner's pid, -1 when the
   election did not end with exactly one winner, -2 at the step
   cut-off. *)
let no_unique = -1
let cut_off = -2

let winner_of results k =
  let w = ref (-1) and c = ref 0 in
  for pid = 0 to k - 1 do
    if Array.unsafe_get results pid = 1 then begin
      w := pid;
      incr c
    end
  done;
  if !c = 1 then !w else no_unique

let flat_trial m ~k ~seed =
  Flatsim.Machine.reset ~seed ~procs:k m;
  match
    Flatsim.Machine.run_random ~max_total_steps m
      ~seed:(Sim.Rng.derive seed ~stream:1)
  with
  | () -> winner_of m.Flatsim.Machine.results k
  | exception Failure _ -> cut_off

let effect_trial a ~ki ~seed =
  let sched = a.scheds.(ki) in
  Sim.Memory.reset a.mem;
  Sim.Sched.reset ~seed sched a.progs.(ki);
  match
    Sim.Sched.run ~max_total_steps sched
      (Sim.Adversary.random_oblivious ~seed:(Sim.Rng.derive seed ~stream:1))
  with
  | () ->
      let w = ref (-1) and c = ref 0 in
      for pid = 0 to Sim.Sched.n sched - 1 do
        if Sim.Sched.result sched pid = Some 1 then begin
          w := pid;
          incr c
        end
      done;
      if !c = 1 then !w else no_unique
  | exception Failure _ -> cut_off

(* One atomic election: a fresh structure, then slots 0 .. k-1 in
   turn. *)
let atomic_trial mk rng ~k =
  let t = mk ~n in
  let w = ref (-1) and c = ref 0 in
  for slot = 0 to k - 1 do
    if Multicore.Mc_le.elect t rng ~slot then begin
      w := slot;
      incr c
    end
  done;
  if !c = 1 then !w else no_unique

(* Per-trial outcomes of one (entry, k) batch. *)
type batch = { winners : int array; steps : int array; spans : int array }

type pass = {
  flat_b : batch array array;  (* [entry][ki] *)
  eff_b : batch array array;
  atomic_w : int array array array;  (* [entry][ki] winners *)
  flat_s : float;  (* host seconds of each part *)
  eff_s : float;
  atomic_s : float;
  block_s : float list;
      (* host seconds of each entry's block within its part, in run
         order: the same blocks in every pass *)
}

let flat_elections = Array.length ks * Array.length flat_entries * flat_trials
let effect_elections = Array.length ks * Array.length effect_entries * effect_trials
let atomic_elections = Array.length ks * Array.length atomic_entries * atomic_trials
let elections_per_pass = flat_elections + effect_elections + atomic_elections

let make_batch t =
  { winners = Array.make t 0; steps = Array.make t 0; spans = Array.make t 0 }

let run_pass a =
  let blocks = ref [] in
  let timed_block f x =
    let r, s = Engine.timed (fun () -> f x) in
    blocks := s :: !blocks;
    r
  in
  let flat_b, flat_s =
    Engine.timed (fun () ->
        Array.map
          (timed_block @@ fun (name, m) ->
            let eid = entry_id name in
            Array.map
              (fun k ->
                Span.within
                  (Printf.sprintf "flatsim.%s.k%d" name k)
                  (fun () ->
                    let b = make_batch flat_trials in
                    for i = 0 to flat_trials - 1 do
                      let seed = trial_seed a.base ~eid ~k ~i in
                      b.winners.(i) <- flat_trial m ~k ~seed;
                      b.steps.(i) <- Flatsim.Machine.max_steps m;
                      b.spans.(i) <- Flatsim.Machine.time m
                    done;
                    b))
              ks)
          a.flat)
  in
  let eff_b, eff_s =
    Engine.timed (fun () ->
        Array.map
          (timed_block @@ fun ea ->
            let eid = entry_id ea.e_name in
            Array.mapi
              (fun ki k ->
                Span.within
                  (Printf.sprintf "sim.%s.k%d" ea.e_name k)
                  (fun () ->
                    let b = make_batch effect_trials in
                    let sched = ea.scheds.(ki) in
                    for i = 0 to effect_trials - 1 do
                      let seed = trial_seed a.base ~eid ~k ~i in
                      b.winners.(i) <- effect_trial ea ~ki ~seed;
                      b.steps.(i) <- Sim.Sched.max_steps sched;
                      b.spans.(i) <- Sim.Sched.time sched
                    done;
                    b))
              ks)
          a.eff)
  in
  let atomic_w, atomic_s =
    Engine.timed (fun () ->
        Array.map
          (timed_block @@ fun (name, mk) ->
            let eid = entry_id name in
            Array.map
              (fun k ->
                Span.within
                  (Printf.sprintf "atomic.%s.k%d" name k)
                  (fun () ->
                    let rng =
                      Random.State.make
                        [|
                          Int64.to_int
                            (Sim.Rng.derive
                               (Sim.Rng.derive a.base ~stream:eid)
                               ~stream:(1000 + k));
                        |]
                    in
                    Array.init atomic_trials (fun _ -> atomic_trial mk rng ~k)))
              ks)
          a.atomic)
  in
  { flat_b; eff_b; atomic_w; flat_s; eff_s; atomic_s; block_s = List.rev !blocks }

(* The checks of one pass. Flat and effect must agree trial for trial
   on (winner, max steps) for every flat entry; every election of
   every part must end with exactly one winner inside the cut-off. *)
let check a p =
  Span.within "check.elect" (fun () ->
      if Check.planted "elect-vector" then
        p.flat_b.(0).(0).steps.(0) <- p.flat_b.(0).(0).steps.(0) + 1;
      if Check.planted "elect-winner" then
        p.eff_b.(0).(0).winners.(0) <- no_unique;
      if Check.planted "atomic-winner" then p.atomic_w.(0).(0).(0) <- no_unique;
      Array.iteri
        (fun fi (name, _) ->
          let ei = entry_id name in
          Array.iteri
            (fun ki k ->
              let f = p.flat_b.(fi).(ki) and e = p.eff_b.(ei).(ki) in
              for i = 0 to min flat_trials effect_trials - 1 do
                Check.require "elect flat=effect"
                  (f.winners.(i) = e.winners.(i) && f.steps.(i) = e.steps.(i))
                  (Printf.sprintf
                     "%s k=%d trial %d: flat (winner %d, %d steps) vs effect \
                      (winner %d, %d steps)"
                     name k i f.winners.(i) f.steps.(i) e.winners.(i)
                     e.steps.(i))
              done)
            ks)
        a.flat;
      let unique part name k ws =
        Array.iteri
          (fun i w ->
            Check.require
              (Printf.sprintf "elect %s unique winner" part)
              (w >= 0)
              (Printf.sprintf "%s k=%d trial %d: %s" name k i
                 (if w = cut_off then "hit the step cut-off"
                  else "not exactly one winner")))
          ws
      in
      Array.iteri
        (fun fi (name, _) ->
          Array.iteri (fun ki k -> unique "flat" name k p.flat_b.(fi).(ki).winners) ks)
        a.flat;
      Array.iteri
        (fun ei ea ->
          Array.iteri
            (fun ki k -> unique "effect" ea.e_name k p.eff_b.(ei).(ki).winners)
            ks)
        a.eff;
      Array.iteri
        (fun ai (name, _) ->
          Array.iteri (fun ki k -> unique "atomic" name k p.atomic_w.(ai).(ki)) ks)
        a.atomic)

(* The simulated metrics of a pass, over the flat and effect elections
   (atomic elections run in host time only). All are functions of the
   seed alone. *)
let sim_metrics p =
  let steps = ref 0 and spans = ref [] and count = ref 0 in
  let add b =
    Array.iteri
      (fun i s ->
        steps := !steps + s;
        spans := b.spans.(i) :: !spans;
        incr count)
      b.steps
  in
  Array.iter (Array.iter add) p.flat_b;
  Array.iter (Array.iter add) p.eff_b;
  let span_a = Array.of_list !spans in
  Array.sort compare span_a;
  let total_span = Array.fold_left ( + ) 0 span_a in
  let nel = float_of_int !count in
  [
    ("steps_per_elect", float_of_int !steps /. nel);
    ("lat_p50_ticks", float_of_int span_a.(Array.length span_a / 2));
    ("completions_per_ktick", 1000.0 *. nel /. float_of_int total_span);
  ]
