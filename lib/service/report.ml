type counts = {
  clients : int;
  completed : int;
  deadline_exceeded : int;
  crashed_clients : int;
  holder_crashes : int;
  forced_expiries : int;
  shed : int;
  retries : int;
  rounds : int;
  stale_wins : int;
}

type latency = {
  l_mode : string;  (* "exact" or "hist" *)
  l_n : int;
  l_mean : float;
  l_p50 : float;
  l_p95 : float;
  l_p99 : float;
  l_p999 : float;
  l_max : float;
}

type t = {
  backend : string;
  algorithm : string;
  keys : int;
  zipf_s : float;
  arrival : string;
  backoff : string;
  deadline : float;
  hold : float;
  crash_prob : float;
  workers : int;
  seed : int64;
  duration : float;
  throughput : float;
  counts : counts;
  latency : latency option;
  livelocked : bool;
  diagnosis : string option;
}

let latency_of_samples samples =
  if Array.length samples = 0 then None
  else begin
    let sorted = Array.copy samples in
    Array.sort Float.compare sorted;
    let s = Sim.Stats.summarize_sorted sorted in
    let p q = Sim.Stats.percentile_sorted sorted q in
    Some
      {
        l_mode = "exact";
        l_n = s.Sim.Stats.count;
        l_mean = s.Sim.Stats.mean;
        l_p50 = p 0.5;
        l_p95 = s.Sim.Stats.p95;
        l_p99 = p 0.99;
        l_p999 = s.Sim.Stats.p999;
        l_max = s.Sim.Stats.max;
      }
  end

let latency_of_histo h =
  match Histo.snapshot h with
  | None -> None
  | Some s ->
      Some
        {
          l_mode = Histo.mode_name h;
          l_n = s.Histo.s_n;
          l_mean = s.Histo.s_mean;
          l_p50 = s.Histo.s_p50;
          l_p95 = s.Histo.s_p95;
          l_p99 = s.Histo.s_p99;
          l_p999 = s.Histo.s_p999;
          l_max = s.Histo.s_max;
        }

(* Every client must end in exactly one bucket; the drivers assert this
   via [balanced] before reporting. Under the driver's retry-on-shed
   mode a shed is a non-terminal rejection event (the client retries),
   so it leaves the partition. *)
let balanced ?(shed_terminal = true) c =
  c.completed + c.deadline_exceeded + c.crashed_clients
  + (if shed_terminal then c.shed else 0)
  = c.clients

(* The counts by name, in report order: the JSON [counts] object and
   the [service.*] metrics share it. *)
let count_fields c =
  [
    ("clients", c.clients);
    ("completed", c.completed);
    ("deadline_exceeded", c.deadline_exceeded);
    ("crashed_clients", c.crashed_clients);
    ("holder_crashes", c.holder_crashes);
    ("forced_expiries", c.forced_expiries);
    ("shed", c.shed);
    ("retries", c.retries);
    ("rounds", c.rounds);
    ("stale_wins", c.stale_wins);
  ]

let to_json t =
  let module J = Obs.Json in
  J.to_string
    (J.Obj
       [
         ("backend", J.Str t.backend);
         ("algorithm", J.Str t.algorithm);
         ("keys", J.int t.keys);
         ("zipf_s", J.float "%g" t.zipf_s);
         ("arrival", J.Str t.arrival);
         ("backoff", J.Str t.backoff);
         ("deadline_ticks", J.float "%g" t.deadline);
         ("hold_ticks", J.float "%g" t.hold);
         ("crash_prob", J.float "%g" t.crash_prob);
         ("workers", J.int t.workers);
         ("seed", J.Num (Int64.to_string t.seed));
         ("duration_ticks", J.float "%.3f" t.duration);
         ("throughput_per_ktick", J.float "%.6f" t.throughput);
         ( "counts",
           J.Obj (List.map (fun (k, v) -> (k, J.int v)) (count_fields t.counts)) );
         ( "latency",
           match t.latency with
           | None -> J.Null
           | Some l ->
               J.Obj
                 [
                   ("mode", J.Str l.l_mode);
                   ("n", J.int l.l_n);
                   ("mean", J.float "%.3f" l.l_mean);
                   ("p50", J.float "%.3f" l.l_p50);
                   ("p95", J.float "%.3f" l.l_p95);
                   ("p99", J.float "%.3f" l.l_p99);
                   ("p999", J.float "%.3f" l.l_p999);
                   ("max", J.float "%.3f" l.l_max);
                 ] );
         ("livelocked", J.Bool t.livelocked);
         ("diagnosis", match t.diagnosis with None -> J.Null | Some d -> J.Str d);
       ])

let pp ppf t =
  let c = t.counts in
  Fmt.pf ppf
    "@[<v>service %s/%s: %d clients over %d keys (zipf %.2f, %s, backoff %s)@ \
     completed %d, deadline %d, crashed %d (holder %d), shed %d, stale %d@ \
     rounds %d, forced expiries %d, retries %d@ \
     duration %.0f ticks, throughput %.3f/ktick%a%a@]"
    t.backend t.algorithm c.clients t.keys t.zipf_s t.arrival t.backoff
    c.completed c.deadline_exceeded c.crashed_clients c.holder_crashes c.shed
    c.stale_wins c.rounds c.forced_expiries c.retries t.duration t.throughput
    (fun ppf -> function
      | None -> Fmt.pf ppf "@ latency: no completions"
      | Some l ->
          Fmt.pf ppf
            "@ latency ticks: p50 %.1f, p95 %.1f, p99 %.1f, p999 %.1f, max \
             %.1f (n=%d)"
            l.l_p50 l.l_p95 l.l_p99 l.l_p999 l.l_max l.l_n)
    t.latency
    (fun ppf -> function
      | false -> ()
      | true ->
          Fmt.pf ppf "@ LIVELOCKED: %s"
            (Option.value ~default:"(no diagnosis)" t.diagnosis))
    t.livelocked

(* Accumulate a finished report's totals into a Probe metrics registry,
   so service results aggregate and print through the same
   [Obs.Metrics] snapshot machinery as the chaos and profile layers. *)
let observe_metrics m t =
  List.iter
    (fun (name, v) -> Obs.Metrics.add (Obs.Metrics.counter m ("service." ^ name)) v)
    (count_fields t.counts)
