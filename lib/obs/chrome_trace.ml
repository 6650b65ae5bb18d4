(* Chrome trace-event exporter: a Probe sink that renders the simulator
   event stream as trace-event JSON loadable in Perfetto
   (ui.perfetto.dev) or chrome://tracing.

   Layout: one trace process (pid 1, named "rtas-sim") with one track
   per simulated process (tid = simulator pid). Phase annotations become
   B/E duration spans on the process's track; individual shared-memory
   steps, coin flips, crashes and finishes become thread-scoped instant
   events ("ph":"i") so they never violate B/E nesting. Timestamps are
   simulation time (one step = 1 "us"); span enter/exit carry the time
   of the last step seen, which keeps them inside their neighbours.

   Processes that crash mid-span never emit their E events; we close
   those spans ourselves — on crash/finish, and for any still-open span
   when the trace is finalised — so the JSON always balances. *)

type t = {
  events : Json.stream;
  mutable now : int;  (* sim time of the last step seen *)
  mutable finalised : bool;
  mutable n_events : int;
  open_spans : (int, string list ref) Hashtbl.t;  (* pid -> open phases *)
  seen : (int, unit) Hashtbl.t;  (* pids with thread metadata emitted *)
}

let trace_pid = 1

(* Every event — metadata included — carries ph/ts/pid/tid so consumers
   can rely on the fields unconditionally. *)
let event t ~name ~ph ~ts ~tid ?(extra = []) ?(args = []) () =
  if t.finalised then invalid_arg "Chrome_trace: trace already finalised";
  Json.push t.events
    (Json.Obj
       ([
          ("name", Json.Str name);
          ("ph", Json.Str ph);
          ("ts", Json.int ts);
          ("pid", Json.int trace_pid);
          ("tid", Json.int tid);
        ]
       @ extra
       @ if args = [] then [] else [ ("args", Json.Obj args) ]));
  t.n_events <- t.n_events + 1

let thread_scoped = [ ("s", Json.Str "t") ]

let name_thread t ~tid name =
  if not (Hashtbl.mem t.seen tid) then begin
    Hashtbl.add t.seen tid ();
    event t ~name:"thread_name" ~ph:"M" ~ts:0 ~tid
      ~args:[ ("name", Json.Str name) ]
      ()
  end

let thread_meta t pid =
  if not (Hashtbl.mem t.seen pid) then
    name_thread t ~tid:pid (Printf.sprintf "p%d" pid)

let create () =
  let t =
    {
      events = Json.stream "traceEvents";
      now = 0;
      finalised = false;
      n_events = 0;
      open_spans = Hashtbl.create 16;
      seen = Hashtbl.create 16;
    }
  in
  event t ~name:"process_name" ~ph:"M" ~ts:0 ~tid:0
    ~args:[ ("name", Json.Str "rtas-sim") ]
    ();
  t

let spans t pid =
  match Hashtbl.find_opt t.open_spans pid with
  | Some s -> s
  | None ->
      let s = ref [] in
      Hashtbl.add t.open_spans pid s;
      s

let on_step t ~time ~pid ~reg ~reg_name ~write ~value ~rmr ~invalidated =
  t.now <- time;
  thread_meta t pid;
  let name =
    if write then Printf.sprintf "W %s=%d" reg_name value
    else Printf.sprintf "R %s=%d" reg_name value
  in
  event t ~name ~ph:"i" ~ts:time ~tid:pid ~extra:thread_scoped
    ~args:
      [
        ("reg", Json.int reg);
        ("write", Json.Bool write);
        ("value", Json.int value);
        ("rmr", Json.Bool rmr);
        ("invalidated", Json.int invalidated);
      ]
    ()

let on_flip t ~time ~pid ~bound ~outcome =
  t.now <- time;
  thread_meta t pid;
  event t ~name:"flip" ~ph:"i" ~ts:time ~tid:pid ~extra:thread_scoped
    ~args:[ ("bound", Json.int bound); ("outcome", Json.int outcome) ]
    ()

let on_span_enter t ~pid ~phase =
  thread_meta t pid;
  let s = spans t pid in
  s := phase :: !s;
  event t ~name:phase ~ph:"B" ~ts:t.now ~tid:pid ()

let close_one t ~pid phase = event t ~name:phase ~ph:"E" ~ts:t.now ~tid:pid ()

let on_span_exit t ~pid ~phase =
  let s = spans t pid in
  match !s with
  | top :: rest ->
      s := rest;
      (* B/E must pop in LIFO order; exits are emitted for the actual
         top of stack even on a (buggy) mismatched annotation. *)
      close_one t ~pid top
  | [] -> ignore phase

let drain t ~pid =
  let s = spans t pid in
  List.iter (fun phase -> close_one t ~pid phase) !s;
  s := []

let on_crash t ~time ~pid =
  t.now <- time;
  thread_meta t pid;
  drain t ~pid;
  event t ~name:"crash" ~ph:"i" ~ts:time ~tid:pid ~extra:thread_scoped ()

let on_finish t ~time ~pid ~result =
  t.now <- time;
  thread_meta t pid;
  drain t ~pid;
  event t ~name:"finish" ~ph:"i" ~ts:time ~tid:pid ~extra:thread_scoped
    ~args:[ ("result", Json.int result) ]
    ()

(* {1 Direct emitters}

   Used by the service layer, which has no Probe event stream (along
   with [name_thread]): counter
   tracks ("ph":"C", rendered as stacked area charts by Perfetto) and
   complete spans ("ph":"X", a B/E pair in one event — no nesting
   bookkeeping needed for the non-overlapping per-key round spans). *)

let counter t ~name ~ts ~value =
  event t ~name ~ph:"C" ~ts ~tid:0
    ~args:[ ("value", Json.float "%g" value) ]
    ()

let complete t ~name ~ts ~dur ~tid ?args () =
  thread_meta t tid;
  if ts > t.now then t.now <- ts;
  event t ~name ~ph:"X" ~ts ~tid ~extra:[ ("dur", Json.int dur) ] ?args ()

let sink t =
  {
    Probe.on_step =
      (fun ~time ~pid ~reg ~reg_name ~write ~value ~rmr ~invalidated ->
        on_step t ~time ~pid ~reg ~reg_name ~write ~value ~rmr ~invalidated);
    on_flip = (fun ~time ~pid ~bound ~outcome -> on_flip t ~time ~pid ~bound ~outcome);
    on_crash = (fun ~time ~pid -> on_crash t ~time ~pid);
    on_finish = (fun ~time ~pid ~result -> on_finish t ~time ~pid ~result);
    on_span_enter = (fun ~pid ~phase -> on_span_enter t ~pid ~phase);
    on_span_exit = (fun ~pid ~phase -> on_span_exit t ~pid ~phase);
  }

let n_events t = t.n_events

let finalise t =
  if not t.finalised then begin
    (* Close spans left open by processes the run never resumed. *)
    Hashtbl.iter (fun pid _ -> drain t ~pid) t.open_spans;
    t.finalised <- true
  end

let to_string t =
  finalise t;
  Json.stream_to_string t.events [ ("displayTimeUnit", Json.Str "ms") ]
