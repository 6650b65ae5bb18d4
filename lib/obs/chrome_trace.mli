(** Chrome trace-event exporter: renders the Probe event stream as
    trace-event JSON loadable in Perfetto ({:https://ui.perfetto.dev})
    or chrome://tracing.

    One trace process ([pid] 1, named ["rtas-sim"]) holds one track per
    simulated process ([tid] = simulator pid). Phase annotations become
    [B]/[E] duration spans; steps, flips, crashes and finishes become
    thread-scoped instant events ([ph = "i"]). Timestamps are simulation
    time, one shared-memory step per microsecond. Spans left open by
    crashed processes are closed automatically, so the emitted JSON
    always balances. *)

type t

val create : unit -> t

val sink : t -> Probe.sink
(** The sink feeding this trace; install with [Probe.install] or
    [Probe.with_sink]. *)

val n_events : t -> int
(** Events emitted so far (metadata included). *)

val name_thread : t -> tid:int -> string -> unit
(** Name a track before its first event; later names for the same [tid]
    (including the automatic ["p<tid>"]) are ignored. *)

val counter : t -> name:string -> ts:int -> value:float -> unit
(** Emit a Perfetto counter sample ([ph = "C"]) on the trace process.
    One call per (series, timestamp); Perfetto renders each distinct
    [name] as its own counter track. *)

val complete :
  t ->
  name:string ->
  ts:int ->
  dur:int ->
  tid:int ->
  ?args:(string * Json.t) list ->
  unit ->
  unit
(** Emit a complete span ([ph = "X"]): a [B]/[E] pair in one event,
    spanning [dur] microseconds from [ts] on track [tid], with [args]
    as the event's [args] object. *)

val to_string : t -> string
(** Finalise (close any still-open spans) and render the complete JSON
    document. After finalising, feeding further events raises
    [Invalid_argument]. *)
