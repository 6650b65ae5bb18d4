(* Probe, the observability layer: metrics, tracing sinks, per-phase
   attribution, Perfetto export and the JSON every exporter writes.

   [include Probe] makes the phase annotation points available as
   [Obs.enter]/[Obs.leave]/[Obs.span] directly, which is how algorithm
   code spells them. *)

module Json = Json
module Metrics = Metrics
module Timeseries = Timeseries
module Probe = Probe
module Collector = Collector
module Chrome_trace = Chrome_trace
include Probe
