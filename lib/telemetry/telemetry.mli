(** The telemetry sink threaded through the LI-BDN execution layers:
    named counters, gauges and exact-percentile histograms (backed by
    {!Des.Stats}), an optional Chrome-trace collector, and the last
    structured deadlock snapshot — exported together as one JSON
    metrics document.

    The disabled default ({!null}) registers nothing and hands out inert
    metrics; the hot layers choose their recording variant once at build
    time, so with every sink off they make no call here.  An event the
    profiler records too is kept once, in its {!Profile} record, and
    exported here through a view ({!counter_of}).  Counters and gauges
    are atomics (partitions record from their own domains); histograms
    take a per-histogram mutex. *)

(** The sibling modules, re-exported under the library's main module. *)
module Json = Json

module Clock = Clock

module Chrome_trace = Chrome_trace
module Snapshot = Snapshot
module Profile = Profile

type counter
type gauge
type hist
type t

(** The shared disabled sink; all recording through it is a no-op. *)
val null : t

(** A live sink; [trace] additionally attaches a Chrome-trace
    collector. *)
val create : ?trace:bool -> unit -> t

val enabled : t -> bool
val trace : t -> Chrome_trace.t option

(** Get-or-create by name.  On a disabled sink these return inert
    dummies without registering anything. *)
val counter : t -> string -> counter

val gauge : t -> string -> gauge
val hist : t -> string -> hist

(** Registers a counter (gauge) whose value is [read ()] at export —
    how an event recorded once in a {!Profile} record, or in a
    subsystem's own tally, is exported under its metric name.  No-op on
    a disabled sink or when [name] is already registered. *)
val counter_of : t -> string -> (unit -> int) -> unit

val gauge_of : t -> string -> (unit -> int) -> unit

val incr : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int

val set : gauge -> int -> unit

(** Monotone max update (safe under concurrent recorders). *)
val set_max : gauge -> int -> unit

val gauge_value : gauge -> int

val observe : hist -> int -> unit

(** Records a structured network snapshot on both sinks: kept for the
    metrics exporter, and emitted as an instant event on the trace. *)
val record_deadlock : t -> Snapshot.t -> unit

val last_deadlock : t -> Snapshot.t option

(** Registered metrics in registration order. *)
val counters : t -> (string * int) list

val gauges : t -> (string * int) list

(** Histogram summaries (count/mean/p50/p90/p99/max) as JSON. *)
val hists : t -> (string * Json.t) list

(** The whole registry as one JSON metrics snapshot (schema
    [fireaxe-metrics-1]). *)
val metrics_json : t -> Json.t

val metrics_json_string : t -> string
val write_metrics : t -> path:string -> unit

(** Writes the Chrome trace; no-op when the sink has no collector. *)
val write_trace : t -> path:string -> unit
