(** Hot-path profiling sink.

    Attributes time and retired work at three granularities:

    - {b engine}: per-opcode-class retired-instruction counts and pass
      time.  The bytecode programs are straight-line, so the static
      class histogram captured at registration times the pass count
      gives exact retired counts.  Cone evals are counted, not timed.
    - {b scheduler}: per-partition run / token-exchange / spin / park /
      barrier time.
    - {b network}: per-channel token counts, plus remote-worker wire
      cost.

    Every duration is a difference of {!Clock} stamps; the network
    times a sample of target cycles, so pass, run and exchange ns are
    estimates while every count is exact.  Recorders are
    plain single-writer records, so recording never allocates, takes a
    lock or tests a flag; callers choose their recording variant once at
    build time and make no call here when every sink is off.  Recorders
    minted from {!null} are never exported, which is what lets the
    metrics sink ({!Telemetry}) read the same record: each event is
    recorded once, live when either sink is. *)

type t

(** Registered recorders.  Registration is thread-safe and build-time
    only; each recorder has a single writer. *)
type engine

type cone
type part
type chan
type wire

val null : t
(** The shared disabled sink: recorders minted from it are never
    exported. *)

val create : unit -> t
val enabled : t -> bool

val set_wall_ns : t -> int -> unit
(** Pins the wall-clock denominator used by the export.  Unpinned, the
    export uses the scheduler-accumulated parallel-section time
    ({!add_wall_ns}), or the profile's age when nothing accumulated. *)

val add_wall_ns : t -> int -> unit
(** Accumulates one parallel section's wall time into the export
    denominator — the scheduler calls this around each profiled
    [run_par]. *)

(** {1 Registration} *)

val engine :
  t ->
  label:string ->
  kind:string ->
  lanes:int ->
  comb_hist:(string * int) list ->
  seq_hist:(string * int) list ->
  engine
(** [comb_hist]/[seq_hist] are static opcode-class histograms of one
    combinational pass / one sequential step. *)

val cone :
  t -> label:string -> name:string -> instrs:int -> hist:(string * int) list -> cone

val part : t -> name:string -> index:int -> part
(** Get-or-create by [name]: repeated runs of the same network keep
    accumulating into one row. *)

val channel : t -> part:string -> name:string -> chan
val wire : t -> label:string -> wire

val add_slice : t -> label:string -> Json.t -> unit
(** Attach a remote worker's shipped profile document verbatim. *)

(** {1 Recording} — each call counts one event and adds its ns. *)

val add_comb : engine -> int -> unit
val add_seq : engine -> int -> unit
val add_cone_eval : cone -> int -> unit
val add_run : part -> int -> unit
val add_exchange : part -> int -> unit
val add_spin : part -> int -> unit

val add_active : part -> int -> unit
(** A parallel worker's time between parks: its productive visits (also
    recorded as run) and failed ones, and its busy-waits.  The export
    charges what run does not cover to spin. *)

val add_park : part -> int -> unit
val add_barrier : part -> int -> unit
val add_cycles : part -> int -> unit
val add_enq : chan -> tokens:int -> int -> unit
val add_deq : chan -> tokens:int -> int -> unit

val add_wire : wire -> bytes_out:int -> bytes_in:int -> int -> unit
(** One timed request/reply round trip. *)

val add_bytes : wire -> bytes_out:int -> bytes_in:int -> unit
(** Traffic outside a timed round trip (pipelined commands, multi-line
    replies). *)

(** {1 Reads shared with the metrics sink} *)

val active_ns : part -> int
val spins : part -> int
val parks : part -> int
val park_ns : part -> int
val barrier_ns : part -> int
val enq_tokens : chan -> int
val deq_tokens : chan -> int
val bytes_out : wire -> int
val bytes_in : wire -> int

(** {1 Export} *)

val load_weights : t -> (string * int) list
(** Per-label placement weights distilled from the load model: measured
    active ns when this profile recorded any (a previous run's truth
    beats any static prediction), else the predicted static weight
    (instrs per target cycle).  Empty for {!null}.  Feeds the placement
    pass that bin-packs partitions onto host domains. *)

val to_json : t -> Json.t
(** The whole profile as a [fireaxe-profile-1] document: engines,
    retired opcode-class totals, cones, partitions, channels, wires,
    remote slices and the partition load model. *)

val slice_string : t -> string
(** One-line JSON encoding of {!to_json} — what a worker ships back
    over the pipe protocol. *)

val write : t -> path:string -> unit

val report_string : t -> string
(** Human-readable load-model report: per-partition predicted
    vs. measured weights, imbalance factors, scheduler breakdown, and
    the top-K cones by retired work and channels by tokens. *)

val trace_into : t -> Chrome_trace.t -> unit
(** Renders the profile as flamegraph-style phase spans into an
    existing Chrome-trace collector. *)

val write_trace : t -> path:string -> unit
