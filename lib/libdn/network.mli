(** The LI-BDN simulation network (paper §II-A): partitions exchange
    per-cycle tokens over latency-insensitive channels; each output
    channel fires once its combinational dependencies hold tokens; a
    partition advances (fireFSM) when all inputs hold tokens and all
    outputs have fired.

    This module is the passive topology plus {!sweep}, the one state
    transition the firing rules allow; deciding when to sweep which
    partition belongs to {!Scheduler}, which can visit partitions in one
    thread or spread them over domains. *)

type in_chan = {
  ic_spec : Channel.spec;
  ic_queue : Channel.token Channel.Bqueue.t;
  ic_rec : Telemetry.Profile.chan;
      (** tokens pushed and consumed, read by both sinks *)
  ic_peak : Telemetry.gauge;
  ic_stalled : Telemetry.counter;
}

type out_chan = {
  oc_spec : Channel.spec;
  oc_deps : int list;
  oc_eval : unit -> unit;
  mutable oc_fired : bool;
  mutable oc_dests : (int * int) list;
  mutable oc_attempts : int;
  mutable oc_fires : int;
}

type partition = {
  pt_index : int;
  pt_name : string;
  pt_engine : Engine.t;
  mutable pt_notif : Channel.Notifier.t;
  pt_ins : in_chan array;
  pt_outs : out_chan array;
  mutable pt_cycle : int;
  mutable pt_drive : Engine.t -> int -> unit;
  pt_prof : Telemetry.Profile.part;
      (** the partition's timeline, read by both sinks *)
}

type t

exception Deadlock of string

(** [queue_capacity] bounds every input channel queue (default
    {!default_queue_capacity}); the parallel scheduler backpressures on
    a full queue, the sequential one treats it as a hard error.
    [telemetry] (default {!Telemetry.null}) makes every channel register
    per-channel counters and gauges; with it and [profile] both off,
    {!sweep} makes no call into either sink. *)
val create :
  ?queue_capacity:int -> ?telemetry:Telemetry.t -> ?profile:Telemetry.Profile.t -> unit -> t

val default_queue_capacity : int

(** The sink the network records into ({!Telemetry.null} if none was
    given). *)
val telemetry : t -> Telemetry.t

(** The profile sink the network (and the schedulers running it)
    record into ({!Telemetry.Profile.null} if none was given). *)
val profile : t -> Telemetry.Profile.t

val profile_enabled : t -> bool

(** Whether either sink is live (fixed at {!create}): the network then
    counts firing attempts, fires and token movement, and the parallel
    scheduler reads the clock at its workers' parks.  Sweep timing
    needs a live profile ({!sweep}). *)
val recording : t -> bool

(** Declares a partition; [outs] pairs each output channel with the
    names of the input channels it combinationally depends on.  Returns
    the partition index.  Add all partitions before connecting. *)
val add_partition :
  t ->
  name:string ->
  engine:Engine.t ->
  ins:Channel.spec list ->
  outs:(Channel.spec * string list) list ->
  int

val partition : t -> int -> partition

(** All partitions, in declaration order (freezes the topology). *)
val partitions : t -> partition array

(** Connects an output channel to an input channel; fan-out allowed. *)
val connect : t -> src:int * string -> dst:int * string -> unit

(** Pre-loads a token (fast-mode seeding, §III-A2). *)
val seed : t -> part:int -> chan:string -> Channel.token -> unit

(** Per-cycle hook setting a partition's external inputs. *)
val set_drive : t -> int -> (Engine.t -> int -> unit) -> unit

val cycle_of : t -> int -> int
val token_transfers : t -> int

(** Applies a domain-placement assignment: partitions sharing a slot
    are fused onto one domain and one shared notifier (their input
    queues re-pointed), so the parallel scheduler spawns one domain per
    group instead of one per partition.  Only legal between runs; an
    empty array restores one-domain-per-partition (fresh notifiers). *)
val set_groups : t -> int array -> unit

(** The current placement assignment ([[||]] = one domain per
    partition). *)
val groups : t -> int array

(** Applies every partition's drive hook for the partition's current
    target cycle (0 on a fresh network); schedulers call this once at
    the start of each run, so stepped runs drive each cycle once. *)
val prime : t -> unit

(** Structured network-state snapshot — per partition: target cycle,
    input-queue depths, unfired outputs with their dependencies and the
    empty subset currently blocking them.  Every diagnostic rendering
    derives from this. *)
val introspect : t -> Telemetry.Snapshot.t

(** One attempt at everything [p] can do: fire every output whose
    dependencies hold tokens, then advance one target cycle (consume one
    token per input, step the engine, reset fired flags, drive the new
    cycle) if every input holds a token and every output has fired.  A
    single notifier lock snapshots all input heads, each head is applied
    to the engine at most once, and the advance consumes all heads under
    one lock with a single wakeup bump.  While {!recording} it counts
    attempts, fires and tokens.  Under a live profile it counts engine
    passes and times one target cycle in 16 of each partition, sampled
    by Fibonacci hashing of the cycle number: a productive sweep of a
    sampled cycle charges its time outside the engine passes as the
    partition's exchange and a local engine's passes on its record,
    each times 16.  [block] selects backpressure on
    a full destination queue ([true] in the parallel scheduler, else
    {!Channel.Bqueue.Full}); [abort] lets a blocked push bail out.
    Returns whether any transition happened. *)
val sweep : t -> partition -> block:bool -> abort:(unit -> bool) -> bool

(** True when no partition short of [target] cycles can fire or advance:
    the Fig. 2a deadlock.  Only meaningful when all partitions are
    quiescent. *)
val quiescent : t -> target:int -> bool

(** Attributes one stall of [p] to its blocking input (bumping its
    [stalled] counter); returns the channel name for span labels. *)
val record_stall : partition -> string option

(** Registers an observer of {!raise_deadlock}: it receives the
    structured snapshot before the {!Deadlock} exception propagates
    (how a flight recorder dumps post-mortem state without this layer
    depending on it).  Observer exceptions are swallowed. *)
val add_deadlock_hook : t -> (Telemetry.Snapshot.t -> unit) -> unit

(** Captures {!introspect}, records it on the telemetry sinks (metrics
    registry and trace collector), notifies {!add_deadlock_hook}
    observers, and raises {!Deadlock} with the human rendering embedded
    in the message. *)
val raise_deadlock : t -> 'a

(** Captures the whole network (engine state, in-flight tokens, fired
    flags, cycles); the returned thunk rolls everything back. *)
val checkpoint : t -> unit -> unit

(** Serializable counterpart of {!checkpoint}: plain data (per-partition
    in-channel queues, fired flags and cycles), no engine state — the
    caller serializes unit simulator state alongside. *)
type snapshot = {
  sn_parts : (Channel.token list array * bool array * int) array;
  sn_transfers : int;
}

val snapshot : t -> snapshot

(** Restores a snapshot into a network of the same shape (same plan). *)
val restore : t -> snapshot -> unit
