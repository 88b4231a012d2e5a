(* The LI-BDN simulation network (the heart of host-decoupled execution,
   Section II-A of the paper).

   Each partition wraps its target logic in a latency-insensitive
   bounded dataflow network: input channels carry tokens into the
   partition, output channels carry tokens out.  Every output channel
   has a firing rule — it may produce its token for target cycle N once
   every input channel it combinationally depends on holds a token for
   cycle N (an empty dependency set is a "source" channel that fires
   from register state alone).  A partition advances a target cycle
   (the fireFSM) when all of its input channels hold a token and all of
   its output channels have fired.

   This module is the passive *topology*: partitions, channels,
   connections, seed tokens, and {!sweep}, the one state transition
   those firing rules allow (fire every ready output, then advance if
   possible).  It does not decide WHEN to sweep a partition — that is
   the {!Scheduler}'s job, which may visit partitions round-robin in one
   thread or spread them over domains.  Tokens are the only
   cross-partition (and cross-domain) communication, mirroring the QSFP
   cable. *)

type in_chan = {
  ic_spec : Channel.spec;
  ic_queue : Channel.token Channel.Bqueue.t;
  ic_rec : Telemetry.Profile.chan;
      (** the one record of the tokens pushed into and consumed from
          this queue: the profile's channel row and the metrics'
          [net.<p>.in.<c>.enq]/[deq] *)
  ic_peak : Telemetry.gauge;  (** peak queue occupancy observed *)
  ic_stalled : Telemetry.counter;
      (** times this input was the blocking one when its partition
          stalled (see {!record_stall}) *)
}

type out_chan = {
  oc_spec : Channel.spec;
  oc_deps : int list;  (** indices of input channels this one waits for *)
  oc_eval : unit -> unit;  (** evaluates the cone feeding this channel *)
  mutable oc_fired : bool;
  mutable oc_dests : (int * int) list;  (** (partition, input channel) *)
  mutable oc_attempts : int;  (** firing-rule attempts *)
  mutable oc_fires : int;  (** successful fires *)
}

type partition = {
  pt_index : int;
  pt_name : string;
  pt_engine : Engine.t;
  mutable pt_notif : Channel.Notifier.t;
      (** synchronization point shared by this partition's input queues
          (and, under fused domain placement, by the whole group's) *)
  pt_ins : in_chan array;
  pt_outs : out_chan array;
  mutable pt_cycle : int;
  mutable pt_drive : Engine.t -> int -> unit;
      (** Hook that sets the partition's external (non-channel) inputs
          for the given target cycle. *)
  pt_prof : Telemetry.Profile.part;
      (** the one record of the partition's run/exchange/spin/park/
          barrier timeline: the profile's partition row and the metrics'
          [sched.par.<p>.*] *)
}

type t = {
  mutable parts : partition list;  (* reversed during construction *)
  mutable frozen : partition array;
  queue_capacity : int;
  token_transfers : int Atomic.t;  (** total tokens moved, for statistics *)
  tel : Telemetry.t;
  tel_on : bool;
      (** cached [Telemetry.enabled tel]: gates the metrics-only samples
          (queue lengths) *)
  prof : Telemetry.Profile.t;
  prof_on : bool;
      (** cached [Telemetry.Profile.enabled prof]: {!sweep} counts engine
          passes and times a sample of target cycles only then *)
  recording : bool;
      (** either sink is live, fixed at creation: {!sweep} counts firing
          attempts, fires and tokens only then, and otherwise makes no
          call into the sinks *)
  mutable on_deadlock : (Telemetry.Snapshot.t -> unit) list;
      (** observers invoked (newest last) before {!raise_deadlock}
          raises — how a flight recorder dumps post-mortem state without
          this layer depending on it *)
  mutable groups : int array;
      (** domain-placement assignment: [groups.(i)] is partition [i]'s
          domain slot.  [[||]] (the default) means one domain per
          partition. *)
}

exception Deadlock of string

let default_queue_capacity = 1024

let create ?(queue_capacity = default_queue_capacity) ?(telemetry = Telemetry.null)
    ?(profile = Telemetry.Profile.null) () =
  {
    parts = [];
    frozen = [||];
    queue_capacity;
    token_transfers = Atomic.make 0;
    tel = telemetry;
    tel_on = Telemetry.enabled telemetry;
    prof = profile;
    prof_on = Telemetry.Profile.enabled profile;
    recording = Telemetry.enabled telemetry || Telemetry.Profile.enabled profile;
    on_deadlock = [];
    groups = [||];
  }

let telemetry t = t.tel
let profile t = t.prof
let profile_enabled t = t.prof_on
let recording t = t.recording

(** Registers an observer of {!raise_deadlock}: it receives the
    structured snapshot before the {!Deadlock} exception propagates.
    Observer exceptions are swallowed — the deadlock must surface. *)
let add_deadlock_hook t f = t.on_deadlock <- f :: t.on_deadlock

(** Declares a partition.  [outs] gives each output channel's spec
    together with the names of the input channels it combinationally
    depends on. *)
let add_partition t ~name ~engine ~(ins : Channel.spec list)
    ~(outs : (Channel.spec * string list) list) =
  let notif = Channel.Notifier.create () in
  let in_metric chan kind =
    Printf.sprintf "net.%s.in.%s.%s" name chan kind
  in
  let out_metric chan kind =
    Printf.sprintf "net.%s.out.%s.%s" name chan kind
  in
  let pt_ins =
    Array.of_list
      (List.map
         (fun (spec : Channel.spec) ->
           let chan = spec.Channel.name in
           let r = Telemetry.Profile.channel t.prof ~part:name ~name:chan in
           Telemetry.counter_of t.tel (in_metric chan "enq") (fun () ->
               Telemetry.Profile.enq_tokens r);
           Telemetry.counter_of t.tel (in_metric chan "deq") (fun () ->
               Telemetry.Profile.deq_tokens r);
           {
             ic_spec = spec;
             ic_queue = Channel.Bqueue.create ~capacity:t.queue_capacity ~notif;
             ic_rec = r;
             ic_peak = Telemetry.gauge t.tel (in_metric chan "peak");
             ic_stalled = Telemetry.counter t.tel (in_metric chan "stalled");
           })
         ins)
  in
  let index_of_in n =
    match
      Array.to_list pt_ins
      |> List.mapi (fun i ic -> (i, ic))
      |> List.find_opt (fun (_, ic) -> ic.ic_spec.Channel.name = n)
    with
    | Some (i, _) -> i
    | None -> invalid_arg (Printf.sprintf "partition %s: no input channel %s" name n)
  in
  let pt_outs =
    Array.of_list
      (List.map
         (fun ((spec : Channel.spec), deps) ->
           let oc =
             {
               oc_spec = spec;
               oc_deps = List.map index_of_in deps;
               oc_eval = engine.Engine.make_cone_eval (List.map fst spec.Channel.ports);
               oc_fired = false;
               oc_dests = [];
               oc_attempts = 0;
               oc_fires = 0;
             }
           in
           Telemetry.counter_of t.tel (out_metric spec.Channel.name "attempts") (fun () ->
               oc.oc_attempts);
           Telemetry.counter_of t.tel (out_metric spec.Channel.name "fires") (fun () ->
               oc.oc_fires);
           oc)
         outs)
  in
  let part =
    {
      pt_index = List.length t.parts;
      pt_name = name;
      pt_engine = engine;
      pt_notif = notif;
      pt_ins;
      pt_outs;
      pt_cycle = 0;
      pt_drive = (fun _ _ -> ());
      pt_prof =
        Telemetry.Profile.part t.prof ~name ~index:(List.length t.parts);
    }
  in
  t.parts <- part :: t.parts;
  part.pt_index

let freeze t = if t.frozen = [||] then t.frozen <- Array.of_list (List.rev t.parts)

let partitions t =
  freeze t;
  t.frozen

let partition t i =
  freeze t;
  t.frozen.(i)

let find_out t part name =
  let p = partition t part in
  match
    Array.to_list p.pt_outs |> List.find_opt (fun oc -> oc.oc_spec.Channel.name = name)
  with
  | Some oc -> oc
  | None -> invalid_arg (Printf.sprintf "partition %s: no output channel %s" p.pt_name name)

let find_in_index t part name =
  let p = partition t part in
  let rec go i =
    if i >= Array.length p.pt_ins then
      invalid_arg (Printf.sprintf "partition %s: no input channel %s" p.pt_name name)
    else if p.pt_ins.(i).ic_spec.Channel.name = name then i
    else go (i + 1)
  in
  go 0

(** Connects an output channel to an input channel (possibly of the same
    partition).  Fan-out is allowed: each destination receives a copy of
    every token. *)
let connect t ~src:(sp, sc) ~dst:(dp, dc) =
  let oc = find_out t sp sc in
  let di = find_in_index t dp dc in
  oc.oc_dests <- (dp, di) :: oc.oc_dests

let never_abort () = false

(** Pre-loads a token into an input channel before the simulation starts
    (fast-mode initialization; Section III-A2). *)
let seed t ~part ~chan (tok : Channel.token) =
  let p = partition t part in
  Channel.Bqueue.push
    p.pt_ins.(find_in_index t part chan).ic_queue
    tok ~block:false ~abort:never_abort

let set_drive t part f = (partition t part).pt_drive <- f

let cycle_of t part = (partition t part).pt_cycle

let token_transfers t = Atomic.get t.token_transfers

(** Applies a domain-placement assignment: partitions sharing a slot in
    [assign] are fused onto one domain and one synchronization point —
    their notifiers (and their input queues') are re-pointed at a shared
    per-group notifier, so a producer waking any member wakes the
    domain that multiplexes them all.  Slots must cover 0..max
    contiguously in the sense that every value in [0, max] appears.
    Only legal between runs (no domain may be blocked on the old
    notifiers); the assignment sticks until replaced.  An empty array
    restores the default one-domain-per-partition mapping (fresh
    per-partition notifiers). *)
let set_groups t assign =
  freeze t;
  let n = Array.length t.frozen in
  let rewire p notif =
    p.pt_notif <- notif;
    Array.iter (fun ic -> Channel.Bqueue.set_notifier ic.ic_queue notif) p.pt_ins
  in
  if Array.length assign = 0 then begin
    Array.iter (fun p -> rewire p (Channel.Notifier.create ())) t.frozen;
    t.groups <- [||]
  end
  else begin
    if Array.length assign <> n then
      invalid_arg "Network.set_groups: one slot per partition required";
    let slots = 1 + Array.fold_left max 0 assign in
    Array.iter
      (fun g ->
        if g < 0 || g >= n then invalid_arg "Network.set_groups: slot out of range")
      assign;
    let notifs = Array.init slots (fun _ -> Channel.Notifier.create ()) in
    Array.iteri (fun i p -> rewire p notifs.(assign.(i))) t.frozen;
    t.groups <- Array.copy assign
  end

(** The current placement assignment ([[||]] = one domain per
    partition). *)
let groups t = t.groups

(** Applies every partition's drive hook for the partition's current
    target cycle (0 on a fresh network).  Schedulers call this once at
    the start of each run, so a run resumed at cycle N drives cycle N,
    not cycle 0 again. *)
let prime t =
  freeze t;
  Array.iter (fun p -> p.pt_drive p.pt_engine p.pt_cycle) t.frozen

(** Captures the structured network-state snapshot every diagnostic
    derives from: per partition, the target cycle, input-queue depths,
    and each output channel's fired flag, dependencies and the empty
    subset of those dependencies currently blocking it. *)
let introspect t : Telemetry.Snapshot.t =
  freeze t;
  let parts =
    Array.to_list t.frozen
    |> List.map (fun p ->
           let in_name i = p.pt_ins.(i).ic_spec.Channel.name in
           {
             Telemetry.Snapshot.p_name = p.pt_name;
             p_index = p.pt_index;
             p_cycle = p.pt_cycle;
             p_inputs =
               Array.to_list p.pt_ins
               |> List.map (fun ic ->
                      {
                        Telemetry.Snapshot.in_chan = ic.ic_spec.Channel.name;
                        in_depth = Channel.Bqueue.length ic.ic_queue;
                      });
             p_outputs =
               Array.to_list p.pt_outs
               |> List.map (fun oc ->
                      {
                        Telemetry.Snapshot.out_chan = oc.oc_spec.Channel.name;
                        out_fired = oc.oc_fired;
                        out_deps = List.map in_name oc.oc_deps;
                        out_blocked_on =
                          (if oc.oc_fired then []
                           else
                             List.filter_map
                               (fun i ->
                                 if Channel.Bqueue.is_empty p.pt_ins.(i).ic_queue
                                 then Some (in_name i)
                                 else None)
                               oc.oc_deps);
                      });
           })
  in
  { Telemetry.Snapshot.parts }

(* Sampled timing.  Timing a partition's target cycle takes three to
   five clock reads, about 50 ns each in place: a tenth of a 10 µs
   five-partition ring cycle.  So a live profile times one cycle in
   [sample_every] of each partition and records each sampled duration
   times [sample_every]: run, exchange and pass ns are estimates, every
   count is exact.  The estimates carry the sampled cycles' own clock
   reads, one per phase, times [sample_every].  Cycle [c] is sampled
   when the fractional part of [c] times the golden ratio is below
   [1 / sample_every] (Fibonacci hashing): gaps of 8, 13 and 21 cycles,
   whose phases spread evenly over any period a design has where a
   fixed stride would alias with it. *)
let sample_every = 16

let timed_cycle c = (c * 0x278DDE6E5FD29F05) land max_int < max_int / sample_every

(* Charges [ns] of a sampled sweep to [p] as token exchange: sweep time
   outside the engine passes. *)
let charge_exchange p ns =
  let ns = sample_every * ns in
  Telemetry.Profile.add_exchange p.pt_prof ns;
  Telemetry.Profile.add_run p.pt_prof ns

(* One target-cycle step of [p]'s engine.  Under a live profile it
   counts the cycle and a local engine's passes (on the engine's own
   record, since its passes are the simulator's untimed ones).  In a
   sampled cycle ([t0], the sweep's start stamp, is non-zero) it also
   charges everything the sweep did before the step (firing rules, cone
   evals, token packing, queue operations) as exchange, and the comb and
   seq passes as run. *)
let step_engine t p ~t0 =
  let e = p.pt_engine in
  if t0 = 0 then begin
    e.Engine.eval_comb ();
    e.Engine.step_seq ();
    if t.prof_on then begin
      (match e.Engine.pass_record with
      | Some r ->
        Telemetry.Profile.add_comb r 0;
        Telemetry.Profile.add_seq r 0
      | None -> ());
      Telemetry.Profile.add_cycles p.pt_prof 1
    end
  end
  else begin
    let t1 = Telemetry.Clock.now_ns () in
    e.Engine.eval_comb ();
    let t2 = Telemetry.Clock.now_ns () in
    e.Engine.step_seq ();
    let t3 = Telemetry.Clock.now_ns () in
    charge_exchange p (t1 - t0);
    (match e.Engine.pass_record with
    | Some r ->
      Telemetry.Profile.add_comb r (sample_every * (t2 - t1));
      Telemetry.Profile.add_seq r (sample_every * (t3 - t2))
    | None -> ());
    Telemetry.Profile.add_run p.pt_prof (sample_every * (t3 - t1));
    Telemetry.Profile.add_cycles p.pt_prof 1
  end

(** One attempt at everything partition [p] can do: fire every output
    whose dependencies hold tokens (the firing rule), then advance one
    target cycle if every input holds a token and every output has fired
    (the fireFSM rule).  It touches the shared queue locks a constant
    number of times per sweep instead of a few times per channel:

    - ONE notifier lock snapshots every input channel's head token.
      Sound because this partition's domain is the only consumer: a
      non-empty head stays the head until we drop it, and a token
      pushed after the snapshot is caught by the scheduler's version
      guard (the push bumps the version, forcing a re-sweep before any
      park).
    - Every locally-ready output fires from that snapshot; each head is
      applied to the engine at most once per sweep even when several
      outputs share the dependency.
    - The advance rule consumes all heads under ONE lock with a single
      wakeup bump, once they are applied and before the engine steps.

    While a sink is live it counts attempts, fires and tokens.  Under a
    live profile, every sweep of a sampled cycle ({!timed_cycle}) is
    timed from its start: a productive one is charged to [p] as
    exchange and run ({!step_engine}), a failed one is not charged.
    Returns whether any transition happened. *)
let sweep t p ~block ~abort =
  freeze t;
  let t0 = if t.prof_on && timed_cycle p.pt_cycle then Telemetry.Clock.now_ns () else 0 in
  let n = p.pt_notif in
  let ni = Array.length p.pt_ins in
  let heads =
    if ni = 0 then [||]
    else begin
      Mutex.lock n.Channel.Notifier.n_mu;
      let hs =
        Array.map (fun ic -> Channel.Bqueue.peek_opt_unlocked ic.ic_queue) p.pt_ins
      in
      Mutex.unlock n.Channel.Notifier.n_mu;
      hs
    end
  in
  let applied = Array.make (max ni 1) false in
  let apply_once i =
    if not applied.(i) then begin
      applied.(i) <- true;
      match heads.(i) with
      | Some tok ->
        Channel.apply_token p.pt_ins.(i).ic_spec p.pt_engine.Engine.set_input tok
      | None -> invalid_arg "sweep: applying empty input"
    end
  in
  let have i = heads.(i) <> None in
  let progress = ref false in
  Array.iter
    (fun oc ->
      if t.recording then oc.oc_attempts <- oc.oc_attempts + 1;
      if (not oc.oc_fired) && List.for_all have oc.oc_deps then begin
        List.iter apply_once oc.oc_deps;
        oc.oc_eval ();
        let tok = Channel.token_of_ports_batch oc.oc_spec p.pt_engine.Engine.get_ports in
        oc.oc_fired <- true;
        (* Every destination shares [tok]: tokens are built fresh above
           and never mutated afterwards — [apply_token] and the debug
           readers only read them, and checkpoints and snapshots copy. *)
        List.iter
          (fun (dp, di) ->
            let dst = t.frozen.(dp).pt_ins.(di) in
            Channel.Bqueue.push dst.ic_queue tok ~block ~abort;
            Atomic.incr t.token_transfers;
            if t.recording then begin
              Telemetry.Profile.add_enq dst.ic_rec ~tokens:1 0;
              if t.tel_on then
                Telemetry.set_max dst.ic_peak (Channel.Bqueue.length dst.ic_queue)
            end)
          oc.oc_dests;
        if t.recording then oc.oc_fires <- oc.oc_fires + 1;
        progress := true
      end)
    p.pt_outs;
  let all_inputs = Array.for_all Option.is_some heads in
  if all_inputs && Array.for_all (fun oc -> oc.oc_fired) p.pt_outs then begin
    for i = 0 to ni - 1 do
      apply_once i
    done;
    if ni > 0 then begin
      Mutex.lock n.Channel.Notifier.n_mu;
      Array.iter (fun ic -> Channel.Bqueue.drop_unlocked ic.ic_queue) p.pt_ins;
      Channel.Notifier.bump n;
      Mutex.unlock n.Channel.Notifier.n_mu;
      if t.recording then
        Array.iter (fun ic -> Telemetry.Profile.add_deq ic.ic_rec ~tokens:1 0) p.pt_ins
    end;
    step_engine t p ~t0;
    Array.iter (fun oc -> oc.oc_fired <- false) p.pt_outs;
    p.pt_cycle <- p.pt_cycle + 1;
    p.pt_drive p.pt_engine p.pt_cycle;
    true
  end
  else begin
    if t0 <> 0 && !progress then charge_exchange p (Telemetry.Clock.now_ns () - t0);
    !progress
  end

(* ------------------------------------------------------------------ *)
(* Quiescence (deadlock detection)                                     *)
(* ------------------------------------------------------------------ *)

(* Whether the firing rules permit [p] any state transition, judged
   purely from token availability and fired flags — the same conditions
   {!sweep} tests before touching the engine.  Reads
   are unsynchronized: only call when every domain that could mutate the
   state is parked (all-blocked in the parallel scheduler, or trivially
   in the sequential one). *)
let can_progress p =
  let can_fire oc =
    (not oc.oc_fired)
    && List.for_all
         (fun i -> not (Channel.Bqueue.is_empty_unsynchronized p.pt_ins.(i).ic_queue))
         oc.oc_deps
  in
  let can_advance =
    Array.for_all
      (fun ic -> not (Channel.Bqueue.is_empty_unsynchronized ic.ic_queue))
      p.pt_ins
    && Array.for_all (fun oc -> oc.oc_fired) p.pt_outs
  in
  Array.exists can_fire p.pt_outs || can_advance

(** True when no partition still short of [target] cycles can fire or
    advance: the network can never make progress again — the Fig. 2a
    circular-dependency deadlock.  Only meaningful when all partitions
    are quiescent (see {!can_progress}). *)
let quiescent t ~target =
  freeze t;
  Array.for_all (fun p -> p.pt_cycle >= target || not (can_progress p)) t.frozen

(** The empty input channel currently gating [p]'s progress: a
    dependency of an unfired output, or — when every output has fired —
    an empty input blocking the advance rule.  Unsynchronized reads
    (telemetry attribution only, so a racing push is harmless). *)
let blocking_input p =
  let empty i = Channel.Bqueue.is_empty_unsynchronized p.pt_ins.(i).ic_queue in
  let from_outputs =
    Array.to_list p.pt_outs
    |> List.find_map (fun oc ->
           if oc.oc_fired then None else List.find_opt empty oc.oc_deps)
  in
  let from_advance () =
    if Array.for_all (fun oc -> oc.oc_fired) p.pt_outs then
      let rec go i =
        if i >= Array.length p.pt_ins then None
        else if empty i then Some i
        else go (i + 1)
      in
      go 0
    else None
  in
  (match from_outputs with Some _ as s -> s | None -> from_advance ())
  |> Option.map (fun i -> p.pt_ins.(i))

(** Attributes one stall of [p] to its blocking input channel (bumps its
    [stalled] counter) and returns the channel name, for span labels. *)
let record_stall p =
  match blocking_input p with
  | None -> None
  | Some ic ->
    Telemetry.incr ic.ic_stalled;
    Some ic.ic_spec.Channel.name

(** Captures the structured snapshot, records it on the network's
    telemetry sinks (metrics registry and trace collector), and raises
    {!Deadlock} with the human rendering embedded in the message. *)
let raise_deadlock t =
  let snap = introspect t in
  Telemetry.record_deadlock t.tel snap;
  List.iter (fun f -> try f snap with _ -> ()) (List.rev t.on_deadlock);
  raise
    (Deadlock
       ("LI-BDN deadlock: network is quiescent — no output channel can fire \
         and no partition can advance\n"
       ^ Telemetry.Snapshot.to_string snap))

(* ------------------------------------------------------------------ *)
(* Checkpoints and snapshots                                           *)
(* ------------------------------------------------------------------ *)

(** Captures the whole network's state — engine architectural state,
    in-flight channel tokens, per-channel fired flags and target cycles.
    The returned thunk rolls everything back, enabling re-execution from
    a checkpoint (e.g. to bisect for the first bad cycle after a long
    bug hunt). *)
let checkpoint t =
  freeze t;
  let parts =
    Array.map
      (fun p ->
        let queues =
          Array.map
            (fun ic -> List.map Array.copy (Channel.Bqueue.to_list ic.ic_queue))
            p.pt_ins
        in
        let fired = Array.map (fun oc -> oc.oc_fired) p.pt_outs in
        let restore_engine = p.pt_engine.Engine.checkpoint () in
        (p, queues, fired, restore_engine, p.pt_cycle))
      t.frozen
  in
  let transfers = Atomic.get t.token_transfers in
  fun () ->
    Array.iter
      (fun (p, queues, fired, restore_engine, cycle) ->
        restore_engine ();
        Array.iteri
          (fun i toks ->
            Channel.Bqueue.set_contents p.pt_ins.(i).ic_queue (List.map Array.copy toks))
          queues;
        Array.iteri (fun i f -> p.pt_outs.(i).oc_fired <- f) fired;
        p.pt_cycle <- cycle)
      parts;
    Atomic.set t.token_transfers transfers

(* Serializable counterpart of {!checkpoint}: plain data (no closures),
   so callers can write it to disk.  Engine architectural state is NOT
   included — the runtime layer serializes each unit's simulator state
   alongside. *)
type snapshot = {
  sn_parts : (Channel.token list array * bool array * int) array;
      (** per partition: in-channel queues, out-channel fired flags,
          target cycle *)
  sn_transfers : int;
}

let snapshot t =
  freeze t;
  {
    sn_parts =
      Array.map
        (fun p ->
          ( Array.map
              (fun ic -> List.map Array.copy (Channel.Bqueue.to_list ic.ic_queue))
              p.pt_ins,
            Array.map (fun oc -> oc.oc_fired) p.pt_outs,
            p.pt_cycle ))
        t.frozen;
    sn_transfers = Atomic.get t.token_transfers;
  }

let restore t sn =
  freeze t;
  if Array.length sn.sn_parts <> Array.length t.frozen then
    invalid_arg "Network.restore: partition count mismatch";
  Array.iteri
    (fun i p ->
      let queues, fired, cycle = sn.sn_parts.(i) in
      if Array.length queues <> Array.length p.pt_ins
         || Array.length fired <> Array.length p.pt_outs
      then invalid_arg "Network.restore: channel count mismatch";
      Array.iteri
        (fun j toks ->
          Channel.Bqueue.set_contents p.pt_ins.(j).ic_queue (List.map Array.copy toks))
        queues;
      Array.iteri (fun j f -> p.pt_outs.(j).oc_fired <- f) fired;
      p.pt_cycle <- cycle)
    t.frozen;
  Atomic.set t.token_transfers sn.sn_transfers
