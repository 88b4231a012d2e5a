(* Schedulers: execution policies over a passive {!Network} topology.

   The LI-BDN firing rules make token streams deterministic regardless
   of attempt order, so any policy that keeps calling {!Network.sweep}
   until every partition reaches the target cycle computes the same
   register state.  Two policies are provided:

   - {!Sequential}: the classic single-threaded round-robin sweep, the
     reference implementation (and the right choice for cycle-stepping
     drivers that interleave host work between cycles).

   - {!Parallel}: partitions spread over OCaml 5 domains, mirroring the
     paper's deployment where each FPGA simulates its partition
     concurrently and simulation tokens are the only synchronization.
     Tokens move through the bounded thread-safe queues of
     {!Channel.Bqueue}; an idle worker first spins on its notifier
     version for an adaptive budget, then parks until a token arrives.

   Every parallel worker runs the same loop ({!par_worker}) over the
   partitions it owns: one partition per domain by default (and always
   under a live profile), or one fused group per domain under
   {!Network.set_groups}.  On a host with a single hardware thread,
   domains cannot run concurrently — spawning them only adds context
   switches and futex traffic — so one worker owns every partition and
   runs inline on the calling domain (same firing rules, same deadlock
   judgment, same telemetry schema).  With fewer hardware threads than
   workers, domains are spawned but spinning is disabled: a spinner
   would burn a core its producer needs.

   Deadlock (the Fig. 2a merged-channel scenario) is detected in both
   policies by the same authoritative quiescence check
   ({!Network.quiescent}): the network is dead iff no unfinished
   partition's firing rules permit any transition.  In the parallel
   scheduler the check runs when the last unfinished worker parks (or
   after a fruitless inline round); a false alarm is impossible because
   the check inspects actual token state, not just the parked-worker
   count. *)

type t = Sequential | Parallel

let default = Sequential
let name = function Sequential -> "seq" | Parallel -> "par"

let accepted_names = [ "seq"; "sequential"; "par"; "parallel" ]

let of_string = function
  | "seq" | "sequential" -> Ok Sequential
  | "par" | "parallel" -> Ok Parallel
  | s ->
    Error
      (Printf.sprintf "unknown scheduler %S (accepted: %s)" s
         (String.concat "|" accepted_names))

let never_abort () = false

(* ------------------------------------------------------------------ *)
(* Static load-balanced placement (bin packing)                        *)
(* ------------------------------------------------------------------ *)

(* Longest-processing-time greedy bin packing: heaviest partition first
   into the least-loaded domain.  Classic 4/3-approximate makespan —
   good enough for a handful of partitions, and deterministic.  Returns
   the domain slot per partition, normalized so every slot in
   [0, slots) is used. *)
let pack ~weights ~domains =
  let n = Array.length weights in
  if n = 0 then [||]
  else begin
    let d = max 1 (min domains n) in
    let order = Array.init n Fun.id in
    Array.sort
      (fun a b ->
        match compare weights.(b) weights.(a) with 0 -> compare a b | c -> c)
      order;
    let load = Array.make d 0 in
    let assign = Array.make n 0 in
    Array.iter
      (fun i ->
        let best = ref 0 in
        for b = 1 to d - 1 do
          if load.(b) < load.(!best) then best := b
        done;
        assign.(i) <- !best;
        load.(!best) <- load.(!best) + max 1 weights.(i))
      order;
    (* Normalize slot numbering to drop any unused bins (d > distinct
       assignments can happen when weights collapse). *)
    let remap = Array.make d (-1) in
    let next = ref 0 in
    Array.iter
      (fun i ->
        let g = assign.(i) in
        if remap.(g) < 0 then begin
          remap.(g) <- !next;
          incr next
        end)
      (Array.init n Fun.id);
    Array.map (fun g -> remap.(g)) assign
  end

(* ------------------------------------------------------------------ *)
(* Sequential                                                          *)
(* ------------------------------------------------------------------ *)

(* One round-robin pass of {!Network.sweep} over the partitions still
   short of [target]; whether any of them progressed. *)
let seq_round net parts ~target =
  let progress = ref false in
  for i = 0 to Array.length parts - 1 do
    let p = parts.(i) in
    if p.Network.pt_cycle < target && Network.sweep net p ~block:false ~abort:never_abort
    then progress := true
  done;
  !progress

(* A no-progress round implies quiescence; the check is the
   authoritative judgment shared with the parallel scheduler. *)
let seq_deadlock net ~target =
  assert (Network.quiescent net ~target);
  Network.raise_deadlock net

(* The network records each sweep; this loop only knows its round
   count, handed to the metrics sink once per run. *)
let count_rounds net rounds =
  let tel = Network.telemetry net in
  if Telemetry.enabled tel then Telemetry.add (Telemetry.counter tel "sched.seq.sweeps") rounds

let run_seq net ~cycles =
  let parts = Network.partitions net in
  let behind () = Array.exists (fun p -> p.Network.pt_cycle < cycles) parts in
  let rounds = ref 0 in
  while behind () do
    incr rounds;
    if (not (seq_round net parts ~target:cycles)) && behind () then begin
      count_rounds net !rounds;
      seq_deadlock net ~target:cycles
    end
  done;
  count_rounds net !rounds

(* ------------------------------------------------------------------ *)
(* Parallel                                                            *)
(* ------------------------------------------------------------------ *)

(* Global coordination for one parallel run.  [m_blocked] counts workers
   parked on their notifier; [m_unfinished] counts workers still short
   of the target.  Lock order: a partition's notifier mutex may be
   taken before [m_mu], never the other way around. *)
type monitor = {
  m_mu : Mutex.t;
  mutable m_blocked : int;
  mutable m_unfinished : int;
  mutable m_dead : bool;
  mutable m_error : exn option;
  m_abort : bool Atomic.t;
}

let wake_all net =
  Array.iter (fun p -> Channel.Notifier.poke p.Network.pt_notif) (Network.partitions net)

(* Declares deadlock/abort state under [m_mu]; wake separately. *)
let declare_dead mon =
  mon.m_dead <- true;
  Atomic.set mon.m_abort true

(* Parks a worker on [notif] (the notifier its partitions share) until
   the input state changes (version guard against missed wakeups).  The
   last unfinished worker to park runs the quiescence check: with every
   other mutator registered as parked (registration orders their writes
   before our read via [m_mu]), the unsynchronized reads inside
   {!Network.quiescent} are sound. *)
let par_block net mon ~notif ~cycles ~seen =
  let n = notif in
  Mutex.lock n.Channel.Notifier.n_mu;
  if Channel.Notifier.version n <> seen || Atomic.get mon.m_abort then
    Mutex.unlock n.Channel.Notifier.n_mu
  else begin
    Mutex.lock mon.m_mu;
    mon.m_blocked <- mon.m_blocked + 1;
    let declare =
      mon.m_blocked = mon.m_unfinished && Network.quiescent net ~target:cycles
    in
    if declare then declare_dead mon;
    Mutex.unlock mon.m_mu;
    if declare then Mutex.unlock n.Channel.Notifier.n_mu
    else begin
      while Channel.Notifier.version n = seen && not (Atomic.get mon.m_abort) do
        Channel.Notifier.wait n
      done;
      Mutex.unlock n.Channel.Notifier.n_mu
    end;
    if declare then wake_all net;
    Mutex.lock mon.m_mu;
    mon.m_blocked <- mon.m_blocked - 1;
    Mutex.unlock mon.m_mu
  end

(* A worker that finishes (or aborts) must deregister from
   [m_unfinished] and, when it leaves only parked workers behind, judge
   deadlock on their behalf — otherwise the stragglers park forever with
   nobody left to notice. *)
let par_exit net mon ~cycles =
  Mutex.lock mon.m_mu;
  mon.m_unfinished <- mon.m_unfinished - 1;
  let declare =
    (not (Atomic.get mon.m_abort))
    && mon.m_unfinished > 0
    && mon.m_blocked = mon.m_unfinished
    && Network.quiescent net ~target:cycles
  in
  if declare then declare_dead mon;
  Mutex.unlock mon.m_mu;
  if declare then wake_all net

let par_fail net mon e =
  Mutex.lock mon.m_mu;
  (match e with
  | Channel.Aborted -> ()  (* secondary casualty of an abort, not a cause *)
  | e -> if mon.m_error = None then mon.m_error <- Some e);
  Atomic.set mon.m_abort true;
  Mutex.unlock mon.m_mu;
  wake_all net

(* One partition as seen by the worker that owns it: its Chrome track
   and the state of its latest visit and open run segment.  Its
   [sched.par.<p>.*] metrics are views of the partition's profile
   record, the one record both sinks read. *)
type member = {
  part : Network.partition;
  track : (Telemetry.Chrome_trace.t * Telemetry.Chrome_trace.track) option;
  mutable seg_start : int;  (** clock stamp opening the "run" segment *)
  mutable stalled : bool;  (** the latest visit made no progress *)
  mutable blocked : string option;  (** the input that stalled it *)
}

let member net p =
  let tel = Network.telemetry net in
  let name = p.Network.pt_name in
  if Telemetry.enabled tel then
    List.iter
      (fun (kind, read) ->
        Telemetry.counter_of tel (Printf.sprintf "sched.par.%s.%s" name kind) (fun () ->
            read p.Network.pt_prof))
      Telemetry.Profile.
        [
          ("run_ns", active_ns);
          ("idle_ns", park_ns);
          ("spins", spins);
          ("parks", parks);
          ("barrier_ns", barrier_ns);
        ];
  {
    part = p;
    track =
      Option.map
        (fun tc ->
          ( tc,
            Telemetry.Chrome_trace.track tc ~pid:p.Network.pt_index ~tid:0
              ~pname:("partition " ^ name) ~name:"domain" () ))
        (Telemetry.trace tel);
    seg_start = 0;
    stalled = false;
    blocked = None;
  }

(* Spans are recorded only at park boundaries and at finish, so event
   counts are bounded by the number of stalls, not cycles.  Each member
   appends to its own track from its worker's domain; export only runs
   after the workers are joined. *)
let span m ~name ~args ~start ~stop =
  match m.track with
  | Some (tc, tr) when stop > start ->
    Telemetry.Chrome_trace.span tr ~name ~args ~ts:(Telemetry.Chrome_trace.ts tc start)
      ~dur:(float_of_int (stop - start) /. 1e3) ()
  | _ -> ()

(* Closes [m]'s open "run" segment at [now]. *)
let end_run m now = span m ~name:"run" ~args:[] ~start:m.seg_start ~stop:now

(* Adaptive spin-then-park idle policy.  Parking costs a futex round
   trip plus a broadcast on the producer side — orders of magnitude more
   than a typical inter-token gap once the evaluation engine is fast —
   so an idle worker first spins on the (lock-free) notifier version for
   a bounded budget, and only then takes the full park path.  The budget
   adapts: doubled when the spin caught a wakeup (tokens are arriving at
   spinnable rates), halved when it didn't (the partition is genuinely
   blocked, stop burning cycles). *)
let spin_min = 64

let spin_max = 32768
let spin_initial = 1024

(* Hardware parallelism actually available, read once.  Sizes the
   parallel policy: inline at 1, spin-then-park only when every worker
   domain can hold a core. *)
let host_domains = lazy (Domain.recommended_domain_count ())

(* Test/bench override of the host-domain count (0 = auto).  Lets the
   real-domain path and its stall accounting be exercised — and its
   overhead measured against a like-for-like baseline — on hosts where
   [Domain.recommended_domain_count] would force the inline worker. *)
let host_override = Atomic.make 0

let set_host_domains n = Atomic.set host_override (max 0 n)

let host_domains_now () =
  let o = Atomic.get host_override in
  if o > 0 then o else Lazy.force host_domains

let effective_host_domains = host_domains_now

(* Polls for a version change (or abort) for at most [budget] relax
   hints; true if one arrived. *)
let spin_for notif ~seen ~abort ~budget =
  let rec go k =
    if Channel.Notifier.version notif <> seen || abort () then true
    else if k >= budget then false
    else begin
      Domain.cpu_relax ();
      go (k + 1)
    end
  in
  go 0

(* The one parallel worker loop.  It owns [ps], partitions that share a
   notifier (one partition, or a fused placement group), and sweeps
   each unfinished member once per round.  After a round in which no
   member progressed it idles on the shared notifier: spin for the
   adaptive budget, then park.  [inline] marks the single worker that
   owns every partition on a one-thread host and runs on the calling
   domain: its pushes never block, it never idles (so its members need
   not share a notifier), and a fruitless round is quiescence — the run
   deadlocks exactly as {!run_seq} does.

   While a sink is live the worker reads the clock only at its
   boundaries (start, each park and wake, each member's finish), so
   each member's phases tile the worker's wall time:
   - "active", from a boundary to the next park or to the member's
     finish: every visit, productive or failed, and every busy-wait.
     The network's sampled sweep timing estimates the productive share
     (run); the profile export charges the rest to spin;
   - a failed visit attributes the stall to its blocking input;
   - a failed visit in a round where another member progressed, or
     before a spin that caught a wakeup, counts one spin;
   - a round that ends in a park counts one park, its off-CPU wait in
     [par_block] is park time;
   - each member's Chrome "run" segment closes at a park (the park
     itself is a "stall" span tagged with the blocking input) and when
     the member finishes.
   With both sinks off none of this runs: no clock read, no record. *)
let par_worker net mon ps ~cycles ~started ~finished ~slot ~spin ~inline =
  let abort () = Atomic.get mon.m_abort in
  let recording = Network.recording net in
  let tel_on = Telemetry.enabled (Network.telemetry net) in
  let ms = Array.map (member net) ps in
  let notif = ps.(0).Network.pt_notif in
  let budget = ref spin_initial in
  let unfinished m = m.part.Network.pt_cycle < cycles in
  let prof m = m.part.Network.pt_prof in
  (* Clock stamp of the worker's latest boundary. *)
  let last = ref 0 in
  let lap () =
    let now = Telemetry.Clock.now_ns () in
    let d = now - !last in
    last := now;
    d
  in
  if recording then begin
    last := Telemetry.Clock.now_ns ();
    started.(slot) <- !last;
    Array.iter (fun m -> m.seg_start <- !last) ms
  end;
  let visit m =
    m.stalled <- false;
    unfinished m
    && begin
      let prog = Network.sweep net m.part ~block:(not inline) ~abort in
      if not prog then begin
        m.stalled <- true;
        if tel_on then m.blocked <- Network.record_stall m.part
      end
      else if recording && not (unfinished m) then begin
        let now = Telemetry.Clock.now_ns () in
        Telemetry.Profile.add_active (prof m) (now - !last);
        end_run m now
      end;
      prog
    end
  in
  let count_spins () =
    Array.iter (fun m -> if m.stalled then Telemetry.Profile.add_spin (prof m) 0) ms
  in
  let park ~seen =
    if not recording then par_block net mon ~notif ~cycles ~seen
    else begin
      let active = lap () in
      let t_park = !last in
      Array.iter
        (fun m ->
          if m.stalled then begin
            Telemetry.Profile.add_active (prof m) active;
            end_run m t_park
          end)
        ms;
      par_block net mon ~notif ~cycles ~seen;
      let parked = lap () in
      Array.iter
        (fun m ->
          if m.stalled then begin
            Telemetry.Profile.add_park (prof m) parked;
            let args =
              match m.blocked with
              | None -> []
              | Some chan -> [ ("blocked_on", Telemetry.Json.String chan) ]
            in
            span m ~name:"stall" ~args ~start:t_park ~stop:!last;
            m.seg_start <- !last
          end)
        ms
    end
  in
  (try
     while Array.exists unfinished ms && not (abort ()) do
       let seen = Channel.Notifier.version notif in
       let progress = ref false in
       for i = 0 to Array.length ms - 1 do
         if visit ms.(i) then progress := true
       done;
       if !progress then (if recording then count_spins ())
       else if inline then begin
         if recording then count_spins ();
         assert (Network.quiescent net ~target:cycles);
         declare_dead mon
       end
       else if spin && spin_for notif ~seen ~abort ~budget:!budget then begin
         if recording then count_spins ();
         budget := min spin_max (2 * !budget)
       end
       else begin
         budget := max spin_min (!budget / 2);
         park ~seen
       end
     done
   with e -> par_fail net mon e);
  if recording then begin
    let active = lap () in
    Array.iter
      (fun m ->
        if unfinished m then begin
          Telemetry.Profile.add_active (prof m) active;
          end_run m !last
        end)
      ms;
    finished.(slot) <- !last
  end;
  par_exit net mon ~cycles

(* Runs every unfinished partition to [cycles] under one worker per
   domain: one per partition by default and under a live profile (the
   profiler's per-partition phase accounting assumes a dedicated
   domain), one per placement group after {!Network.set_groups}, or a
   single inline worker on the calling domain when the host cannot run
   domains concurrently. *)
let run_par net ~cycles =
  let profiled = Network.profile_enabled net in
  let inline = host_domains_now () <= 1 && not profiled in
  let unfinished =
    Array.to_list (Network.partitions net)
    |> List.filter (fun p -> p.Network.pt_cycle < cycles)
  in
  let assign = Network.groups net in
  let groups =
    if inline then [ unfinished ]
    else if profiled || Array.length assign = 0 then
      List.map (fun p -> [ p ]) unfinished
    else
      List.init
        (1 + Array.fold_left max 0 assign)
        (fun g -> List.filter (fun p -> assign.(p.Network.pt_index) = g) unfinished)
  in
  match List.filter_map (function [] -> None | ps -> Some (Array.of_list ps)) groups with
  | [] -> ()
  | groups ->
    let nw = List.length groups in
    let mon =
      {
        m_mu = Mutex.create ();
        m_blocked = 0;
        m_unfinished = nw;
        m_dead = false;
        m_error = None;
        m_abort = Atomic.make false;
      }
    in
    let started = Array.make nw 0 in
    let finished = Array.make nw 0 in
    (* Spinning is only profitable when every worker domain can hold a
       hardware thread; oversubscribed, a spinner burns the core its
       producer needs to make the token it is waiting for.  Fused
       placement shrinks the worker count, which is exactly what
       re-enables spinning on small hosts.  Profiled runs keep it on so
       the spin phase is observable (the bounded budget keeps the
       distortion small). *)
    let spin = profiled || host_domains_now () >= nw in
    let work slot ps =
      par_worker net mon ps ~cycles ~started ~finished ~slot ~spin ~inline
    in
    if inline then List.iteri work groups
    else
      List.mapi (fun slot ps -> Domain.spawn (fun () -> work slot ps)) groups
      |> List.iter Domain.join;
    (* Barrier-wait attribution, computed after the joins so no
       cross-domain synchronization is needed while running: the time
       each worker idled between its own finish and the last worker's,
       plus a late start (the partition existed but had no CPU yet).
       Every worker's phases then tile [first, last], the span
       accumulated as the profile's wall-clock denominator. *)
    if Network.recording net && mon.m_error = None && not mon.m_dead then begin
      let last = Array.fold_left max 0 finished in
      let first = Array.fold_left min max_int started in
      List.iteri
        (fun slot ps ->
          Array.iter
            (fun p ->
              Telemetry.Profile.add_barrier p.Network.pt_prof
                (last - finished.(slot) + started.(slot) - first))
            ps)
        groups;
      Telemetry.Profile.add_wall_ns (Network.profile net) (last - first)
    end;
    (match mon.m_error with
    | Some e -> raise e
    | None -> if mon.m_dead then Network.raise_deadlock net)

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

(** Runs every partition up to [cycles] target cycles under the chosen
    scheduler.  Raises {!Network.Deadlock} with a channel-state report
    if no forward progress is possible (Fig. 2a). *)
let run ?(scheduler = default) net ~cycles =
  Network.prime net;
  match scheduler with
  | Sequential -> run_seq net ~cycles
  | Parallel -> run_par net ~cycles

(** Runs until [pred] holds or all partitions reach [max_cycles];
    returns the reached cycle of partition 0.  The sequential scheduler
    checks [pred] after every whole-network sweep (partitions may sit at
    different cycles when it fires); the parallel scheduler checks at
    whole-cycle barriers, where every partition holds the same cycle —
    [pred] must not race with partition domains, so it only runs while
    they are joined. *)
let run_until ?(scheduler = default) net ~max_cycles pred =
  Network.prime net;
  let parts = Network.partitions net in
  match scheduler with
  | Sequential ->
    let stop = ref false in
    let deadline_reached () =
      Array.for_all (fun p -> p.Network.pt_cycle >= max_cycles) parts
    in
    while (not !stop) && not (deadline_reached ()) do
      let progress = seq_round net parts ~target:max_cycles in
      if pred net then stop := true
      else if not progress then seq_deadlock net ~target:max_cycles
    done;
    parts.(0).Network.pt_cycle
  | Parallel ->
    let min_cycle () =
      Array.fold_left (fun acc p -> min acc p.Network.pt_cycle) max_int parts
    in
    let rec go () =
      let c = min_cycle () in
      if c >= max_cycles then parts.(0).Network.pt_cycle
      else begin
        run_par net ~cycles:(min max_cycles (c + 1));
        if pred net then parts.(0).Network.pt_cycle else go ()
      end
    in
    go ()
