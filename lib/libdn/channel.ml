(* Latency-insensitive channel descriptions.  A channel aggregates a set
   of same-direction boundary ports; one token carries one value per
   port for one target cycle. *)

type spec = {
  name : string;
  ports : (string * int) list;  (** (port name, width) pairs *)
}

(** Number of payload bits one token of this channel carries; determines
    (de)serialization cost in the platform performance model. *)
let width spec = List.fold_left (fun acc (_, w) -> acc + w) 0 spec.ports

type token = int array

(* Batched gather: all the channel's ports in one engine call — one
   protocol round trip when the engine is remote. *)
let token_of_ports_batch spec get_ports : token =
  Array.of_list (get_ports (List.map fst spec.ports))

let apply_token spec set (tok : token) =
  List.iteri (fun i (p, _) -> set p tok.(i)) spec.ports

let pp_spec ppf spec =
  Fmt.pf ppf "%s(%db:%a)" spec.name (width spec)
    Fmt.(list ~sep:comma string)
    (List.map fst spec.ports)

(* ------------------------------------------------------------------ *)
(* Cross-domain token transport                                        *)
(* ------------------------------------------------------------------ *)

(* A notifier is the per-partition synchronization point: one mutex and
   condition variable shared by all of a partition's input queues, plus
   a version counter bumped on every queue mutation.  A consumer that
   found no runnable work records the version it observed, and only
   blocks if the version is still unchanged under the lock — the classic
   missed-wakeup guard.  Producers pushing to any of the partition's
   queues bump the version and broadcast. *)
module Notifier = struct
  type t = {
    n_mu : Mutex.t;
    n_cond : Condition.t;
    n_version : int Atomic.t;
    mutable n_waiters : int;  (** parked waiters; guarded by [n_mu] *)
  }

  let create () =
    {
      n_mu = Mutex.create ();
      n_cond = Condition.create ();
      n_version = Atomic.make 0;
      n_waiters = 0;
    }

  let version t = Atomic.get t.n_version

  (* Must be called with [n_mu] held.  The version always advances — it
     is the lock-free progress guard that spinning consumers poll — but
     the broadcast (a syscall when contended) is skipped unless someone
     is actually parked, which under the spin-then-park idle policy is
     the uncommon case. *)
  let bump t =
    Atomic.incr t.n_version;
    if t.n_waiters > 0 then Condition.broadcast t.n_cond

  (* One condition wait, registered so {!bump} knows a broadcast is
     needed.  Must be called with [n_mu] held; re-check the guarded
     condition on return as usual. *)
  let wait t =
    t.n_waiters <- t.n_waiters + 1;
    Condition.wait t.n_cond t.n_mu;
    t.n_waiters <- t.n_waiters - 1

  (* Wakes any waiter (used to abort a parallel run from outside). *)
  let poke t =
    Mutex.lock t.n_mu;
    bump t;
    Mutex.unlock t.n_mu
end

exception Aborted
(** Raised out of a blocking {!Bqueue.push} when the abort predicate
    trips while waiting for space (another domain failed or declared
    deadlock). *)

(* A bounded token queue, the software analogue of the paper's QSFP
   channel buffers.  Single producer (the source partition's domain),
   single consumer (the destination partition's domain); both ends
   synchronize on the destination partition's notifier.  The sequential
   scheduler uses the same queues — uncontended mutexes cost little and
   keep one code path. *)
module Bqueue = struct
  type 'a t = {
    bq_q : 'a Queue.t;
    bq_capacity : int;
    mutable bq_notif : Notifier.t;
        (** the owning (consumer) partition's notifier *)
  }

  exception Full

  let create ~capacity ~notif =
    if capacity < 1 then invalid_arg "Bqueue.create: capacity must be positive";
    { bq_q = Queue.create (); bq_capacity = capacity; bq_notif = notif }

  let notifier t = t.bq_notif

  (* Re-points the queue at another synchronization point.  Used by
     domain placement to fuse several partitions onto one notifier; only
     legal while no domain is blocked on the old one (i.e. before a run
     starts). *)
  let set_notifier t n = t.bq_notif <- n

  (* With [block], waits for space (checking [abort] across wakeups and
     raising {!Aborted} if it trips); without, raises {!Full} — the
     sequential scheduler never legitimately fills a queue, so hitting
     capacity there is a hard error rather than a reason to block a
     single-threaded loop forever. *)
  let push t x ~block ~abort =
    let n = t.bq_notif in
    Mutex.lock n.Notifier.n_mu;
    if block then begin
      while Queue.length t.bq_q >= t.bq_capacity && not (abort ()) do
        Notifier.wait n
      done;
      if abort () then begin
        Mutex.unlock n.Notifier.n_mu;
        raise Aborted
      end
    end
    else if Queue.length t.bq_q >= t.bq_capacity then begin
      Mutex.unlock n.Notifier.n_mu;
      raise Full
    end;
    Queue.push x t.bq_q;
    Notifier.bump n;
    Mutex.unlock n.Notifier.n_mu

  let peek_opt t =
    Mutex.lock t.bq_notif.Notifier.n_mu;
    let v = Queue.peek_opt t.bq_q in
    Mutex.unlock t.bq_notif.Notifier.n_mu;
    v

  (* Head peek without taking the notifier mutex: for sweeps that
     snapshot several sibling queues under one lock the caller already
     holds. *)
  let peek_opt_unlocked t = Queue.peek_opt t.bq_q

  (* Pops the head without bumping the notifier: the caller batches
     drops across sibling queues under one lock and bumps once.  Must be
     called with the notifier mutex held and the queue non-empty. *)
  let drop_unlocked t = ignore (Queue.pop t.bq_q)

  let is_empty t =
    Mutex.lock t.bq_notif.Notifier.n_mu;
    let v = Queue.is_empty t.bq_q in
    Mutex.unlock t.bq_notif.Notifier.n_mu;
    v

  let length t =
    Mutex.lock t.bq_notif.Notifier.n_mu;
    let v = Queue.length t.bq_q in
    Mutex.unlock t.bq_notif.Notifier.n_mu;
    v

  (* Lock-free emptiness probe for the quiescence check: only sound once
     every producer and the consumer are blocked (their last mutations
     were published by the monitor lock they took to register). *)
  let is_empty_unsynchronized t = Queue.is_empty t.bq_q

  let to_list t =
    Mutex.lock t.bq_notif.Notifier.n_mu;
    let v = Queue.fold (fun acc x -> x :: acc) [] t.bq_q |> List.rev in
    Mutex.unlock t.bq_notif.Notifier.n_mu;
    v

  (* Replaces the whole contents (checkpoint/snapshot restore). *)
  let set_contents t xs =
    Mutex.lock t.bq_notif.Notifier.n_mu;
    Queue.clear t.bq_q;
    List.iter (fun x -> Queue.push x t.bq_q) xs;
    Notifier.bump t.bq_notif;
    Mutex.unlock t.bq_notif.Notifier.n_mu
end
