(* Supervised simulation: chunked advance with periodic durable
   checkpoints; on a worker death, respawn + whole-network rollback to
   the newest restorable bundle, bounded by the restart policy. *)

type event =
  | Checkpointed of { cycle : int; path : string }
  | Worker_down of { label : string; status : string }
  | Restarted of { unit_index : int; label : string; attempt : int }
  | Rolled_back of { to_cycle : int; path : string }
  | Skipped_bundle of { path : string; reason : string }

exception Gave_up of { label : string; attempts : int }
exception Recovery_failed of string

let () =
  Printexc.register_printer (function
    | Gave_up { label; attempts } ->
      Some
        (Printf.sprintf
           "supervisor: gave up on partition %S after %d consecutive failures" label
           attempts)
    | Recovery_failed m -> Some ("supervisor: recovery failed: " ^ m)
    | _ -> None)

type t = {
  sv_handle : Fireripper.Runtime.handle;
  sv_worker : string;
  sv_dir : string option;
  sv_every : int;
  sv_policy : Policy.t;
  sv_chaos : Chaos.t option;
  sv_on_event : event -> unit;
  sv_tel : Telemetry.t;
  sv_ckpts : Telemetry.counter;
  sv_ckpt_us : Telemetry.hist;
  sv_recovery_us : Telemetry.hist;
  mutable sv_restarts : int;  (** total respawns over the supervisor's life *)
  mutable sv_consecutive : int;  (** failures since the last completed chunk *)
  mutable sv_last_ckpt : int;  (** cycle of the newest bundle this supervisor wrote *)
  mutable sv_floored : bool;  (** the recovery-floor bundle check already ran *)
}

let create ?checkpoint_dir ?(every = 1000) ?(policy = Policy.default) ?chaos
    ?(on_event = ignore) ~worker h =
  if every <= 0 then invalid_arg "Supervisor.create: every must be positive";
  let tel = Fireripper.Runtime.telemetry h in
  {
    sv_handle = h;
    sv_worker = worker;
    sv_dir = checkpoint_dir;
    sv_every = every;
    sv_policy = policy;
    sv_chaos = chaos;
    sv_on_event = on_event;
    sv_tel = tel;
    sv_ckpts = Telemetry.counter tel "resilience.checkpoints";
    sv_ckpt_us = Telemetry.hist tel "resilience.checkpoint_us";
    sv_recovery_us = Telemetry.hist tel "resilience.recovery_us";
    sv_restarts = 0;
    sv_consecutive = 0;
    sv_last_ckpt = 0;
    sv_floored = false;
  }

let handle t = t.sv_handle
let restarts t = t.sv_restarts
let cycle0 t = Fireripper.Runtime.cycle t.sv_handle 0

let checkpoint t =
  match t.sv_dir with
  | None -> None
  | Some dir ->
    let t0 = Telemetry.Clock.now_ns () in
    let path = Bundle.save ~dir t.sv_handle in
    Telemetry.observe t.sv_ckpt_us ((Telemetry.Clock.now_ns () - t0) / 1000);
    Telemetry.incr t.sv_ckpts;
    t.sv_last_ckpt <- cycle0 t;
    t.sv_on_event (Checkpointed { cycle = cycle0 t; path });
    Some path

(* Restore walk shared by in-flight recovery and cold-start resume:
   newest bundle first, older ones past corruption. *)
let restore_newest ~dir ~on_skip h =
  let rec go last_err = function
    | [] -> (
      match last_err with
      | Some e -> raise e
      | None -> raise (Recovery_failed "checkpoint directory holds no bundle"))
    | (_, path) :: older -> (
      match Bundle.restore ~path h with
      | cycle -> (cycle, path)
      | exception (Bundle.Bundle_error reason as e) ->
        on_skip path reason;
        go (Some e) older)
  in
  go None (List.rev (Bundle.list_bundles ~dir))

(* Respawn every dead remote worker behind its existing connection,
   then roll the whole network back to the newest restorable bundle. *)
let recover t =
  let t0 = Telemetry.Clock.now_ns () in
  let h = t.sv_handle in
  List.iter
    (fun (k, conn) ->
      if not (Libdn.Remote_engine.is_alive conn) then begin
        Fireripper.Runtime.respawn_remote h k ~worker:t.sv_worker;
        t.sv_restarts <- t.sv_restarts + 1;
        let label = Libdn.Remote_engine.label conn in
        Telemetry.incr
          (Telemetry.counter t.sv_tel (Printf.sprintf "resilience.%s.restarts" label));
        t.sv_on_event (Restarted { unit_index = k; label; attempt = t.sv_consecutive })
      end)
    (Fireripper.Runtime.remote_conns h);
  (match t.sv_dir with
  | None ->
    raise (Recovery_failed "no checkpoint directory configured; cannot roll back")
  | Some dir ->
    let to_cycle, path =
      restore_newest ~dir h ~on_skip:(fun path reason ->
          t.sv_on_event (Skipped_bundle { path; reason }))
    in
    t.sv_on_event (Rolled_back { to_cycle; path }));
  Telemetry.observe t.sv_recovery_us ((Telemetry.Clock.now_ns () - t0) / 1000)

(* Also exposed as [heal]: the same path serves crashes observed
   outside [run], e.g. during an out-of-band waveform sample. *)
let on_death t ~label ~status =
  t.sv_on_event (Worker_down { label; status });
  t.sv_consecutive <- t.sv_consecutive + 1;
  if t.sv_consecutive > t.sv_policy.Policy.max_restarts then
    raise (Gave_up { label; attempts = t.sv_consecutive });
  Policy.sleep_ms (Policy.delay_ms t.sv_policy ~attempt:t.sv_consecutive);
  recover t

let heal = on_death

(* Fire the next due chaos kill: advance to its cycle, then SIGKILL the
   victim worker.  The death surfaces as [Worker_died] on the next
   protocol exchange and goes through the normal recovery path. *)
let fire_kill t (k : Chaos.kill) =
  (try
     if k.Chaos.at > cycle0 t then Fireripper.Runtime.run t.sv_handle ~cycles:k.Chaos.at
   with Libdn.Remote_engine.Worker_died { label; status; _ } ->
     on_death t ~label ~status);
  match Fireripper.Runtime.remote_conns t.sv_handle with
  | [] -> ()
  | conns ->
    let _, conn = List.nth conns (k.Chaos.victim mod List.length conns) in
    Chaos.sigkill (Libdn.Remote_engine.pid conn)

let run t ~cycles:target =
  (* A recovery floor must exist before anything can crash (checked
     once: callers that advance cycle by cycle — waveform capture —
     must not pay a directory listing per target cycle). *)
  if not t.sv_floored then begin
    (match t.sv_dir with
    | Some dir when Bundle.list_bundles ~dir = [] -> ignore (checkpoint t)
    | _ -> ());
    t.sv_floored <- true
  end;
  let rec step () =
    let now = cycle0 t in
    if now < target then begin
      let next = min target (now + t.sv_every) in
      (match Option.bind t.sv_chaos (fun c -> Chaos.next_kill c ~upto:next) with
      | Some k -> fire_kill t k
      | None -> (
        match Fireripper.Runtime.run t.sv_handle ~cycles:next with
        | () ->
          t.sv_consecutive <- 0;
          (* Checkpoint on interval boundaries, not per chunk: a caller
             driving the supervisor one target cycle at a time (the
             capture loop) still gets a bundle every [sv_every] cycles
             rather than one per cycle. *)
          if cycle0 t - t.sv_last_ckpt >= t.sv_every then ignore (checkpoint t)
        | exception Libdn.Remote_engine.Worker_died { label; status; _ } ->
          on_death t ~label ~status));
      step ()
    end
  in
  step ()

let close t =
  List.iter
    (fun (_, conn) -> Libdn.Remote_engine.close conn)
    (Fireripper.Runtime.remote_conns t.sv_handle)

let resume ~dir h =
  if Bundle.list_bundles ~dir = [] then None
  else begin
    let cycle, _ = restore_newest ~dir h ~on_skip:(fun _ _ -> ()) in
    Some cycle
  end
