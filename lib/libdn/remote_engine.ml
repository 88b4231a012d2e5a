(* A partition engine living in another PROCESS — the software analogue
   of a partition living on another FPGA.  The parent ships the unit's
   flattened circuit to a worker process (see [bin/fireaxe_worker]) and
   proxies the {!Engine.t} operations over a line-based pipe protocol,
   so the LI-BDN network schedules local and remote partitions exactly
   alike: tokens are the only thing that crosses the process boundary,
   just as they are the only thing that crosses the QSFP cable.

   Protocol (one request per line; commands with no reply pipeline
   freely because the pipe preserves order):

     set <name> <int>          -> (no reply)
     eval | step | runcone <id> | restore <id>   -> (no reply)
     get <name>                -> <int>
     sample <name...>          -> space-joined ints, one per name
     width <name>              -> <int> (-1: not a signal there)
     deps <port>               -> space-joined names (possibly empty)
     cone <root...>            -> <id>
     checkpoint                -> <id>
     poke <mem> <addr> <int>   -> (no reply)
     peek <mem> <addr>         -> <int>
     savestate                 -> "state <n>" then n lines of state text
     loadstate <n> (+ n lines) -> "ok" | "error: <msg>"
     profile                   -> one-line JSON (fireaxe-profile-1 slice)
     quit                      -> (worker exits)

   Reads go through a select(2)-guarded line reader, so a worker that
   wedges without exiting (stuck in a loop, SIGSTOPped, or emitting a
   truncated reply) surfaces as {!Worker_died} after [read_timeout]
   instead of hanging the whole simulation.  [reconnect] respawns a
   dead worker and replays its cone registrations, which is what lets a
   supervisor resurrect a partition in place (the network keeps its
   engine closures; only the process behind the pipe changes). *)

type conn = {
  mutable c_rd : Wire.reader;  (** buffered line reader over the worker's stdout *)
  mutable c_out : out_channel;
  mutable c_pid : int;
  c_label : string;  (** partition/unit name, for diagnostics *)
  mutable c_last : string;  (** last command written to the worker *)
  mutable c_alive : bool;
  mutable c_closed : bool;  (** [close] already ran (idempotence) *)
  c_timeout : float option;  (** max seconds to wait for a reply byte *)
  c_engine : string option;
      (** evaluation-engine name passed on the worker's command line;
          replayed verbatim by {!reconnect} *)
  c_lanes : int option;
      (** engine lane count passed on the worker's command line;
          replayed verbatim by {!reconnect} *)
  mutable c_cones : (string * int) list;
      (** cone registrations (command line, id), newest first — replayed
          verbatim by {!reconnect} so baked-in cone ids stay valid *)
  c_recording : bool;
      (** either sink is live: count protocol bytes (newlines included)
          and time round trips into [c_wire] *)
  c_wire : Telemetry.Profile.wire;
      (** the one record of round trips, bytes and wire ns: the
          profile's wire row and the metrics' [remote.<label>.bytes_*] *)
  c_rtt : Telemetry.hist;  (** request/reply round-trip latency, µs *)
  c_profile : bool;
      (** worker spawned with profiling on (5th argv slot; replayed by
          {!reconnect}) *)
}

exception Worker_died of { label : string; last_command : string; status : string }

let () =
  Printexc.register_printer (function
    | Worker_died { label; last_command; status } ->
      Some
        (Printf.sprintf
           "remote engine: worker for partition %S died (%s) while handling %S" label
           status last_command)
    | _ -> None)

let pid conn = conn.c_pid
let label conn = conn.c_label

(* Reaps and renders the worker's exit status.  A pipe EOF can precede
   the worker becoming reapable by a moment, so poll briefly rather
   than block (the pipes could also break with the worker still up). *)
let exit_status conn =
  let rec poll tries =
    match Unix.waitpid [ Unix.WNOHANG ] conn.c_pid with
    | 0, _ ->
      if tries = 0 then "no exit status yet"
      else begin
        Unix.sleepf 0.002;
        poll (tries - 1)
      end
    | _, Unix.WEXITED n -> Printf.sprintf "exited with code %d" n
    | _, Unix.WSIGNALED n -> Printf.sprintf "killed by signal %d" n
    | _, Unix.WSTOPPED n -> Printf.sprintf "stopped by signal %d" n
    | exception Unix.Unix_error _ -> "already reaped"
  in
  poll 50

(* The worker vanished under us: mark the connection dead and raise a
   diagnosis naming the partition and the command in flight (a bare
   [End_of_file] from the pipe told the caller nothing). *)
let died conn =
  conn.c_alive <- false;
  raise (Worker_died { label = conn.c_label; last_command = conn.c_last; status = exit_status conn })

(* The worker is (probably) still up but stopped answering: same
   diagnosis channel, different status.  The connection is unusable
   either way — [close] will SIGKILL the wedged process. *)
let timed_out conn t =
  conn.c_alive <- false;
  raise
    (Worker_died
       {
         label = conn.c_label;
         last_command = conn.c_last;
         status = Printf.sprintf "read timeout after %gs (worker wedged)" t;
       })

(* Reads one protocol line (without the newline) through the shared
   {!Wire} reader.  Raises {!Worker_died} on EOF, pipe errors, or a
   [timeout] expiry. *)
let read_line ?timeout conn =
  let timeout = match timeout with Some _ as t -> t | None -> conn.c_timeout in
  try Wire.read_line ?timeout conn.c_rd with
  | Wire.Closed _ -> died conn
  | Wire.Timeout t -> timed_out conn t

let write_line conn line =
  conn.c_last <- line;
  if conn.c_recording then
    Telemetry.Profile.add_bytes conn.c_wire ~bytes_out:(String.length line + 1) ~bytes_in:0;
  try
    output_string conn.c_out line;
    output_char conn.c_out '\n'
  with Sys_error _ -> died conn

let send conn fmt = Printf.ksprintf (write_line conn) fmt

let ask conn fmt =
  Printf.ksprintf
    (fun line ->
      let t0 = if conn.c_recording then Telemetry.Clock.now_ns () else 0 in
      write_line conn line;
      (try flush conn.c_out with Sys_error _ -> died conn);
      let reply = read_line conn in
      if conn.c_recording then begin
        let dt = Telemetry.Clock.now_ns () - t0 in
        Telemetry.observe conn.c_rtt (dt / 1000);
        Telemetry.Profile.add_wire conn.c_wire ~bytes_out:0
          ~bytes_in:(String.length reply + 1) dt
      end;
      reply)
    fmt

let ask_int conn fmt =
  Printf.ksprintf
    (fun line ->
      let reply = ask conn "%s" line in
      match int_of_string_opt (String.trim reply) with
      | Some v -> v
      | None -> failwith (Printf.sprintf "remote engine: bad reply %S to %S" reply line))
    fmt

(* Launches the worker process and returns the parent-side plumbing.
   cloexec: the worker must NOT inherit the parent-side pipe ends (or
   the write end of its own stdin pipe would keep EOF from ever
   arriving after the parent exits); [create_process] dup2s the
   child-side ends onto fds 0/1, which survive the exec. *)
let launch ~worker ~fir_path ~engine ~lanes ~profile =
  let parent_read, child_write = Unix.pipe ~cloexec:true () in
  let child_read, parent_write = Unix.pipe ~cloexec:true () in
  let argv =
    (* Positional argv slots: lanes ride third, so requesting them
       forces the engine name into the second; the "profile" token
       rides fourth and forces both (defaults spelled out when the
       caller left them unspecified). *)
    let engine_name () =
      match engine with
      | Some e -> e
      | None -> Rtlsim.Sim.engine_name Rtlsim.Sim.default_engine
    in
    match engine, lanes, profile with
    | None, None, false -> [| worker; fir_path |]
    | Some e, None, false -> [| worker; fir_path; e |]
    | _, Some n, false -> [| worker; fir_path; engine_name (); string_of_int n |]
    | _, n, true ->
      [|
        worker; fir_path; engine_name ();
        string_of_int (Option.value n ~default:1); "profile";
      |]
  in
  let pid = Unix.create_process worker argv child_read child_write Unix.stderr in
  Unix.close child_read;
  Unix.close child_write;
  (parent_read, Unix.out_channel_of_descr parent_write, pid)

(* Startup can legitimately take longer than a steady-state reply (the
   worker parses and compiles the whole unit circuit before "ready"),
   so the handshake gets a floor on the configured timeout. *)
let ready_timeout conn =
  match conn.c_timeout with None -> None | Some t -> Some (Float.max t 10.)

let await_ready conn =
  match read_line ?timeout:(ready_timeout conn) conn with
  | "ready" -> ()
  | other -> failwith (Printf.sprintf "remote engine: expected ready, got %S" other)

(** Spawns a worker process serving the circuit in [fir_path].  [label]
    names the partition in diagnostics when the worker dies.
    [read_timeout] bounds every reply wait (default: wait forever). *)
let spawn ?(label = "unnamed") ?read_timeout ?(telemetry = Telemetry.null)
    ?(profile = Telemetry.Profile.null) ?engine ?lanes ~worker ~fir_path () =
  (* A dead worker must surface as a {!Worker_died} diagnosis, not a
     fatal SIGPIPE when the parent next writes to the closed pipe. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let engine = Option.map Rtlsim.Sim.engine_name engine in
  let profiled = Telemetry.Profile.enabled profile in
  let parent_read, out, pid =
    launch ~worker ~fir_path ~engine ~lanes ~profile:profiled
  in
  let metric kind = Printf.sprintf "remote.%s.%s" label kind in
  let wire = Telemetry.Profile.wire profile ~label in
  Telemetry.counter_of telemetry (metric "bytes_out") (fun () -> Telemetry.Profile.bytes_out wire);
  Telemetry.counter_of telemetry (metric "bytes_in") (fun () -> Telemetry.Profile.bytes_in wire);
  let conn =
    {
      c_rd = Wire.reader ~label parent_read;
      c_out = out;
      c_pid = pid;
      c_label = label;
      c_last = "(startup)";
      c_alive = true;
      c_closed = false;
      c_timeout = read_timeout;
      c_engine = engine;
      c_lanes = lanes;
      c_cones = [];
      c_recording = profiled || Telemetry.enabled telemetry;
      c_wire = wire;
      c_rtt = Telemetry.hist telemetry (metric "rtt_us");
      c_profile = profiled;
    }
  in
  (* The worker announces itself once the circuit is loaded, so the
     caller may delete the .fir file as soon as spawn returns. *)
  await_ready conn;
  conn

(** Whether the worker process is still running.  Reaps it (and marks
    the connection dead) when it is not. *)
let is_alive conn =
  conn.c_alive
  &&
  match Unix.waitpid [ Unix.WNOHANG ] conn.c_pid with
  | 0, _ -> true
  | _ ->
    conn.c_alive <- false;
    false
  | exception Unix.Unix_error _ ->
    conn.c_alive <- false;
    false

(** Sends quit, waits up to [grace] seconds for the worker to exit, then
    SIGKILLs and reaps it.  Never raises and never blocks unboundedly;
    a second call is a no-op. *)
let close ?(grace = 1.0) conn =
  if not conn.c_closed then begin
    conn.c_closed <- true;
    if conn.c_alive then begin
      conn.c_alive <- false;
      try
        output_string conn.c_out "quit\n";
        flush conn.c_out
      with Sys_error _ -> ()
    end;
    (* Bounded reap: poll for [grace], then SIGKILL — a wedged worker
       (stuck loop, SIGSTOP) would otherwise block us forever.  After
       the kill, one more bounded poll; SIGKILL cannot be ignored, so
       failing to reap within it means the process is already gone or
       someone else reaped it. *)
    let rec reap deadline ~killed =
      match Unix.waitpid [ Unix.WNOHANG ] conn.c_pid with
      | 0, _ ->
        if Unix.gettimeofday () < deadline then begin
          Unix.sleepf 0.002;
          reap deadline ~killed
        end
        else if not killed then begin
          (try Unix.kill conn.c_pid Sys.sigkill with Unix.Unix_error _ -> ());
          reap (Unix.gettimeofday () +. 1.0) ~killed:true
        end
      | _ -> ()
      | exception Unix.Unix_error _ -> ()
    in
    reap (Unix.gettimeofday () +. grace) ~killed:false;
    (try Unix.close (Wire.fd conn.c_rd) with Unix.Unix_error _ -> ());
    try close_out_noerr conn.c_out with Sys_error _ -> ()
  end

(** Respawns a dead worker behind the SAME connection: launches a fresh
    process from [fir_path], swaps the plumbing in place, and replays
    the recorded cone registrations so every closure already holding
    this conn (the network's engine and cone evaluators) keeps working.
    In-memory checkpoint ids do NOT survive — they lived in the dead
    process; durable restoration is the caller's job (load_state). *)
let reconnect conn ~worker ~fir_path =
  if conn.c_closed then invalid_arg "Remote_engine.reconnect: connection closed";
  (* Release the dead process's plumbing; it may already be reaped. *)
  (try Unix.close (Wire.fd conn.c_rd) with Unix.Unix_error _ -> ());
  (try close_out_noerr conn.c_out with Sys_error _ -> ());
  (try ignore (Unix.waitpid [ Unix.WNOHANG ] conn.c_pid) with Unix.Unix_error _ -> ());
  let parent_read, out, pid =
    launch ~worker ~fir_path ~engine:conn.c_engine ~lanes:conn.c_lanes
      ~profile:conn.c_profile
  in
  conn.c_rd <- Wire.reader ~label:conn.c_label parent_read;
  conn.c_out <- out;
  conn.c_pid <- pid;
  conn.c_last <- "(reconnect)";
  conn.c_alive <- true;
  await_ready conn;
  (* Replay cone registrations oldest-first; the worker's cone counter
     is deterministic, so each must come back under its original id. *)
  List.iter
    (fun (line, id) ->
      let got = ask conn "%s" line in
      if int_of_string_opt (String.trim got) <> Some id then
        failwith
          (Printf.sprintf
             "remote engine: cone replay for %S returned id %s, expected %d (worker \
              protocol drift?)"
             line got id))
    (List.rev conn.c_cones)

(** Direct memory access on the remote unit (program loading, state
    inspection). *)
let poke_mem conn mem addr v = send conn "poke %s %d %d" mem addr v

let peek_mem conn mem addr = ask_int conn "peek %s %d" mem addr

(** Reads any remote signal (forces a flush of pipelined commands). *)
let get conn name = ask_int conn "get %s" name

(** Reads a remote signal on one specific engine lane. *)
let get_lane conn name ~lane = ask_int conn "get %s %d" name lane

(** The remote engine's lane count. *)
let lanes conn = ask_int conn "lanes"

(** Whether the remote unit holds a signal or memory of that name. *)
let has conn name = ask_int conn "has %s" name <> 0

(** Reads many remote signals in ONE round trip (the waveform-capture
    hot path: per-cycle sampling pays one RTT per worker, not one per
    signal).  Values come back in request order. *)
let sample conn names =
  match names with
  | [] -> []
  | _ ->
    let line = "sample " ^ String.concat " " names in
    let reply = ask conn "%s" line in
    let values =
      Wire.words reply
      |> List.map (fun s ->
             match int_of_string_opt s with
             | Some v -> v
             | None ->
               failwith
                 (Printf.sprintf "remote engine: bad sample reply %S to %S" reply line))
    in
    if List.length values <> List.length names then
      failwith
        (Printf.sprintf "remote engine: sample reply has %d values for %d names"
           (List.length values) (List.length names));
    values

(** The width in bits of a remote SIGNAL; [None] when the worker holds
    no signal of that name (memories included — they cannot be
    waveform-sampled). *)
let signal_width conn name =
  match ask_int conn "width %s" name with -1 -> None | w -> Some w

(* ------------------------------------------------------------------ *)
(* Durable state transfer                                              *)
(* ------------------------------------------------------------------ *)

(** The remote unit's full architectural state as the standard
    {!Rtlsim.Sim.state_to_string} text — the piece that lets a durable
    whole-simulation checkpoint cover remote partitions. *)
let save_state conn =
  let header = ask conn "savestate" in
  match Wire.words header with
  | [ "state"; n ] ->
    let n =
      match int_of_string_opt n with
      | Some n when n >= 0 -> n
      | _ -> failwith (Printf.sprintf "remote engine: bad savestate header %S" header)
    in
    let buf = Buffer.create 4096 in
    for _ = 1 to n do
      let line = read_line conn in
      if conn.c_recording then
        Telemetry.Profile.add_bytes conn.c_wire ~bytes_out:0 ~bytes_in:(String.length line + 1);
      Buffer.add_string buf line;
      Buffer.add_char buf '\n'
    done;
    Buffer.contents buf
  | _ -> failwith (Printf.sprintf "remote engine: bad savestate header %S" header)

(** Restores a {!save_state} text into the remote unit.  Raises
    [Failure] with the worker's diagnostic if the state does not fit
    the circuit. *)
let load_state conn text =
  let lines =
    String.split_on_char '\n' text |> List.filter (fun l -> String.trim l <> "")
  in
  write_line conn (Printf.sprintf "loadstate %d" (List.length lines));
  List.iter (write_line conn) lines;
  conn.c_last <- "loadstate";
  (try flush conn.c_out with Sys_error _ -> died conn);
  match read_line conn with
  | "ok" -> ()
  | other ->
    failwith
      (Printf.sprintf "remote engine: loadstate for partition %S failed: %s"
         conn.c_label other)

(** The worker's own profile document — the one-line JSON slice the
    [profile] worker command ships back; [None] when the worker was not
    spawned with profiling enabled. *)
let fetch_profile conn =
  if not conn.c_profile then None
  else
    let reply = ask conn "profile" in
    match Telemetry.Json.parse reply with
    | Ok j -> Some j
    | Error m ->
      failwith
        (Printf.sprintf "remote engine: bad profile reply from %S: %s" conn.c_label
           m)

(** The remote unit as an ordinary LI-BDN engine. *)
let engine conn =
  {
    Engine.set_input = (fun name v -> send conn "set %s %d" name v);
    get = (fun name -> ask_int conn "get %s" name);
    (* Per-channel token gather in ONE round trip (the worker's batched
       [sample] command): the no-reply set/eval/step stream pipelines
       freely between gathers, so a target cycle pays one round trip per
       output channel, not one per port. *)
    get_ports = (fun names -> sample conn names);
    eval_comb = (fun () -> send conn "eval");
    step_seq = (fun () -> send conn "step");
    pass_record = None;
    make_cone_eval =
      (fun roots ->
        let line = "cone " ^ String.concat " " roots in
        let id = ask_int conn "%s" line in
        conn.c_cones <- (line, id) :: conn.c_cones;
        fun () -> send conn "runcone %d" id);
    output_comb_deps =
      (fun port ->
        let reply = ask conn "deps %s" port in
        Wire.words reply);
    checkpoint =
      (fun () ->
        let id = ask_int conn "checkpoint" in
        fun () -> send conn "restore %d" id);
  }
