(* The simulation-session server.  See server.mli for the contract.

   Single-threaded select(2) loop: every request is handled to
   completion except [step]/[wait] on a packed tenant stalled at the
   credit barrier and [queue=1] creates over capacity — those PARK (the
   reply is deferred) and are resolved by [progress], which runs after
   every request and on every loop tick.  Strictly one outstanding
   request per connection, so parking never reorders a client's
   replies. *)

module Sim = Rtlsim.Sim
module Wire = Libdn.Wire
module Resource = Platform.Resource
module Fpga = Platform.Fpga
module Bundle = Resilience.Bundle

type config = {
  socket_path : string;
  state_dir : string option;
  board : Fpga.board;
  fit_threshold : float;
  pack : bool;
  pack_wait : float;
  queue_wait : float;
  max_sessions : int;
  telemetry : Telemetry.t;
}

let default_config ~socket_path =
  {
    socket_path;
    state_dir = None;
    board = Fpga.u250;
    fit_threshold = 0.85;
    pack = true;
    pack_wait = 0.2;
    queue_wait = 30.;
    max_sessions = 64;
    telemetry = Telemetry.null;
  }

(* "rejected" replies (admission said no), as opposed to "error"
   replies (the request itself was bad or failed). *)
exception Reject of string

(* A create that does not fit even after eviction; the caller decides
   between queueing and rejecting. *)
exception No_capacity of string

(* One parsed+flattened design per text hash: joining sessions skip the
   FIRRTL re-parse, the flatten pass and the resource estimate; packed
   joiners additionally skip engine compilation by riding an existing
   group's program. *)
type cache_entry = {
  ce_flat : Firrtl.Ast.module_def;
  ce_est : Resource.estimate;  (* one copy: the group's base cost *)
}

type group = {
  g_id : int;
  g_hash : string;
  g_engine : Sim.engine;
  g_sim : Sim.t;
  g_base : Resource.estimate;
  g_lane_cost : Resource.estimate;
  g_packable : bool;  (* may accept joining tenants while unstepped *)
  mutable g_members : (int * session) list;  (* lane -> tenant *)
  mutable g_free : int list;  (* power-on lanes, reusable until stepped *)
  mutable g_stepped : bool;
  mutable g_dirty : bool;  (* inputs/pokes since the last eval_comb *)
}

and body =
  | Live of live
  | Evicted of string  (* session-bundle path *)

and live = {
  mutable b_grp : group;
  mutable b_lane : int;
}

and session = {
  s_id : string;
  s_engine : Sim.engine;
  s_scheduler : Libdn.Scheduler.t;  (* recorded; monolithic eval is lane-lockstep *)
  s_design : string;
  s_hash : string;
  s_lanes : int;  (* replicated broadcast lanes; >1 forces a private group *)
  mutable s_body : body;
  mutable s_cycle : int;  (* executed cycles (authoritative when evicted) *)
  mutable s_pending : int;  (* granted-but-unexecuted step credits *)
  mutable s_touch : int;  (* LRU stamp *)
  s_inputs : (string, int) Hashtbl.t;
      (* last value driven on each input pin.  [Sim.save_state] captures
         architectural state only — inputs are host stimulus — so every
         path that rebuilds a session on a fresh engine (detach, revive,
         restart resurrection) must replay these to keep eviction
         transparent. *)
  s_cycles_ctr : Telemetry.counter;  (* service.session.<id>.cycles *)
}

type parked =
  | P_wait of { p_sess : session; p_deadline : float }
  | P_create of { p_opts : string list; p_design : string; p_deadline : float }

(* One probe subscription: after every progress pass the session's
   current probe values are diffed against the last pushed frame and
   the changes streamed as a [watch] push once the cycle reaches
   [w_next].  [w_last = [||]] marks a resync — the next frame carries
   every probe (the first frame after [watch], and after a drop). *)
type watch = {
  w_id : int;
  w_sid : string;
  w_probes : string array;
  w_every : int;  (* minimum target cycles between frames *)
  mutable w_last : int array;
  mutable w_next : int;  (* cycle the next frame is due at *)
  mutable w_sent : int;  (* cycle of the last pushed frame *)
}

(* One lifecycle-journal entry ([fireaxe-events-1]). *)
type event = {
  e_seq : int;
  e_time : float;
  e_kind : string;
  e_sid : string;
  e_cycle : int;
  e_detail : string;
}

type conn = {
  k_fd : Unix.file_descr;
  k_rd : Wire.reader;
  mutable k_hello : bool;
  mutable k_v2 : bool;  (* said hello fireaxe-service-2: tagged frames, may subscribe *)
  mutable k_parked : parked option;
  mutable k_dead : bool;
  mutable k_watches : watch list;
  mutable k_events : bool;  (* subscribed to the lifecycle journal *)
  k_pushq : (string option * string) Queue.t;
      (* (session of a watch frame — drop accounting — or None for an
         event frame, untagged push payload), bounded by [max_pushq] *)
}

(* The one record of the service's lifecycle events: [stats] reports
   it, and a live metrics sink exports it under [service.*] names (see
   {!register_metrics}). *)
type tallies = {
  mutable t_created : int;
  mutable t_rejected : int;
  mutable t_queued : int;
  mutable t_evicted : int;
  mutable t_resumed : int;
  mutable t_killed : int;
  mutable t_packed : int;
  mutable t_detached : int;
  mutable t_cycles : int;
  mutable t_cache_hits : int;
  mutable t_cache_misses : int;
  mutable t_pushes : int;
  mutable t_push_dropped : int;
}

type t = {
  cfg : config;
  sessions : (string, session) Hashtbl.t;
  mutable groups : group list;
  cache : (string, cache_entry) Hashtbl.t;
  mutable conns : conn list;
  mutable next_sid : int;
  mutable next_gid : int;
  mutable next_wid : int;
  mutable touch_clock : int;
  mutable running : bool;
  started : int;  (** {!Telemetry.Clock} stamp, for [uptime_s] *)
  ev_ring : event option array;  (* journal ring, indexed seq mod length *)
  mutable ev_seq : int;  (* next sequence number *)
  dropped_by : (string, int) Hashtbl.t;  (* per-session dropped pushes *)
  tl : tallies;
}

let now () = Unix.gettimeofday ()

let touch sv sess =
  sv.touch_clock <- sv.touch_clock + 1;
  sess.s_touch <- sv.touch_clock

(* ------------------------------------------------------------------ *)
(* Push queues + lifecycle journal                                      *)
(* ------------------------------------------------------------------ *)

let max_pushq = 256
let ev_ring_len = 512

(* Drop-oldest backpressure: a subscriber that cannot keep up loses its
   oldest queued push (counted globally and per session), and any watch
   on the dropped frame's session is forced to resync so the stream
   stays a faithful delta chain. *)
let drop_oldest sv conn =
  match Queue.take_opt conn.k_pushq with
  | None -> ()
  | Some (sid, _) ->
    sv.tl.t_push_dropped <- sv.tl.t_push_dropped + 1;
    (match sid with
    | None -> ()
    | Some sid ->
      Hashtbl.replace sv.dropped_by sid
        (1 + Option.value ~default:0 (Hashtbl.find_opt sv.dropped_by sid));
      List.iter (fun w -> if w.w_sid = sid then w.w_last <- [||]) conn.k_watches)

let enqueue_push sv conn ?sid payload =
  if conn.k_v2 && not conn.k_dead then begin
    Queue.add (sid, payload) conn.k_pushq;
    if Queue.length conn.k_pushq > max_pushq then drop_oldest sv conn
  end

let subscription_count sv =
  List.fold_left
    (fun acc c -> acc + List.length c.k_watches + (if c.k_events then 1 else 0))
    0 sv.conns

let event_json e =
  let module J = Telemetry.Json in
  J.Obj
    [
      ("schema", J.String Protocol.events_schema);
      ("seq", J.Int e.e_seq);
      ("time", J.Float e.e_time);
      ("kind", J.String e.e_kind);
      ("sid", J.String e.e_sid);
      ("cycle", J.Int e.e_cycle);
      ("detail", J.String e.e_detail);
    ]

let event_frame e =
  Wire.join_payload
    (Printf.sprintf "event %d" e.e_seq)
    (Telemetry.Json.to_string (event_json e))

(* Appends one entry to the journal ring and fans it out to every
   events subscriber.  The frames only leave with the next push flush,
   after the current request completes. *)
let journal sv ~kind ?(sid = "-") ?(cycle = -1) ?(detail = "") () =
  let e =
    {
      e_seq = sv.ev_seq;
      e_time = Unix.gettimeofday ();
      e_kind = kind;
      e_sid = sid;
      e_cycle = cycle;
      e_detail = detail;
    }
  in
  sv.ev_ring.(sv.ev_seq mod ev_ring_len) <- Some e;
  sv.ev_seq <- sv.ev_seq + 1;
  List.iter (fun conn -> if conn.k_events then enqueue_push sv conn (event_frame e)) sv.conns

(* ------------------------------------------------------------------ *)
(* Admission accounting                                                 *)
(* ------------------------------------------------------------------ *)

(* Incremental cost of one more tenant lane in a group whose one-copy
   estimate is [base]: mirrors [Resource.estimate_unit ~threads] — the
   combinational logic is shared (plus ~ffs/16 of thread-scheduling
   overhead), the architectural state is replicated. *)
let lane_cost (base : Resource.estimate) =
  { Resource.luts = base.ffs / 16; ffs = base.ffs; bram_bits = base.bram_bits; dsps = 0 }

let allocated_lanes g = Sim.lanes g.g_sim - List.length g.g_free

let scale_cost n (lc : Resource.estimate) =
  { Resource.luts = lc.luts * n; ffs = lc.ffs * n; bram_bits = lc.bram_bits * n; dsps = 0 }

let group_cost g = Resource.add g.g_base (scale_cost (allocated_lanes g - 1) g.g_lane_cost)

let committed sv = List.fold_left (fun acc g -> Resource.add acc (group_cost g)) Resource.zero sv.groups

let fits sv extra =
  Fpga.fits ~threshold:sv.cfg.fit_threshold sv.cfg.board (Resource.add (committed sv) extra)

(* ------------------------------------------------------------------ *)
(* Compile cache                                                        *)
(* ------------------------------------------------------------------ *)

let cache_get sv ~hash ~design =
  match Hashtbl.find_opt sv.cache hash with
  | Some ce ->
    sv.tl.t_cache_hits <- sv.tl.t_cache_hits + 1;
    ce
  | None ->
    sv.tl.t_cache_misses <- sv.tl.t_cache_misses + 1;
    let circuit = Firrtl.Text.parse design in
    let flat = Firrtl.Flatten.flatten circuit in
    let ce = { ce_flat = flat; ce_est = Resource.estimate_flat flat } in
    Hashtbl.replace sv.cache hash ce;
    ce

(* ------------------------------------------------------------------ *)
(* Group lifecycle                                                      *)
(* ------------------------------------------------------------------ *)

let new_group sv ~hash ~engine ~lanes ~packable ce =
  let sim =
    Sim.create ~engine ~telemetry:sv.cfg.telemetry ~lanes
      ~label:(Printf.sprintf "service.g%d" sv.next_gid)
      ce.ce_flat
  in
  let g =
    {
      g_id = sv.next_gid;
      g_hash = hash;
      g_engine = engine;
      g_sim = sim;
      g_base = ce.ce_est;
      g_lane_cost = lane_cost ce.ce_est;
      g_packable = packable;
      g_members = [];
      g_free = [];
      g_stepped = false;
      g_dirty = true;
    }
  in
  sv.next_gid <- sv.next_gid + 1;
  sv.groups <- g :: sv.groups;
  g

let destroy_group sv g = sv.groups <- List.filter (fun g' -> g' != g) sv.groups

(* Drops [lane] from [g]: an unstepped group resets it back into the
   free pool; a stepped group strands it (the lane keeps ticking,
   unobserved — lanes share one cycle counter, so it cannot be handed
   to a fresh tenant).  An emptied group is torn down entirely. *)
let remove_member sv g lane =
  g.g_members <- List.filter (fun (l, _) -> l <> lane) g.g_members;
  if g.g_members = [] then destroy_group sv g
  else if not g.g_stepped then begin
    Sim.reset_lane g.g_sim ~lane;
    g.g_free <- lane :: g.g_free
  end

(* ------------------------------------------------------------------ *)
(* Credit-drain barrier                                                 *)
(* ------------------------------------------------------------------ *)

(* Advances [g] by the minimum outstanding credit across its tenants,
   repeatedly, until some tenant is out of credits.  All lanes advance
   in lockstep (one vectorized pass per cycle); each tenant's inputs
   hold at their last-set values, exactly as they would in a private
   simulator stepped with untouched inputs. *)
let drain sv g =
  let rec go () =
    match g.g_members with
    | [] -> ()
    | ms ->
      let m = List.fold_left (fun acc (_, s) -> min acc s.s_pending) max_int ms in
      if m > 0 then begin
        for _ = 1 to m do
          Sim.step g.g_sim
        done;
        g.g_stepped <- true;
        g.g_free <- [];  (* no longer at cycle 0: nothing left to hand out *)
        g.g_dirty <- true;
        let c = Sim.cycle g.g_sim in
        List.iter
          (fun (_, s) ->
            s.s_pending <- s.s_pending - m;
            s.s_cycle <- c;
            Telemetry.add s.s_cycles_ctr m)
          ms;
        sv.tl.t_cycles <- sv.tl.t_cycles + (m * List.length ms);
        go ()
      end
  in
  go ()

let drain_all sv = List.iter (drain sv) sv.groups

(* Combinational values fresh for reading (probes, gets, peeked
   enables).  [eval_comb] covers every lane, so one pass serves all the
   group's tenants; idempotent, hence the dirty flag. *)
let ensure_fresh g =
  if g.g_dirty then begin
    Sim.eval_comb g.g_sim;
    g.g_dirty <- false
  end

(* ------------------------------------------------------------------ *)
(* Eviction / revival                                                   *)
(* ------------------------------------------------------------------ *)

let live_exn sess =
  match sess.s_body with
  | Live b -> b
  | Evicted _ -> failwith (Printf.sprintf "session %s is evicted" sess.s_id)

let is_parked_on sv sess =
  List.exists
    (fun c ->
      match c.k_parked with
      | Some (P_wait { p_sess; _ }) -> p_sess == sess
      | _ -> false)
    sv.conns

(* Bundle state payloads carry the driven input pins ahead of the
   architectural snapshot — one "inputs <name> <v> ..." header line,
   then the [Sim.state_to_string] text.  Without the header a resumed
   session would power back up with all pins at zero and silently
   diverge from its pre-eviction trajectory. *)
let encode_state sess st =
  let b = Buffer.create 256 in
  Buffer.add_string b "inputs";
  Hashtbl.iter (fun n v -> Buffer.add_string b (Printf.sprintf " %s %d" n v)) sess.s_inputs;
  Buffer.add_char b '\n';
  Buffer.add_string b (Sim.state_to_string st);
  Buffer.contents b

(* Returns (input pairs, architectural-state text); tolerates a
   headerless payload as "no inputs driven". *)
let decode_state raw =
  match String.index_opt raw '\n' with
  | Some i when i >= 6 && String.sub raw 0 6 = "inputs" ->
    let rec pairs = function
      | n :: v :: rest -> (n, Wire.int_word ~context:"bundle inputs" v) :: pairs rest
      | [] -> []
      | [ w ] -> failwith (Printf.sprintf "bundle inputs: dangling word %S" w)
    in
    ( pairs (List.tl (Wire.words (String.sub raw 0 i))),
      String.sub raw (i + 1) (String.length raw - i - 1) )
  | _ -> ([], raw)

(* Replays the session's driven pins onto a freshly built lane (after a
   [Sim.restore_state], which covers architectural state only). *)
let replay_inputs sess g lane =
  Hashtbl.iter (fun n v -> Sim.set_input ~lane g.g_sim n v) sess.s_inputs;
  g.g_dirty <- true

(* Writes [sess]'s architectural state into a session bundle and frees
   its engine.  Only private (sole-tenant, single-lane) idle sessions
   qualify; packed tenants are detached first by the callers that need
   them gone. *)
let evict_session sv sess =
  let dir =
    match sv.cfg.state_dir with
    | Some d -> d
    | None -> failwith "eviction requires the server to run with a state dir"
  in
  let b = live_exn sess in
  let state = encode_state sess (Sim.save_state ~lane:b.b_lane b.b_grp.g_sim) in
  let path =
    Bundle.save_session ~dir ~id:sess.s_id ~engine:(Sim.engine_name sess.s_engine)
      ~design:sess.s_design ~cycle:(Sim.cycle b.b_grp.g_sim) ~state
  in
  sess.s_cycle <- Sim.cycle b.b_grp.g_sim;
  remove_member sv b.b_grp b.b_lane;
  sess.s_body <- Evicted path;
  sv.tl.t_evicted <- sv.tl.t_evicted + 1;
  journal sv ~kind:"evict" ~sid:sess.s_id ~cycle:sess.s_cycle ();
  path

(* Idle private sessions, least-recently-touched first — the LRU
   candidates admission control may push out to make room. *)
let evictable sv ?keep () =
  Hashtbl.fold
    (fun _ s acc ->
      match s.s_body with
      | Evicted _ -> acc
      | Live b ->
        if
          s.s_pending = 0 && s.s_lanes = 1
          && List.length b.b_grp.g_members = 1
          && (match keep with Some g -> b.b_grp != g | None -> true)
          && not (is_parked_on sv s)
        then s :: acc
        else acc)
    sv.sessions []
  |> List.sort (fun a b -> compare a.s_touch b.s_touch)

(* Makes room for [extra] by evicting idle sessions LRU-first; returns
   whether the budget now fits.  No state dir means nothing to evict
   into, so the answer is just the fit check. *)
let make_room sv ?keep extra =
  if fits sv extra then true
  else if sv.cfg.state_dir = None then false
  else begin
    let rec go = function
      | [] -> fits sv extra
      | s :: rest ->
        ignore (evict_session sv s);
        if fits sv extra then true else go rest
    in
    go (evictable sv ?keep ())
  end

(* Transparent resume-on-touch: rebuilds an evicted session as a
   private group from its bundle.  The design text rides inside the
   bundle, so revival (and server-restart resurrection) never needs the
   client to re-ship the circuit. *)
let revive sv sess =
  match sess.s_body with
  | Live _ -> ()
  | Evicted path ->
    let ck = Bundle.load_session ~path in
    let ce = cache_get sv ~hash:ck.Bundle.sc_design_hash ~design:ck.Bundle.sc_design in
    if not (make_room sv ce.ce_est) then
      raise (Reject (Printf.sprintf "no capacity to resume session %s" sess.s_id));
    let g = new_group sv ~hash:sess.s_hash ~engine:sess.s_engine ~lanes:1 ~packable:false ce in
    let inputs, state = decode_state ck.Bundle.sc_state in
    Sim.restore_state g.g_sim (Sim.state_of_string state);
    Hashtbl.reset sess.s_inputs;
    List.iter (fun (n, v) -> Hashtbl.replace sess.s_inputs n v) inputs;
    replay_inputs sess g 0;
    g.g_members <- [ (0, sess) ];
    (* Restored state is not power-on state: the group is born
       non-joinable even when the bundle was cut at cycle 0. *)
    g.g_stepped <- true;
    sess.s_body <- Live { b_grp = g; b_lane = 0 };
    sess.s_cycle <- Sim.cycle g.g_sim;
    sv.tl.t_resumed <- sv.tl.t_resumed + 1;
    journal sv ~kind:"resume" ~sid:sess.s_id ~cycle:sess.s_cycle ()

let ensure_live sv sess =
  revive sv sess;
  touch sv sess

(* ------------------------------------------------------------------ *)
(* Packing / detaching                                                  *)
(* ------------------------------------------------------------------ *)

let find_pack_target sv ~hash =
  List.find_opt
    (fun g -> g.g_packable && (not g.g_stepped) && g.g_hash = hash && g.g_engine = Sim.Bytecode)
    sv.groups

(* Pulls a packed tenant out into a private engine, carrying its lane
   state over bit-exactly (registers, memories, the shared cycle
   count).  Runs when the credit barrier has stalled it for longer than
   [pack_wait], and before evicting a packed tenant. *)
let detach sv sess =
  let b = live_exn sess in
  if List.length b.b_grp.g_members > 1 then begin
    let old = b.b_grp in
    let st = Sim.save_state ~lane:b.b_lane old.g_sim in
    remove_member sv old b.b_lane;
    let ce = cache_get sv ~hash:sess.s_hash ~design:sess.s_design in
    (* Best effort: a detach must not fail, so over-commit if even
       eviction cannot cover the private engine's cost. *)
    ignore (make_room sv ce.ce_est : bool);
    let g = new_group sv ~hash:sess.s_hash ~engine:sess.s_engine ~lanes:1 ~packable:false ce in
    Sim.restore_state g.g_sim st;
    replay_inputs sess g 0;
    g.g_members <- [ (0, sess) ];
    g.g_stepped <- true;
    b.b_grp <- g;
    b.b_lane <- 0;
    sv.tl.t_detached <- sv.tl.t_detached + 1;
    journal sv ~kind:"detach" ~sid:sess.s_id ~cycle:(Sim.cycle g.g_sim) ();
    drain sv old;
    drain sv g
  end

(* ------------------------------------------------------------------ *)
(* Session creation                                                     *)
(* ------------------------------------------------------------------ *)

let fresh_sid sv =
  let rec go () =
    let sid = Printf.sprintf "s%d" sv.next_sid in
    sv.next_sid <- sv.next_sid + 1;
    if Hashtbl.mem sv.sessions sid then go () else sid
  in
  go ()

type create_req = {
  cr_engine : Sim.engine;
  cr_scheduler : Libdn.Scheduler.t;
  cr_lanes : int;
  cr_pack : bool;
  cr_queue : bool;
}

let parse_create_opts opts =
  let req =
    ref
      {
        cr_engine = Sim.default_engine;
        cr_scheduler = Libdn.Scheduler.default;
        cr_lanes = 1;
        cr_pack = true;
        cr_queue = false;
      }
  in
  List.iter
    (fun opt ->
      match String.index_opt opt '=' with
      | None -> failwith (Printf.sprintf "create: malformed option %S (want key=value)" opt)
      | Some i ->
        let k = String.sub opt 0 i in
        let v = String.sub opt (i + 1) (String.length opt - i - 1) in
        let int () = Wire.int_word ~context:("create " ^ k) v in
        let flag () =
          match v with
          | "0" -> false
          | "1" -> true
          | _ -> failwith (Printf.sprintf "create: %s=%S (want 0 or 1)" k v)
        in
        (match k with
        | "engine" -> (
          match Sim.engine_of_string v with
          | Ok e -> req := { !req with cr_engine = e }
          | Error m -> failwith m)
        | "scheduler" -> (
          match Libdn.Scheduler.of_string v with
          | Ok s -> req := { !req with cr_scheduler = s }
          | Error m -> failwith m)
        | "lanes" ->
          let n = int () in
          if n < 1 then failwith "create: lanes must be >= 1";
          req := { !req with cr_lanes = n }
        | "pack" -> req := { !req with cr_pack = flag () }
        | "queue" -> req := { !req with cr_queue = flag () }
        | _ -> failwith (Printf.sprintf "create: unknown option %S" k)))
    opts;
  !req

(* Places and builds one session; raises [No_capacity] when admission
   fails even after LRU eviction (the caller queues or rejects). *)
let create_session sv req design =
  if design = "" || String.trim design = "" then failwith "create: empty design";
  if Hashtbl.length sv.sessions >= sv.cfg.max_sessions then
    raise
      (No_capacity (Printf.sprintf "session cap reached (%d sessions)" sv.cfg.max_sessions));
  if req.cr_lanes > 1 && req.cr_engine <> Sim.Bytecode then
    failwith "create: lanes > 1 requires engine=bytecode";
  let hash = Bundle.hash_text design in
  let ce = cache_get sv ~hash ~design in
  let pack_eligible =
    sv.cfg.pack && req.cr_pack && req.cr_engine = Sim.Bytecode && req.cr_lanes = 1
  in
  let sid = fresh_sid sv in
  let sess =
    {
      s_id = sid;
      s_engine = req.cr_engine;
      s_scheduler = req.cr_scheduler;
      s_design = design;
      s_hash = hash;
      s_lanes = req.cr_lanes;
      s_body = Evicted "";  (* placed below *)
      s_cycle = 0;
      s_pending = 0;
      s_touch = 0;
      s_inputs = Hashtbl.create 8;
      s_cycles_ctr = Telemetry.counter sv.cfg.telemetry ("service.session." ^ sid ^ ".cycles");
    }
  in
  let grp, lane =
    match (if pack_eligible then find_pack_target sv ~hash else None) with
    | Some g ->
      (* Joining an existing group: the design is already parsed AND
         compiled — the tenant is one more lane of the same program. *)
      let cost = if g.g_free = [] then g.g_lane_cost else Resource.zero in
      if not (make_room sv ~keep:g cost) then
        raise (No_capacity "over budget even after evicting idle sessions");
      let lane =
        match g.g_free with
        | l :: rest ->
          g.g_free <- rest;
          l
        | [] -> Sim.attach_lane g.g_sim
      in
      sv.tl.t_packed <- sv.tl.t_packed + 1;
      (g, lane)
    | None ->
      let cost = Resource.add ce.ce_est (scale_cost (req.cr_lanes - 1) (lane_cost ce.ce_est)) in
      if not (make_room sv cost) then
        raise (No_capacity "over budget even after evicting idle sessions");
      let g =
        new_group sv ~hash ~engine:req.cr_engine ~lanes:req.cr_lanes
          ~packable:pack_eligible ce
      in
      (g, 0)
  in
  grp.g_members <- (lane, sess) :: grp.g_members;
  grp.g_dirty <- true;
  sess.s_body <- Live { b_grp = grp; b_lane = lane };
  Hashtbl.replace sv.sessions sid sess;
  touch sv sess;
  sv.tl.t_created <- sv.tl.t_created + 1;
  journal sv ~kind:"create" ~sid ~cycle:(Sim.cycle grp.g_sim)
    ~detail:(Sim.engine_name req.cr_engine) ();
  if List.length grp.g_members > 1 then
    journal sv ~kind:"pack" ~sid ~cycle:(Sim.cycle grp.g_sim)
      ~detail:(Printf.sprintf "group=%d lane=%d" grp.g_id lane) ();
  sess

(* ------------------------------------------------------------------ *)
(* Replies                                                              *)
(* ------------------------------------------------------------------ *)

(* A v2 connection gets every frame tagged (replies [tag_reply],
   pushes [tag_push]); a v1 connection keeps the untagged
   fireaxe-service-1 byte stream. *)
let send conn payload =
  if not conn.k_dead then
    try
      if conn.k_v2 then
        Wire.write_tagged ~label:"client" conn.k_fd ~tag:Wire.tag_reply payload
      else Wire.write_frame ~label:"client" conn.k_fd payload
    with Wire.Closed _ -> conn.k_dead <- true

let one_line s =
  String.map (function '\n' | '\r' -> ' ' | c -> c) s

let reply_ok ?(blob = "") conn ws =
  send conn (Wire.join_payload (String.concat " " ("ok" :: ws)) blob)

let reply_err conn msg = send conn (Wire.join_payload ("error " ^ one_line msg) "")
let reply_rejected conn msg = send conn (Wire.join_payload ("rejected " ^ one_line msg) "")

(* ------------------------------------------------------------------ *)
(* Commands                                                             *)
(* ------------------------------------------------------------------ *)

let session_exn sv sid =
  match Hashtbl.find_opt sv.sessions sid with
  | Some s -> s
  | None -> failwith (Printf.sprintf "no such session: %s" sid)

let session_cycle sess =
  match sess.s_body with
  | Live b -> Sim.cycle b.b_grp.g_sim
  | Evicted _ -> sess.s_cycle

let cyc sess = string_of_int (session_cycle sess)

(* Drives [name] on the session's lane; a multi-lane (replicated)
   session broadcasts to all its lanes.  Multi-lane sessions are always
   sole tenants, so the broadcast cannot leak into a neighbor. *)
let do_set sess name v =
  let b = live_exn sess in
  if sess.s_lanes > 1 then Sim.set_input_all b.b_grp.g_sim name v
  else Sim.set_input ~lane:b.b_lane b.b_grp.g_sim name v;
  Hashtbl.replace sess.s_inputs name v;
  b.b_grp.g_dirty <- true

let do_get sess name =
  let b = live_exn sess in
  ensure_fresh b.b_grp;
  Sim.get ~lane:b.b_lane b.b_grp.g_sim name

let handle_step sv conn sess n ~park =
  if n < 0 then failwith "step: negative cycle count"
  else begin
    sess.s_pending <- sess.s_pending + n;
    (match sess.s_body with Live b -> drain sv b.b_grp | Evicted _ -> ());
    if (not park) || sess.s_pending = 0 then
      if park then reply_ok conn [ cyc sess ]
      else reply_ok conn [ cyc sess; string_of_int sess.s_pending ]
    else
      conn.k_parked <- Some (P_wait { p_sess = sess; p_deadline = now () +. sv.cfg.pack_wait })
  end

let handle_create sv conn opts design =
  let req = parse_create_opts opts in
  match create_session sv req design with
  | sess ->
    let b = live_exn sess in
    reply_ok conn
      [
        sess.s_id;
        cyc sess;
        (if List.length b.b_grp.g_members > 1 then "1" else "0");
        string_of_int b.b_grp.g_id;
        string_of_int (Sim.lanes b.b_grp.g_sim);
      ]
  | exception No_capacity msg ->
    if req.cr_queue then begin
      sv.tl.t_queued <- sv.tl.t_queued + 1;
      journal sv ~kind:"queue" ~detail:msg ();
      conn.k_parked <-
        Some (P_create { p_opts = opts; p_design = design; p_deadline = now () +. sv.cfg.queue_wait })
    end
    else begin
      sv.tl.t_rejected <- sv.tl.t_rejected + 1;
      journal sv ~kind:"reject" ~detail:msg ();
      reply_rejected conn msg
    end

let delete_session_bundles sv sid =
  match sv.cfg.state_dir with
  | None -> ()
  | Some dir ->
    let rec rm path =
      match (Unix.lstat path).Unix.st_kind with
      | Unix.S_DIR ->
        Array.iter (fun e -> rm (Filename.concat path e)) (Sys.readdir path);
        Unix.rmdir path
      | _ -> Unix.unlink path
      | exception Unix.Unix_error _ -> ()
    in
    rm (Filename.concat dir ("session-" ^ sid))

let handle_kill sv conn sid =
  let sess = session_exn sv sid in
  (match sess.s_body with
  | Live b -> remove_member sv b.b_grp b.b_lane
  | Evicted _ -> ());
  Hashtbl.remove sv.sessions sid;
  delete_session_bundles sv sid;
  (* Anyone parked on the victim gets an error, not silence. *)
  List.iter
    (fun c ->
      match c.k_parked with
      | Some (P_wait { p_sess; _ }) when p_sess == sess ->
        c.k_parked <- None;
        reply_err c (Printf.sprintf "session %s killed" sid)
      | _ -> ())
    sv.conns;
  sv.tl.t_killed <- sv.tl.t_killed + 1;
  journal sv ~kind:"kill" ~sid ();
  reply_ok conn []

let handle_list sv conn =
  let rows =
    Hashtbl.fold (fun _ s acc -> s :: acc) sv.sessions []
    |> List.sort (fun a b -> compare a.s_id b.s_id)
    |> List.map (fun s ->
           let status, grp, lane =
             match s.s_body with
             | Live b -> ("live", b.b_grp.g_id, b.b_lane)
             | Evicted _ -> ("evicted", -1, -1)
           in
           Protocol.row_to_line
             {
               Protocol.r_sid = s.s_id;
               r_status = status;
               r_cycle = session_cycle s;
               r_engine = Sim.engine_name s.s_engine;
               r_group = grp;
               r_lane = lane;
               r_pending = s.s_pending;
             })
  in
  reply_ok conn [ string_of_int (List.length rows) ] ~blob:(String.concat "\n" rows)

let est_json (e : Resource.estimate) =
  Telemetry.Json.Obj
    [
      ("luts", Telemetry.Json.Int e.luts);
      ("ffs", Telemetry.Json.Int e.ffs);
      ("bram_bits", Telemetry.Json.Int e.bram_bits);
      ("dsps", Telemetry.Json.Int e.dsps);
    ]

let session_counts sv =
  Hashtbl.fold
    (fun _ s (l, e) -> match s.s_body with Live _ -> (l + 1, e) | Evicted _ -> (l, e + 1))
    sv.sessions (0, 0)

let handle_stats sv conn =
  let module J = Telemetry.Json in
  let live, evicted = session_counts sv in
  let sessions =
    Hashtbl.fold (fun _ s acc -> s :: acc) sv.sessions []
    |> List.sort (fun a b -> compare a.s_id b.s_id)
    |> List.map (fun s ->
           let status, grp, lane =
             match s.s_body with
             | Live b -> ("live", b.b_grp.g_id, b.b_lane)
             | Evicted _ -> ("evicted", -1, -1)
           in
           J.Obj
             [
               ("id", J.String s.s_id);
               ("status", J.String status);
               ("cycle", J.Int (session_cycle s));
               ("pending", J.Int s.s_pending);
               ("engine", J.String (Sim.engine_name s.s_engine));
               ("scheduler", J.String (Libdn.Scheduler.name s.s_scheduler));
               ("group", J.Int grp);
               ("lane", J.Int lane);
               ("lanes", J.Int s.s_lanes);
             ])
  in
  let groups =
    List.rev_map
      (fun g ->
        J.Obj
          [
            ("id", J.Int g.g_id);
            ("design_hash", J.String g.g_hash);
            ("engine", J.String (Sim.engine_name g.g_engine));
            ("lanes", J.Int (Sim.lanes g.g_sim));
            ("tenants", J.Int (List.length g.g_members));
            ("cycle", J.Int (Sim.cycle g.g_sim));
            ("stepped", J.Bool g.g_stepped);
            ( "program_hash",
              match Sim.bytecode_program_hash g.g_sim with
              | Some h -> J.String (Printf.sprintf "%016x" h)
              | None -> J.Null );
          ])
      sv.groups
  in
  let tl = sv.tl in
  let dropped_by =
    Hashtbl.fold (fun sid n acc -> (sid, J.Int n) :: acc) sv.dropped_by []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  let doc =
    J.Obj
      [
        ("schema", J.String Protocol.stats_schema);
        ("protocol", J.String Protocol.schema);
        ("uptime_s", J.Float (float_of_int (Telemetry.Clock.now_ns () - sv.started) /. 1e9));
        ("board", J.String sv.cfg.board.Fpga.board_name);
        ("sessions", J.Int (Hashtbl.length sv.sessions));
        ("subscriptions", J.Int (subscription_count sv));
        ("events_seq", J.Int sv.ev_seq);
        ("dropped_by_session", J.Obj dropped_by);
        ("live", J.Int live);
        ("evicted", J.Int evicted);
        ("groups", J.Int (List.length sv.groups));
        ("committed", est_json (committed sv));
        ( "budget",
          est_json
            {
              Resource.luts = sv.cfg.board.Fpga.luts;
              ffs = sv.cfg.board.Fpga.ffs;
              bram_bits = sv.cfg.board.Fpga.bram_bits;
              dsps = sv.cfg.board.Fpga.dsps;
            } );
        ( "counters",
          J.Obj
            [
              ("created", J.Int tl.t_created);
              ("rejected", J.Int tl.t_rejected);
              ("queued", J.Int tl.t_queued);
              ("evicted", J.Int tl.t_evicted);
              ("resumed", J.Int tl.t_resumed);
              ("killed", J.Int tl.t_killed);
              ("packed", J.Int tl.t_packed);
              ("detached", J.Int tl.t_detached);
              ("cycles", J.Int tl.t_cycles);
              ("cache_hits", J.Int tl.t_cache_hits);
              ("cache_misses", J.Int tl.t_cache_misses);
              ("pushes", J.Int tl.t_pushes);
              ("push_dropped", J.Int tl.t_push_dropped);
            ] );
        ("session_detail", J.List sessions);
        ("group_detail", J.List groups);
      ]
  in
  reply_ok conn [] ~blob:(J.to_string doc)

let handle sv conn payload =
  let line, blob = Wire.split_payload payload in
  let int w = Wire.int_word ~context:"request" w in
  match Wire.words line with
  | [ "hello"; s ] when s = Protocol.schema ->
    conn.k_hello <- true;
    conn.k_v2 <- true;  (* before the reply: the hello reply itself is tagged *)
    reply_ok conn [ Protocol.schema ]
  | [ "hello"; s ] when s = Protocol.schema_v1 ->
    conn.k_hello <- true;
    conn.k_v2 <- false;
    reply_ok conn [ Protocol.schema_v1 ]
  | "hello" :: rest ->
    reply_err conn
      (Printf.sprintf "schema mismatch: server speaks %s (or %s), client sent %S"
         Protocol.schema Protocol.schema_v1 (String.concat " " rest))
  | _ when not conn.k_hello ->
    reply_err conn (Printf.sprintf "expected: hello %s" Protocol.schema)
  | "create" :: opts -> handle_create sv conn opts blob
  | [ "step"; sid; n ] ->
    let sess = session_exn sv sid in
    ensure_live sv sess;
    handle_step sv conn sess (int n) ~park:true
  | [ "step_async"; sid; n ] ->
    let sess = session_exn sv sid in
    ensure_live sv sess;
    handle_step sv conn sess (int n) ~park:false
  | [ "wait"; sid ] ->
    let sess = session_exn sv sid in
    ensure_live sv sess;
    handle_step sv conn sess 0 ~park:true
  | [ "set"; sid; name; v ] ->
    let sess = session_exn sv sid in
    ensure_live sv sess;
    do_set sess name (int v);
    reply_ok conn []
  | [ "get"; sid; name ] ->
    let sess = session_exn sv sid in
    ensure_live sv sess;
    reply_ok conn [ string_of_int (do_get sess name) ]
  | "probe" :: sid :: names ->
    let sess = session_exn sv sid in
    ensure_live sv sess;
    reply_ok conn (List.map (fun n -> string_of_int (do_get sess n)) names)
  | [ "poke"; sid; mem; addr; v ] ->
    let sess = session_exn sv sid in
    ensure_live sv sess;
    let b = live_exn sess in
    Sim.poke_mem ~lane:b.b_lane b.b_grp.g_sim mem (int addr) (int v);
    b.b_grp.g_dirty <- true;
    reply_ok conn []
  | [ "peek"; sid; mem; addr ] ->
    let sess = session_exn sv sid in
    ensure_live sv sess;
    let b = live_exn sess in
    reply_ok conn [ string_of_int (Sim.peek_mem ~lane:b.b_lane b.b_grp.g_sim mem (int addr)) ]
  | [ "checkpoint"; sid ] ->
    let sess = session_exn sv sid in
    ensure_live sv sess;
    let dir =
      match sv.cfg.state_dir with
      | Some d -> d
      | None -> failwith "checkpoint requires the server to run with a state dir"
    in
    let b = live_exn sess in
    let state = encode_state sess (Sim.save_state ~lane:b.b_lane b.b_grp.g_sim) in
    let path =
      Bundle.save_session ~dir ~id:sess.s_id ~engine:(Sim.engine_name sess.s_engine)
        ~design:sess.s_design ~cycle:(Sim.cycle b.b_grp.g_sim) ~state
    in
    reply_ok conn [ cyc sess ] ~blob:path
  | [ "evict"; sid ] -> (
    let sess = session_exn sv sid in
    match sess.s_body with
    | Evicted _ -> reply_ok conn [ cyc sess ]
    | Live _ ->
      if sess.s_pending > 0 then failwith "evict: session has pending cycles"
      else if sess.s_lanes > 1 then failwith "evict: replicated multi-lane sessions are pinned"
      else if is_parked_on sv sess then failwith "evict: a client is waiting on this session"
      else begin
        detach sv sess;  (* no-op for sole tenants *)
        ignore (evict_session sv sess : string);
        reply_ok conn [ cyc sess ]
      end)
  | [ "resume"; sid ] ->
    let sess = session_exn sv sid in
    ensure_live sv sess;
    reply_ok conn [ cyc sess ]
  | [ "kill"; sid ] -> handle_kill sv conn sid
  | [ "list" ] -> handle_list sv conn
  | [ "stats" ] -> handle_stats sv conn
  | "watch" :: sid :: rest ->
    if not conn.k_v2 then failwith "watch requires fireaxe-service-2";
    let opts, probes = Protocol.split_options rest in
    let every =
      match List.assoc_opt "every" opts with Some v -> int v | None -> 1
    in
    if every < 1 then failwith "watch: every must be >= 1";
    if probes = [] then failwith "watch: no probes given";
    List.iter
      (fun (k, _) -> if k <> "every" then failwith (Printf.sprintf "watch: unknown option %S" k))
      opts;
    let sess = session_exn sv sid in
    ensure_live sv sess;
    (* Validate every probe now so a typo is an error reply, not a
       silently dead subscription. *)
    List.iter (fun p -> ignore (do_get sess p : int)) probes;
    let w =
      {
        w_id = sv.next_wid;
        w_sid = sess.s_id;
        w_probes = Array.of_list probes;
        w_every = every;
        w_last = [||];
        w_next = 0;
        w_sent = -1;
      }
    in
    sv.next_wid <- sv.next_wid + 1;
    conn.k_watches <- conn.k_watches @ [ w ];
    reply_ok conn [ string_of_int w.w_id ]
  | [ "unwatch"; wid ] ->
    if not conn.k_v2 then failwith "unwatch requires fireaxe-service-2";
    let wid = int wid in
    if not (List.exists (fun w -> w.w_id = wid) conn.k_watches) then
      failwith (Printf.sprintf "no such watch on this connection: %d" wid);
    conn.k_watches <- List.filter (fun w -> w.w_id <> wid) conn.k_watches;
    reply_ok conn []
  | "events" :: rest ->
    if not conn.k_v2 then failwith "events requires fireaxe-service-2";
    let opts, bare = Protocol.split_options rest in
    if bare <> [] then
      failwith (Printf.sprintf "events: unexpected word %S" (List.hd bare));
    let from =
      match List.assoc_opt "from" opts with Some v -> int v | None -> sv.ev_seq
    in
    List.iter
      (fun (k, _) -> if k <> "from" then failwith (Printf.sprintf "events: unknown option %S" k))
      opts;
    conn.k_events <- true;
    (* Replay what the journal ring still holds before going live; the
       reply's <next_seq> tells the client where the live stream will
       start, so it can detect what the ring had already forgotten. *)
    for seq = max 0 (max from (sv.ev_seq - ev_ring_len)) to sv.ev_seq - 1 do
      match sv.ev_ring.(seq mod ev_ring_len) with
      | Some e when e.e_seq = seq -> enqueue_push sv conn (event_frame e)
      | _ -> ()
    done;
    reply_ok conn [ string_of_int sv.ev_seq ]
  | [ "shutdown" ] ->
    journal sv ~kind:"shutdown" ();
    reply_ok conn [];
    sv.running <- false
  | ws -> failwith (Printf.sprintf "unknown request %S" (String.concat " " ws))

let safe_handle sv conn payload =
  try handle sv conn payload with
  | Reject msg ->
    sv.tl.t_rejected <- sv.tl.t_rejected + 1;
    journal sv ~kind:"reject" ~detail:msg ();
    reply_rejected conn msg
  | Failure msg -> reply_err conn msg
  | Sim.Sim_error msg -> reply_err conn msg
  | Bundle.Bundle_error msg -> reply_err conn msg
  | Firrtl.Text.Parse_error msg -> reply_err conn ("parse: " ^ msg)
  | Firrtl.Ast.Ir_error msg -> reply_err conn ("circuit: " ^ msg)
  | Invalid_argument msg -> reply_err conn msg

(* ------------------------------------------------------------------ *)
(* Progress: the deferred-reply machinery                               *)
(* ------------------------------------------------------------------ *)

(* Generates due watch frames: for every live watched session whose
   cycle has reached the subscription's next boundary (or whose stream
   needs a resync), diff the probe values against the last pushed frame
   and queue the delta.  Watches on killed sessions are dropped;
   evicted sessions stay subscribed with a frozen cycle and resume
   streaming after resume-on-touch. *)
let push_watches sv =
  List.iter
    (fun conn ->
      if conn.k_v2 && not conn.k_dead then
        conn.k_watches <-
          List.filter
            (fun w ->
              match Hashtbl.find_opt sv.sessions w.w_sid with
              | None -> false
              | Some sess -> (
                match sess.s_body with
                | Evicted _ -> true
                | Live b -> (
                  let c = Sim.cycle b.b_grp.g_sim in
                  if w.w_last = [||] || (c >= w.w_next && c > w.w_sent) then begin
                    match
                      ensure_fresh b.b_grp;
                      Array.map (fun p -> Sim.get ~lane:b.b_lane b.b_grp.g_sim p) w.w_probes
                    with
                    | vals ->
                      let changes =
                        if w.w_last = [||] then
                          Array.to_list (Array.mapi (fun i v -> (i, v)) vals)
                        else begin
                          let acc = ref [] in
                          for i = Array.length vals - 1 downto 0 do
                            if vals.(i) <> w.w_last.(i) then acc := (i, vals.(i)) :: !acc
                          done;
                          !acc
                        end
                      in
                      enqueue_push sv conn ~sid:w.w_sid
                        (Wire.join_payload
                           (Printf.sprintf "watch %d %s" w.w_id w.w_sid)
                           (Debug.Wavestore.Codec.encode_delta ~cycle:c ~changes));
                      w.w_last <- vals;
                      w.w_sent <- c;
                      w.w_next <- c + w.w_every;
                      true
                    | exception _ -> false
                  end
                  else true)))
            conn.k_watches)
    sv.conns

(* Writes queued pushes out while the socket can take them without
   blocking the loop; what remains waits for the next pass. *)
let flush_pushes sv conn =
  if conn.k_v2 && not conn.k_dead then begin
    let writable () =
      match Unix.select [] [ conn.k_fd ] [] 0. with
      | _, _ :: _, _ -> true
      | _ -> false
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> false
    in
    let continue = ref true in
    while !continue && not (Queue.is_empty conn.k_pushq) do
      if writable () then begin
        let _, payload = Queue.pop conn.k_pushq in
        try
          Wire.write_tagged ~label:"client" conn.k_fd ~tag:Wire.tag_push payload;
          sv.tl.t_pushes <- sv.tl.t_pushes + 1
        with Wire.Closed _ ->
          conn.k_dead <- true;
          continue := false
      end
      else continue := false
    done
  end

let progress sv =
  drain_all sv;
  let t = now () in
  List.iter
    (fun conn ->
      if not conn.k_dead then
        match conn.k_parked with
        | None -> ()
        | Some (P_wait { p_sess; p_deadline }) ->
          if p_sess.s_pending = 0 then begin
            conn.k_parked <- None;
            reply_ok conn [ cyc p_sess ]
          end
          else if t >= p_deadline then begin
            (* The barrier has stalled this tenant too long: give it a
               private engine and finish its credits there. *)
            conn.k_parked <- None;
            (try
               detach sv p_sess;
               (match p_sess.s_body with Live b -> drain sv b.b_grp | Evicted _ -> ());
               if p_sess.s_pending = 0 then reply_ok conn [ cyc p_sess ]
               else reply_err conn "internal: credits undrained after detach"
             with e -> reply_err conn (Printexc.to_string e))
          end
        | Some (P_create { p_opts; p_design; p_deadline }) -> (
          (* Capacity may have freed (kill/evict/detach): retry. *)
          match
            let req = parse_create_opts p_opts in
            create_session sv req p_design
          with
          | sess ->
            conn.k_parked <- None;
            let b = live_exn sess in
            reply_ok conn
              [
                sess.s_id;
                cyc sess;
                (if List.length b.b_grp.g_members > 1 then "1" else "0");
                string_of_int b.b_grp.g_id;
                string_of_int (Sim.lanes b.b_grp.g_sim);
              ]
          | exception No_capacity msg ->
            if t >= p_deadline then begin
              conn.k_parked <- None;
              sv.tl.t_rejected <- sv.tl.t_rejected + 1;
              journal sv ~kind:"reject" ~detail:(msg ^ " (queue expired)") ();
              reply_rejected conn (msg ^ " (queue expired)")
            end
          | exception e ->
            conn.k_parked <- None;
            reply_err conn (Printexc.to_string e)))
    sv.conns;
  push_watches sv;
  List.iter (flush_pushes sv) sv.conns

(* The select timeout: tight when a parked deadline approaches or a
   subscriber still has queued pushes, lazy otherwise. *)
let loop_timeout sv =
  let t = now () in
  let base =
    if List.exists (fun c -> not (Queue.is_empty c.k_pushq)) sv.conns then 0.02
    else 0.25
  in
  List.fold_left
    (fun acc conn ->
      match conn.k_parked with
      | Some (P_wait { p_deadline; _ }) | Some (P_create { p_deadline; _ }) ->
        Float.min acc (Float.max 0.005 (p_deadline -. t))
      | None -> acc)
    base sv.conns

(* ------------------------------------------------------------------ *)
(* Event loop                                                           *)
(* ------------------------------------------------------------------ *)

let pump sv conn =
  let rec go () =
    if (not conn.k_dead) && sv.running then
      match Wire.try_read_frame conn.k_rd with
      | None -> ()
      | Some payload ->
        if conn.k_parked <> None then begin
          (* One outstanding request per connection is the contract;
             a pipelined frame means a broken client. *)
          reply_err conn "protocol: request while a reply is pending";
          conn.k_dead <- true
        end
        else begin
          safe_handle sv conn payload;
          go ()
        end
  in
  try go () with
  | Wire.Closed _ -> conn.k_dead <- true
  | Failure _ -> conn.k_dead <- true

(* A vanished client abandons its parked request; the session itself —
   and any credits already granted — survive for reconnection. *)
let prune_conns sv =
  let dead, alive = List.partition (fun c -> c.k_dead) sv.conns in
  List.iter (fun c -> try Unix.close c.k_fd with Unix.Unix_error _ -> ()) dead;
  sv.conns <- alive

(* Registers every session bundle under the state dir as an evicted
   session: a restarted server picks up exactly where eviction (or an
   explicit checkpoint) left its tenants. *)
let resurrect sv =
  match sv.cfg.state_dir with
  | None -> ()
  | Some dir ->
    List.iter
      (fun (id, _cycle, path) ->
        match Bundle.load_session ~path with
        | ck ->
          let engine =
            match Sim.engine_of_string ck.Bundle.sc_engine with
            | Ok e -> e
            | Error _ -> Sim.default_engine
          in
          let sess =
            {
              s_id = id;
              s_engine = engine;
              s_scheduler = Libdn.Scheduler.default;
              s_design = ck.Bundle.sc_design;
              s_hash = ck.Bundle.sc_design_hash;
              s_lanes = 1;
              s_body = Evicted path;
              s_cycle = ck.Bundle.sc_cycle;
              s_pending = 0;
              s_touch = 0;
              s_inputs = Hashtbl.create 8;
              s_cycles_ctr =
                Telemetry.counter sv.cfg.telemetry ("service.session." ^ id ^ ".cycles");
            }
          in
          Hashtbl.replace sv.sessions id sess
        | exception Bundle.Bundle_error _ -> ())
      (Bundle.session_list ~dir)

(* Exports the tallies under their [service.*] metric names, and the
   three gauges as reads at export time; a disabled sink registers
   nothing. *)
let register_metrics sv =
  let tel = sv.cfg.telemetry in
  List.iter
    (fun (name, read) -> Telemetry.counter_of tel name (fun () -> read sv.tl))
    [
      ("service.sessions.created", fun tl -> tl.t_created);
      ("service.sessions.rejected", fun tl -> tl.t_rejected);
      ("service.sessions.evicted", fun tl -> tl.t_evicted);
      ("service.sessions.resumed", fun tl -> tl.t_resumed);
      ("service.sessions.killed", fun tl -> tl.t_killed);
      ("service.pack.attached", fun tl -> tl.t_packed);
      ("service.pack.detached", fun tl -> tl.t_detached);
      ("service.cycles", fun tl -> tl.t_cycles);
      ("service.sub.pushed", fun tl -> tl.t_pushes);
      ("service.sub.dropped", fun tl -> tl.t_push_dropped);
    ];
  Telemetry.gauge_of tel "service.sessions.live" (fun () -> fst (session_counts sv));
  Telemetry.gauge_of tel "service.groups" (fun () -> List.length sv.groups);
  Telemetry.gauge_of tel "service.subscriptions" (fun () -> subscription_count sv)

let run cfg =
  if Sys.unix then Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let sv =
    {
      cfg;
      sessions = Hashtbl.create 64;
      groups = [];
      cache = Hashtbl.create 16;
      conns = [];
      next_sid = 1;
      next_gid = 1;
      next_wid = 1;
      touch_clock = 0;
      running = true;
      started = Telemetry.Clock.now_ns ();
      ev_ring = Array.make ev_ring_len None;
      ev_seq = 0;
      dropped_by = Hashtbl.create 7;
      tl =
        {
          t_created = 0;
          t_rejected = 0;
          t_queued = 0;
          t_evicted = 0;
          t_resumed = 0;
          t_killed = 0;
          t_packed = 0;
          t_detached = 0;
          t_cycles = 0;
          t_cache_hits = 0;
          t_cache_misses = 0;
          t_pushes = 0;
          t_push_dropped = 0;
        };
    }
  in
  register_metrics sv;
  resurrect sv;
  let lsock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.unlink cfg.socket_path with Unix.Unix_error _ -> ());
  Unix.bind lsock (Unix.ADDR_UNIX cfg.socket_path);
  Unix.listen lsock 64;
  let finally () =
    List.iter (fun c -> try Unix.close c.k_fd with Unix.Unix_error _ -> ()) sv.conns;
    (try Unix.close lsock with Unix.Unix_error _ -> ());
    try Unix.unlink cfg.socket_path with Unix.Unix_error _ -> ()
  in
  Fun.protect ~finally (fun () ->
      while sv.running do
        let fds = lsock :: List.map (fun c -> c.k_fd) sv.conns in
        let readable, _, _ =
          try Unix.select fds [] [] (loop_timeout sv)
          with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
        in
        if List.memq lsock readable then begin
          match Unix.accept lsock with
          | fd, _ ->
            sv.conns <-
              sv.conns
              @ [
                  {
                    k_fd = fd;
                    k_rd = Wire.reader ~label:"client" fd;
                    k_hello = false;
                    k_v2 = false;
                    k_parked = None;
                    k_dead = false;
                    k_watches = [];
                    k_events = false;
                    k_pushq = Queue.create ();
                  };
                ]
          | exception Unix.Unix_error _ -> ()
        end;
        List.iter (fun conn -> if List.memq conn.k_fd readable then pump sv conn) sv.conns;
        progress sv;
        prune_conns sv
      done)
