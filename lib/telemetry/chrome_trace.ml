(* Chrome trace-event collector: spans and instant events on per-track
   buffers, exported as trace-event JSON loadable in Perfetto or
   chrome://tracing.

   A track is identified by (pid, tid) — the LI-BDN runtime uses one
   track per partition/domain, so partition timelines sit side by side
   in the viewer.  Each track's event buffer is owned by the domain
   recording into it: registration takes the collector mutex once, but
   appends are plain (unsynchronized) list conses, so recording never
   introduces cross-domain synchronization on the simulation's hot
   path.  Export ({!to_json}) must only run after the recording domains
   have been joined. *)

type event =
  | Span of { sp_name : string; sp_ts : float; sp_dur : float; sp_args : (string * Json.t) list }
  | Instant of { in_name : string; in_ts : float; in_args : (string * Json.t) list }

type track = {
  tr_pid : int;
  tr_tid : int;
  tr_pname : string;  (** process (partition) display name *)
  tr_tname : string;  (** thread (domain) display name *)
  mutable tr_events : event list;  (* newest first *)
  mutable tr_count : int;
}

type t = {
  tc_mu : Mutex.t;
  mutable tc_tracks : track list;  (* registration order, reversed *)
  tc_t0 : int;  (** {!Clock} origin of all timestamps *)
}

let create () = { tc_mu = Mutex.create (); tc_tracks = []; tc_t0 = Clock.now_ns () }

(** A {!Clock.now_ns} stamp as microseconds since the collector was
    created — the [ts] domain of every event. *)
let ts t ns = float_of_int (ns - t.tc_t0) /. 1e3

(** Finds or registers the (pid, tid) track.  Get-or-create, so a
    partition's domain can be respawned (barrier-stepped runs) and keep
    appending to the same track. *)
let track t ~pid ~tid ?(pname = "") ~name () =
  Mutex.lock t.tc_mu;
  let tr =
    match
      List.find_opt (fun tr -> tr.tr_pid = pid && tr.tr_tid = tid) t.tc_tracks
    with
    | Some tr -> tr
    | None ->
      let tr =
        { tr_pid = pid; tr_tid = tid; tr_pname = pname; tr_tname = name; tr_events = []; tr_count = 0 }
      in
      t.tc_tracks <- tr :: t.tc_tracks;
      tr
  in
  Mutex.unlock t.tc_mu;
  tr

(* Appends are domain-local: only the domain owning the track calls
   these while the simulation runs. *)
let span tr ~name ?(args = []) ~ts ~dur () =
  tr.tr_events <- Span { sp_name = name; sp_ts = ts; sp_dur = dur; sp_args = args } :: tr.tr_events;
  tr.tr_count <- tr.tr_count + 1

let instant tr ~name ?(args = []) ~ts () =
  tr.tr_events <- Instant { in_name = name; in_ts = ts; in_args = args } :: tr.tr_events;
  tr.tr_count <- tr.tr_count + 1

let tracks t =
  Mutex.lock t.tc_mu;
  let ts = List.rev t.tc_tracks in
  Mutex.unlock t.tc_mu;
  ts

(* ------------------------------------------------------------------ *)
(* Export                                                              *)
(* ------------------------------------------------------------------ *)

let args_json args = Json.Obj args

let event_json tr = function
  | Span { sp_name; sp_ts; sp_dur; sp_args } ->
    Json.Obj
      [
        ("name", Json.String sp_name);
        ("ph", Json.String "X");
        ("ts", Json.Float sp_ts);
        ("dur", Json.Float sp_dur);
        ("pid", Json.Int tr.tr_pid);
        ("tid", Json.Int tr.tr_tid);
        ("args", args_json sp_args);
      ]
  | Instant { in_name; in_ts; in_args } ->
    Json.Obj
      [
        ("name", Json.String in_name);
        ("ph", Json.String "i");
        ("ts", Json.Float in_ts);
        ("s", Json.String "t");
        ("pid", Json.Int tr.tr_pid);
        ("tid", Json.Int tr.tr_tid);
        ("args", args_json in_args);
      ]

let metadata_json tr =
  let meta name value =
    Json.Obj
      [
        ("name", Json.String name);
        ("ph", Json.String "M");
        ("ts", Json.Float 0.);
        ("pid", Json.Int tr.tr_pid);
        ("tid", Json.Int tr.tr_tid);
        ("args", Json.Obj [ ("name", Json.String value) ]);
      ]
  in
  [ meta "process_name" tr.tr_pname; meta "thread_name" tr.tr_tname ]

(** The whole collection as one Chrome trace-event JSON document:
    metadata (track names) first, then each track's events in recording
    order. *)
let to_json_value t =
  let trs = tracks t in
  let events =
    List.concat_map
      (fun tr -> metadata_json tr @ List.rev_map (event_json tr) tr.tr_events)
      trs
  in
  Json.Obj [ ("traceEvents", Json.List events); ("displayTimeUnit", Json.String "ms") ]

let to_json t = Json.to_string (to_json_value t)

let save t ~path =
  let oc = open_out path in
  output_string oc (to_json t);
  output_char oc '\n';
  close_out oc
