(* The telemetry registry: named counters, gauges and percentile
   histograms plus an optional Chrome-trace collector, behind one sink
   object threaded through the LI-BDN execution layers.

   The disabled default ({!null}) registers nothing, and every metric it
   hands out is inert.  The hot layers go further and pick their
   recording variant once at build time, so with every sink off they
   make no call here at all.  An event the profiler also records is
   kept once, in its {!Profile} record: the registry exports it through
   a view ({!counter_of}) read at export time.

   Counters and gauges are atomics because partitions record from their
   own domains; histograms (which mutate a [Des.Stats] sample buffer)
   take a per-histogram mutex, and are only used on per-domain or
   driver-thread paths (remote-engine round trips). *)

(* Re-export the sibling modules: [Telemetry] is the library's main
   module, so these are the public names ([Telemetry.Json],
   [Telemetry.Clock], ...). *)
module Json = Json
module Clock = Clock
module Chrome_trace = Chrome_trace
module Snapshot = Snapshot
module Profile = Profile

(* Counters and gauges share one shape. *)
type cell = {
  name : string;
  on : bool;
  v : int Atomic.t;
}

type counter = cell
type gauge = cell

(* A registered counter or gauge: a cell recorded here, or a view of a
   record kept elsewhere, read at export. *)
type entry = Cell of cell | View of string * (unit -> int)

type hist = {
  h_name : string;
  h_on : bool;
  h_mu : Mutex.t;
  h_stats : Des.Stats.t;
}

type t = {
  enabled : bool;
  mu : Mutex.t;  (** guards the registration lists *)
  mutable t_counters : entry list;  (* newest first *)
  mutable t_gauges : entry list;
  mutable t_hists : hist list;
  t_trace : Chrome_trace.t option;
  mutable t_deadlock : Snapshot.t option;
}

let make ~enabled ~trace =
  {
    enabled;
    mu = Mutex.create ();
    t_counters = [];
    t_gauges = [];
    t_hists = [];
    t_trace = (if trace then Some (Chrome_trace.create ()) else None);
    t_deadlock = None;
  }

(** The shared disabled sink: every metric it hands out is an inert
    dummy and nothing is ever registered or exported. *)
let null = make ~enabled:false ~trace:false

let create ?(trace = false) () = make ~enabled:true ~trace

let enabled t = t.enabled

let trace t = t.t_trace

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

(* ------------------------------------------------------------------ *)
(* Registration (get-or-create by name)                                *)
(* ------------------------------------------------------------------ *)

let entry_name = function Cell c -> c.name | View (name, _) -> name
let entry_value = function Cell c -> Atomic.get c.v | View (_, read) -> read ()

(* Finds [name] in the list [get] reads, or registers a fresh cell
   there.  A disabled sink registers nothing. *)
let register t get set name =
  if not t.enabled then { name; on = false; v = Atomic.make 0 }
  else
    locked t (fun () ->
        match List.find_opt (fun e -> entry_name e = name) (get t) with
        | Some (Cell c) -> c
        | Some (View _) -> invalid_arg ("Telemetry: " ^ name ^ " is a view")
        | None ->
          let c = { name; on = true; v = Atomic.make 0 } in
          set t (Cell c :: get t);
          c)

(* Registers [read] under [name] unless the name is taken. *)
let register_view t get set name read =
  if t.enabled then
    locked t (fun () ->
        if not (List.exists (fun e -> entry_name e = name) (get t)) then
          set t (View (name, read) :: get t))

let counter t name = register t (fun t -> t.t_counters) (fun t l -> t.t_counters <- l) name
let gauge t name = register t (fun t -> t.t_gauges) (fun t l -> t.t_gauges <- l) name
let counter_of t = register_view t (fun t -> t.t_counters) (fun t l -> t.t_counters <- l)
let gauge_of t = register_view t (fun t -> t.t_gauges) (fun t l -> t.t_gauges <- l)

let hist t name =
  if not t.enabled then
    { h_name = name; h_on = false; h_mu = Mutex.create (); h_stats = Des.Stats.create () }
  else begin
    Mutex.lock t.mu;
    let h =
      match List.find_opt (fun h -> h.h_name = name) t.t_hists with
      | Some h -> h
      | None ->
        let h =
          { h_name = name; h_on = true; h_mu = Mutex.create (); h_stats = Des.Stats.create () }
        in
        t.t_hists <- h :: t.t_hists;
        h
    in
    Mutex.unlock t.mu;
    h
  end

(* ------------------------------------------------------------------ *)
(* Recording (one branch when disabled)                                *)
(* ------------------------------------------------------------------ *)

let incr c = if c.on then Atomic.incr c.v

let add c n = if c.on then ignore (Atomic.fetch_and_add c.v n)

let counter_value c = Atomic.get c.v

let set g v = if g.on then Atomic.set g.v v

(* Monotone max update (concurrent recorders race toward the max); a
   top-level loop, so no closure is allocated per sample. *)
let rec raise_to a v =
  let cur = Atomic.get a in
  if v > cur && not (Atomic.compare_and_set a cur v) then raise_to a v

let set_max g v = if g.on then raise_to g.v v

let gauge_value g = Atomic.get g.v

let observe h v =
  if h.h_on then begin
    Mutex.lock h.h_mu;
    Des.Stats.add h.h_stats v;
    Mutex.unlock h.h_mu
  end

(* ------------------------------------------------------------------ *)
(* Deadlock snapshots                                                  *)
(* ------------------------------------------------------------------ *)

(** Records a structured network snapshot on both sinks: kept for the
    metrics exporter and emitted as an instant event on the trace
    (track pid = -1, the network-wide lane). *)
let record_deadlock t snap =
  if t.enabled then begin
    Mutex.lock t.mu;
    t.t_deadlock <- Some snap;
    Mutex.unlock t.mu;
    match t.t_trace with
    | None -> ()
    | Some tc ->
      let tr = Chrome_trace.track tc ~pid:(-1) ~tid:0 ~pname:"network" ~name:"events" () in
      Chrome_trace.instant tr ~name:"deadlock"
        ~args:[ ("snapshot", Snapshot.to_json snap) ]
        ~ts:(Chrome_trace.ts tc (Clock.now_ns ())) ()
  end

let last_deadlock t = t.t_deadlock

(* ------------------------------------------------------------------ *)
(* Export                                                              *)
(* ------------------------------------------------------------------ *)

let values entries = List.rev_map (fun e -> (entry_name e, entry_value e)) entries
let counters t = values (locked t (fun () -> t.t_counters))
let gauges t = values (locked t (fun () -> t.t_gauges))

let hist_summary h =
  Json.Obj
    [
      ("count", Json.Int (Des.Stats.count h.h_stats));
      ("mean", Json.Float (Des.Stats.mean h.h_stats));
      ("p50", Json.Int (Des.Stats.percentile h.h_stats 50));
      ("p90", Json.Int (Des.Stats.percentile h.h_stats 90));
      ("p99", Json.Int (Des.Stats.percentile h.h_stats 99));
      ("max", Json.Int (Des.Stats.max_value h.h_stats));
    ]

let hists t =
  Mutex.lock t.mu;
  let hs = List.rev t.t_hists in
  Mutex.unlock t.mu;
  List.map (fun h -> (h.h_name, hist_summary h)) hs

(** The whole registry as one JSON metrics snapshot. *)
let metrics_json t =
  Json.Obj
    [
      ("schema", Json.String "fireaxe-metrics-1");
      ("enabled", Json.Bool t.enabled);
      ("counters", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) (counters t)));
      ("gauges", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) (gauges t)));
      ("histograms", Json.Obj (hists t));
      ( "deadlock",
        match t.t_deadlock with None -> Json.Null | Some s -> Snapshot.to_json s );
    ]

let metrics_json_string t = Json.to_string (metrics_json t)

let write_metrics t ~path =
  let oc = open_out path in
  output_string oc (metrics_json_string t);
  output_char oc '\n';
  close_out oc

(** Writes the Chrome trace (no-op when the sink has no trace
    collector). *)
let write_trace t ~path =
  match t.t_trace with None -> () | Some tc -> Chrome_trace.save tc ~path
