(* Hot-path profiling sink: attributes time and retired work at three
   granularities — engine (per-opcode-class instruction counts, pass
   time), scheduler (run / token-exchange / spin / park / barrier per
   partition) and network (per-channel token counts, remote wire cost)
   — and folds the static per-cone weights into a partition load model.

   Recorders are plain records with one writer each (the domain that
   owns the engine, partition, channel end or connection), so recording
   is a field update: no atomics, no allocation, no flag test.  The
   disabled discipline lives at the call sites, which pick their
   recording variant once at build time and make no call here at all
   when every sink is off.  A recorder minted from {!null} is never
   exported, so the metrics sink can still share it: one record per
   event, live when either sink is.  Registration happens at build time
   (sim creation, network construction), never in the per-cycle loop.

   The network times a sample of target cycles and records each sampled
   duration multiplied by the sampling period, so pass, run and
   exchange ns are estimates; every count is exact. *)

type engine = {
  e_label : string;
  e_kind : string;
  e_lanes : int;
  e_comb_hist : (string * int) list;  (* opcode class -> instrs per comb pass *)
  e_seq_hist : (string * int) list;   (* opcode class -> instrs per seq step *)
  mutable e_comb_passes : int;
  mutable e_comb_ns : int;
  mutable e_seq_passes : int;
  mutable e_seq_ns : int;
}

type cone = {
  cn_label : string;  (* owning unit/partition *)
  cn_name : string;   (* root signal(s) of the cone *)
  cn_instrs : int;    (* static work per eval *)
  cn_hist : (string * int) list;
  mutable cn_evals : int;
  mutable cn_ns : int;
}

type part = {
  pp_name : string;
  pp_index : int;
  mutable pp_cycles : int;
  mutable pp_run_ns : int;      (* productive sweeps, token exchange included *)
  mutable pp_exchange_ns : int; (* sweep time outside engine passes, carved out at export *)
  mutable pp_active_ns : int;   (* worker time between parks: every visit and busy-wait *)
  mutable pp_spins : int;
  mutable pp_spin_ns : int;
  mutable pp_parks : int;
  mutable pp_park_ns : int;
  mutable pp_barrier_ns : int;
}

type chan = {
  ch_part : string;  (* consuming partition: the channel's home *)
  ch_name : string;
  mutable ch_enqs : int;
  mutable ch_enq_tokens : int;
  mutable ch_enq_ns : int;
  mutable ch_deqs : int;
  mutable ch_deq_tokens : int;
  mutable ch_deq_ns : int;
}

type wire = {
  wr_label : string;
  mutable wr_round_trips : int;
  mutable wr_bytes_out : int;
  mutable wr_bytes_in : int;
  mutable wr_ns : int;
}

type t = {
  enabled : bool;
  t0 : int;
  mu : Mutex.t;
  mutable engines : engine list;  (* all registries newest-first *)
  mutable cones : cone list;
  mutable parts : part list;
  mutable chans : chan list;
  mutable wires : wire list;
  mutable slices : (string * Json.t) list;  (* remote workers' profiles *)
  mutable wall_ns : int option;
  mutable acc_wall : int;
      (* scheduler-accumulated parallel-section wall time; the export
         denominator when no explicit wall was pinned *)
}

let make ~enabled =
  {
    enabled;
    t0 = Clock.now_ns ();
    mu = Mutex.create ();
    engines = [];
    cones = [];
    parts = [];
    chans = [];
    wires = [];
    slices = [];
    wall_ns = None;
    acc_wall = 0;
  }

let null = make ~enabled:false
let create () = make ~enabled:true
let enabled t = t.enabled

let set_wall_ns t ns = if t.enabled then t.wall_ns <- Some ns
let add_wall_ns t ns = if t.enabled then t.acc_wall <- t.acc_wall + ns

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

(* -- registration (build-time; thread-safe, never hot) ------------- *)

let engine t ~label ~kind ~lanes ~comb_hist ~seq_hist =
  let e =
    {
      e_label = label;
      e_kind = kind;
      e_lanes = lanes;
      e_comb_hist = comb_hist;
      e_seq_hist = seq_hist;
      e_comb_passes = 0;
      e_comb_ns = 0;
      e_seq_passes = 0;
      e_seq_ns = 0;
    }
  in
  if t.enabled then locked t (fun () -> t.engines <- e :: t.engines);
  e

let cone t ~label ~name ~instrs ~hist =
  let c =
    {
      cn_label = label;
      cn_name = name;
      cn_instrs = instrs;
      cn_hist = hist;
      cn_evals = 0;
      cn_ns = 0;
    }
  in
  if t.enabled then locked t (fun () -> t.cones <- c :: t.cones);
  c

let part t ~name ~index =
  let fresh () =
    {
      pp_name = name;
      pp_index = index;
      pp_cycles = 0;
      pp_run_ns = 0;
      pp_exchange_ns = 0;
      pp_active_ns = 0;
      pp_spins = 0;
      pp_spin_ns = 0;
      pp_parks = 0;
      pp_park_ns = 0;
      pp_barrier_ns = 0;
    }
  in
  if not t.enabled then fresh ()
  else
    locked t (fun () ->
        match List.find_opt (fun p -> p.pp_name = name) t.parts with
        | Some p -> p
        | None ->
          let p = fresh () in
          t.parts <- p :: t.parts;
          p)

let channel t ~part ~name =
  let c =
    {
      ch_part = part;
      ch_name = name;
      ch_enqs = 0;
      ch_enq_tokens = 0;
      ch_enq_ns = 0;
      ch_deqs = 0;
      ch_deq_tokens = 0;
      ch_deq_ns = 0;
    }
  in
  if t.enabled then locked t (fun () -> t.chans <- c :: t.chans);
  c

let wire t ~label =
  let w =
    {
      wr_label = label;
      wr_round_trips = 0;
      wr_bytes_out = 0;
      wr_bytes_in = 0;
      wr_ns = 0;
    }
  in
  if t.enabled then locked t (fun () -> t.wires <- w :: t.wires);
  w

let add_slice t ~label json =
  if t.enabled then locked t (fun () -> t.slices <- (label, json) :: t.slices)

(* -- recording (hot; one writer per recorder) ---------------------- *)

let add_comb e ns =
  e.e_comb_passes <- e.e_comb_passes + 1;
  e.e_comb_ns <- e.e_comb_ns + ns

let add_seq e ns =
  e.e_seq_passes <- e.e_seq_passes + 1;
  e.e_seq_ns <- e.e_seq_ns + ns

let add_cone_eval c ns =
  c.cn_evals <- c.cn_evals + 1;
  c.cn_ns <- c.cn_ns + ns

let add_run p ns = p.pp_run_ns <- p.pp_run_ns + ns
let add_exchange p ns = p.pp_exchange_ns <- p.pp_exchange_ns + ns
let add_active p ns = p.pp_active_ns <- p.pp_active_ns + ns

let add_spin p ns =
  p.pp_spins <- p.pp_spins + 1;
  p.pp_spin_ns <- p.pp_spin_ns + ns

let add_park p ns =
  p.pp_parks <- p.pp_parks + 1;
  p.pp_park_ns <- p.pp_park_ns + ns

let add_barrier p ns = p.pp_barrier_ns <- p.pp_barrier_ns + ns
let add_cycles p n = p.pp_cycles <- p.pp_cycles + n

let add_enq c ~tokens ns =
  c.ch_enqs <- c.ch_enqs + 1;
  c.ch_enq_tokens <- c.ch_enq_tokens + tokens;
  c.ch_enq_ns <- c.ch_enq_ns + ns

let add_deq c ~tokens ns =
  c.ch_deqs <- c.ch_deqs + 1;
  c.ch_deq_tokens <- c.ch_deq_tokens + tokens;
  c.ch_deq_ns <- c.ch_deq_ns + ns

let add_bytes w ~bytes_out ~bytes_in =
  w.wr_bytes_out <- w.wr_bytes_out + bytes_out;
  w.wr_bytes_in <- w.wr_bytes_in + bytes_in

let add_wire w ~bytes_out ~bytes_in ns =
  w.wr_round_trips <- w.wr_round_trips + 1;
  add_bytes w ~bytes_out ~bytes_in;
  w.wr_ns <- w.wr_ns + ns

(* -- reads shared with the metrics sink ---------------------------- *)

let active_ns p = p.pp_active_ns
let spins p = p.pp_spins
let parks p = p.pp_parks
let park_ns p = p.pp_park_ns
let barrier_ns p = p.pp_barrier_ns
let enq_tokens c = c.ch_enq_tokens
let deq_tokens c = c.ch_deq_tokens
let bytes_out w = w.wr_bytes_out
let bytes_in w = w.wr_bytes_in

(* -- export -------------------------------------------------------- *)

let hist_json h = Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) h)
let hist_total h = List.fold_left (fun a (_, v) -> a + v) 0 h
let scale_hist h k = List.map (fun (c, v) -> (c, v * k)) h

let merge_hists hs =
  let tbl = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (List.iter (fun (c, v) ->
         match Hashtbl.find_opt tbl c with
         | Some r -> r := !r + v
         | None ->
           Hashtbl.add tbl c (ref v);
           order := c :: !order))
    hs;
  List.rev_map (fun c -> (c, !(Hashtbl.find tbl c))) !order

let engine_json e =
  Json.Obj
    [
      ("label", Json.String e.e_label);
      ("engine", Json.String e.e_kind);
      ("lanes", Json.Int e.e_lanes);
      ("comb_passes", Json.Int e.e_comb_passes);
      ("comb_ns", Json.Int e.e_comb_ns);
      ("seq_passes", Json.Int e.e_seq_passes);
      ("seq_ns", Json.Int e.e_seq_ns);
      ("comb_instrs_per_pass", Json.Int (hist_total e.e_comb_hist));
      ("seq_instrs_per_pass", Json.Int (hist_total e.e_seq_hist));
      ("comb_classes", hist_json e.e_comb_hist);
      ("seq_classes", hist_json e.e_seq_hist);
    ]

let cone_json c =
  Json.Obj
    [
      ("part", Json.String c.cn_label);
      ("name", Json.String c.cn_name);
      ("instrs", Json.Int c.cn_instrs);
      ("evals", Json.Int c.cn_evals);
      ("ns", Json.Int c.cn_ns);
      ("classes", hist_json c.cn_hist);
    ]

let part_totals p =
  let run = p.pp_run_ns and ex = p.pp_exchange_ns in
  (* Exchange happens inside run segments, and a parallel worker's
     active time holds its productive visits (run) and its failed ones:
     carve both so the five components partition the partition's time. *)
  let spin = p.pp_spin_ns + max 0 (p.pp_active_ns - run) in
  let run = max 0 (run - ex) in
  (run, ex, spin, p.pp_park_ns, p.pp_barrier_ns)

let part_json p =
  let run, ex, spin, park, barrier = part_totals p in
  Json.Obj
    [
      ("name", Json.String p.pp_name);
      ("index", Json.Int p.pp_index);
      ("cycles", Json.Int p.pp_cycles);
      ("run_ns", Json.Int run);
      ("exchange_ns", Json.Int ex);
      ("spin_ns", Json.Int spin);
      ("park_ns", Json.Int park);
      ("barrier_ns", Json.Int barrier);
      ("total_ns", Json.Int (run + ex + spin + park + barrier));
      ("spins", Json.Int p.pp_spins);
      ("parks", Json.Int p.pp_parks);
    ]

let chan_json c =
  Json.Obj
    [
      ("part", Json.String c.ch_part);
      ("name", Json.String c.ch_name);
      ("enqs", Json.Int c.ch_enqs);
      ("enq_tokens", Json.Int c.ch_enq_tokens);
      ("enq_ns", Json.Int c.ch_enq_ns);
      ("deqs", Json.Int c.ch_deqs);
      ("deq_tokens", Json.Int c.ch_deq_tokens);
      ("deq_ns", Json.Int c.ch_deq_ns);
    ]

let wire_json w =
  Json.Obj
    [
      ("label", Json.String w.wr_label);
      ("round_trips", Json.Int w.wr_round_trips);
      ("bytes_out", Json.Int w.wr_bytes_out);
      ("bytes_in", Json.Int w.wr_bytes_in);
      ("ns", Json.Int w.wr_ns);
    ]

(* Retired-instruction totals: the bytecode programs are straight-line
   (no control flow), so retired = static histogram x executions — the
   hot loop only has to count passes. *)
let retired_classes t =
  let per_engine =
    List.map
      (fun e ->
        merge_hists
          [
            scale_hist e.e_comb_hist (e.e_comb_passes * e.e_lanes);
            scale_hist e.e_seq_hist (e.e_seq_passes * e.e_lanes);
          ])
      t.engines
  in
  let per_cone = List.map (fun c -> scale_hist c.cn_hist c.cn_evals) t.cones in
  merge_hists (per_engine @ per_cone)

(* -- partition load model ------------------------------------------ *)

type model_row = {
  m_name : string;
  m_predicted : int;       (* static instrs per target cycle *)
  m_predicted_share : float;
  m_measured_ns : int;
  m_measured_share : float;
}

let shares xs =
  let total = List.fold_left (fun a x -> a +. x) 0. xs in
  if total <= 0. then List.map (fun _ -> 0.) xs
  else List.map (fun x -> x /. total) xs

let imbalance xs =
  match xs with
  | [] -> 1.
  | _ ->
    let n = float_of_int (List.length xs) in
    let total = List.fold_left (fun a x -> a +. x) 0. xs in
    let mean = total /. n in
    if mean <= 0. then 1.
    else List.fold_left (fun a x -> Float.max a x) 0. xs /. mean

(* One load-model row per label seen on engines/cones/partitions.
   Predicted weight: static instructions retired per target cycle (one
   comb pass + one seq step + one eval of every registered cone).
   Measured weight: the partition's active ns when a scheduler
   recorded it, else the unit's summed engine and cone ns. *)
let load_model t =
  let labels = ref [] in
  let remember l = if not (List.mem l !labels) then labels := l :: !labels in
  List.iter (fun p -> remember p.pp_name) t.parts;
  List.iter (fun e -> remember e.e_label) t.engines;
  List.iter (fun c -> remember c.cn_label) t.cones;
  let labels = List.rev !labels in
  let predicted_of l =
    List.fold_left
      (fun a e ->
        if e.e_label = l then a + hist_total e.e_comb_hist + hist_total e.e_seq_hist
        else a)
      0 t.engines
    + List.fold_left
        (fun a c -> if c.cn_label = l then a + c.cn_instrs else a)
        0 t.cones
  in
  let engine_cone_ns l =
    List.fold_left
      (fun a e -> if e.e_label = l then a + e.e_comb_ns + e.e_seq_ns else a)
      0 t.engines
    + List.fold_left (fun a c -> if c.cn_label = l then a + c.cn_ns else a) 0 t.cones
  in
  let measured_of l =
    match List.find_opt (fun p -> p.pp_name = l) t.parts with
    | Some p ->
      let run, ex, spin, _, _ = part_totals p in
      let active = run + ex + spin in
      if active > 0 then active else engine_cone_ns l
    | None -> engine_cone_ns l
  in
  let predicted = List.map predicted_of labels in
  let measured = List.map measured_of labels in
  let pshare = shares (List.map float_of_int predicted) in
  let mshare = shares (List.map float_of_int measured) in
  let rows =
    List.mapi
      (fun i l ->
        {
          m_name = l;
          m_predicted = List.nth predicted i;
          m_predicted_share = List.nth pshare i;
          m_measured_ns = List.nth measured i;
          m_measured_share = List.nth mshare i;
        })
      labels
  in
  (rows, imbalance (List.map float_of_int predicted),
   imbalance (List.map float_of_int measured))

(* Per-label placement weights distilled from the load model: the
   measured active time when this profile has recorded any (a previous
   run's truth beats any static prediction), else the predicted static
   weight (instrs per target cycle).  Feeds the placement pass that
   bin-packs partitions onto host domains. *)
let load_weights t =
  let rows, _, _ = locked t (fun () -> load_model t) in
  let any_measured = List.exists (fun r -> r.m_measured_ns > 0) rows in
  List.map
    (fun r ->
      (r.m_name, if any_measured then r.m_measured_ns else r.m_predicted))
    rows

let top_k k cmp xs =
  let sorted = List.stable_sort cmp xs in
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: tl -> x :: take (n - 1) tl
  in
  take k sorted

(* Cone evals and token moves are counted, not timed: rank cones by
   retired work and channels by tokens. *)
let cone_work c = c.cn_instrs * c.cn_evals
let chan_tokens c = c.ch_enq_tokens + c.ch_deq_tokens
let top_cones ?(k = 10) t = top_k k (fun a b -> compare (cone_work b) (cone_work a)) t.cones

let top_channels ?(k = 10) t =
  top_k k (fun a b -> compare (chan_tokens b) (chan_tokens a)) t.chans

let load_model_json t =
  let rows, pred_imb, meas_imb = load_model t in
  Json.Obj
    [
      ( "partitions",
        Json.List
          (List.map
             (fun r ->
               Json.Obj
                 [
                   ("name", Json.String r.m_name);
                   ("predicted_weight", Json.Int r.m_predicted);
                   ("predicted_share", Json.Float r.m_predicted_share);
                   ("measured_ns", Json.Int r.m_measured_ns);
                   ("measured_share", Json.Float r.m_measured_share);
                 ])
             rows) );
      ("predicted_imbalance", Json.Float pred_imb);
      ("measured_imbalance", Json.Float meas_imb);
      ( "top_cones",
        Json.List
          (List.map
             (fun c ->
               Json.Obj
                 [
                   ("part", Json.String c.cn_label);
                   ("name", Json.String c.cn_name);
                   ("instrs", Json.Int c.cn_instrs);
                   ("evals", Json.Int c.cn_evals);
                   ("ns", Json.Int c.cn_ns);
                 ])
             (top_cones t)) );
      ( "top_channels",
        Json.List
          (List.map
             (fun c ->
               Json.Obj
                 [
                   ("part", Json.String c.ch_part);
                   ("name", Json.String c.ch_name);
                   ("ns", Json.Int (c.ch_enq_ns + c.ch_deq_ns));
                   ("tokens", Json.Int (chan_tokens c));
                 ])
             (top_channels t)) );
    ]

(* Export denominator: an explicitly pinned wall wins; otherwise the
   scheduler-accumulated parallel-section time; otherwise the profile's
   age (single-process engine-only profiles). *)
let wall t =
  match t.wall_ns with
  | Some w -> w
  | None ->
    let acc = t.acc_wall in
    if acc > 0 then acc else Clock.now_ns () - t.t0

let to_json t =
  locked t (fun () ->
      Json.Obj
        [
          ("schema", Json.String "fireaxe-profile-1");
          ("wall_ns", Json.Int (wall t));
          ("engines", Json.List (List.rev_map engine_json t.engines));
          ("opcode_classes", hist_json (retired_classes t));
          ("cones", Json.List (List.rev_map cone_json t.cones));
          ("partitions", Json.List (List.rev_map part_json t.parts));
          ("channels", Json.List (List.rev_map chan_json t.chans));
          ("wires", Json.List (List.rev_map wire_json t.wires));
          ( "remote_slices",
            Json.Obj (List.rev_map (fun (l, j) -> (l, j)) t.slices) );
          ("load_model", load_model_json t);
        ])

(* One line per send: the worker protocol ships this back verbatim. *)
let slice_string t = Json.to_string (to_json t)

let write t ~path =
  let oc = open_out path in
  output_string oc (Json.to_string (to_json t));
  output_char oc '\n';
  close_out oc

(* -- human-readable load report ------------------------------------ *)

let pct f = f *. 100.

let report_string t =
  let b = Buffer.create 1024 in
  let rows, pred_imb, meas_imb = locked t (fun () -> load_model t) in
  Buffer.add_string b "partition load model (predicted = static instrs/cycle):\n";
  List.iter
    (fun r ->
      Buffer.add_string b
        (Printf.sprintf "  %-24s predicted %8d (%5.1f%%)   measured %10d ns (%5.1f%%)\n"
           r.m_name r.m_predicted (pct r.m_predicted_share) r.m_measured_ns
           (pct r.m_measured_share)))
    rows;
  Buffer.add_string b
    (Printf.sprintf "  imbalance (max/mean): predicted %.2f, measured %.2f\n" pred_imb
       meas_imb);
  let parts = locked t (fun () -> List.rev t.parts) in
  if parts <> [] then begin
    Buffer.add_string b "scheduler breakdown per partition:\n";
    List.iter
      (fun p ->
        let run, ex, spin, park, barrier = part_totals p in
        Buffer.add_string b
          (Printf.sprintf
             "  %-24s run %10d ns  exchange %8d ns  spin %8d ns  park %8d ns  \
              barrier %8d ns\n"
             p.pp_name run ex spin park barrier))
      parts
  end;
  let cones = locked t (fun () -> top_cones t) in
  if cones <> [] then begin
    Buffer.add_string b "top cones by retired work:\n";
    List.iter
      (fun c ->
        Buffer.add_string b
          (Printf.sprintf "  %-24s %-20s %8d instrs  %8d evals\n" c.cn_label c.cn_name
             c.cn_instrs c.cn_evals))
      cones
  end;
  let chans = locked t (fun () -> top_channels t) in
  if chans <> [] then begin
    Buffer.add_string b "top channels by tokens:\n";
    List.iter
      (fun c ->
        Buffer.add_string b
          (Printf.sprintf "  %-24s %-20s enq %8d  deq %8d\n" c.ch_part c.ch_name
             c.ch_enq_tokens c.ch_deq_tokens))
      chans
  end;
  Buffer.contents b

(* -- flamegraph-compatible Chrome-trace view ----------------------- *)

(* Synthesizes one track per partition with consecutive
   run/exchange/spin/park/barrier phase spans.  Engine-only profiles
   (no scheduler) get one track per engine with its comb and seq time
   instead. *)
let trace_into t tc =
  let us ns = float_of_int ns /. 1e3 in
  let phases tr spans =
    ignore
      (List.fold_left
         (fun off (name, ns) ->
           if ns <= 0 then off
           else begin
             Chrome_trace.span tr ~name ~ts:(us off) ~dur:(us ns) ();
             off + ns
           end)
         0 spans)
  in
  let parts, engines = locked t (fun () -> (List.rev t.parts, List.rev t.engines)) in
  if parts <> [] then
    List.iter
      (fun p ->
        let run, ex, spin, park, barrier = part_totals p in
        phases
          (Chrome_trace.track tc ~pid:(p.pp_index + 1) ~tid:0
             ~pname:("partition " ^ p.pp_name) ~name:"phases" ())
          [ ("run", run); ("exchange", ex); ("spin", spin); ("park", park);
            ("barrier", barrier) ])
      parts
  else
    List.iteri
      (fun i e ->
        phases
          (Chrome_trace.track tc ~pid:(i + 1) ~tid:0 ~pname:("engine " ^ e.e_label)
             ~name:"phases" ())
          [ ("comb", e.e_comb_ns); ("seq", e.e_seq_ns) ])
      engines

let write_trace t ~path =
  let tr = Chrome_trace.create () in
  trace_into t tr;
  Chrome_trace.save tr ~path
