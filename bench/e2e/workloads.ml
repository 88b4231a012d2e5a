(* The five workloads.  Each one writes its design text once and
   computes its reference result once, both outside timing, then
   repeats the user path through public functions only:

     Firrtl.Text.load -> Fireripper.Compile.compile ->
     Fireripper.Runtime.instantiate -> Runtime.run -> Debug.Capture

   or, on service-mix, the same kind of designs as sessions of
   Service.Server driven over its socket.  Every repeat checks its
   result against the reference; a mismatch counts as a failure.  Why
   each workload exists is recorded in BENCHMARK.json and the README. *)

module FR = Fireripper
module J = Telemetry.Json

type ctx = {
  seed : int;
  tiny : bool;  (** test-sized inputs, for the self-test *)
  dir : string;  (** where design files and the service socket live *)
}

(** One repeat's measurements.  [layers] is filled on traced repeats
    only; [detail] holds workload-specific numbers for the report. *)
type sample = {
  setup_s : float;  (** text to a handle (or live sessions) ready to run *)
  result_s : float;  (** text to a checked result *)
  run_s : float;  (** the run phase: every request, back to back *)
  cycles : int;  (** target cycles simulated in the run phase, all sessions *)
  requests : int;  (** run-phase requests (their latencies go to a reservoir) *)
  wave_bytes : int;
  attempted : int;
  failed : int;
  layers : (string * float) list;
  detail : (string * float) list;
}

(** [repeat] adds the latency of each run-phase request, in ms, to
    [latencies]. *)
type session = {
  repeat : latencies:Stats.reservoir -> traced:bool -> sample;
  close : unit -> unit;
}

type t = {
  name : string;
  prepare : ctx -> session;  (** the untimed work: design text, reference *)
}

let rng ctx salt = Random.State.make [| ctx.seed; salt |]

let write_design ctx name circuit =
  let path = Filename.concat ctx.dir (name ^ ".fir") in
  Firrtl.Text.save circuit ~path;
  path

(* Every register of the flattened monolithic design: the state a
   partitioned run must reproduce bit for bit. *)
let registers circuit =
  List.filter_map
    (function Firrtl.Ast.Reg { name; _ } -> Some name | _ -> None)
    (Firrtl.Flatten.flatten circuit).Firrtl.Ast.comps

(* Rewrites register reset values: [f name width] gives the new one. *)
let reinit f (c : Firrtl.Ast.circuit) =
  let comp = function
    | Firrtl.Ast.Reg r as reg -> (
      match f r.name r.width with Some init -> Firrtl.Ast.Reg { r with init } | None -> reg)
    | comp -> comp
  in
  { c with modules = List.map (fun m -> { m with Firrtl.Ast.comps = List.map comp m.Firrtl.Ast.comps }) c.modules }

(* The NoC traffic generators start from seeded phases and payloads, so
   each seed injects a different packet stream while the RTL evaluated
   per cycle stays the same. *)
let seed_traffic rng ~period =
  reinit (fun name width ->
      match name with
      | "tick" -> Some (Random.State.int rng period)
      | "seq" -> Some (Random.State.int rng (1 lsl width))
      | _ -> None)

let noc_period = 4

let now = Stats.now_ns
let since t0 = Stats.secs_of_ns (now () - t0)

(* ------------------------------------------------------------------ *)
(* The partitioned user path                                           *)
(* ------------------------------------------------------------------ *)

(* Every workload runs under the library-default scheduler, so a change
   of that default is measured everywhere. *)
type path = { fir : string; config : FR.Spec.config }

let path fir selection = { fir; config = { FR.Spec.default_config with FR.Spec.selection } }

(* Text to instantiated handle. *)
let setup ~profile p =
  let circuit = Trace.span "firrtl.text.parse" (fun () -> Firrtl.Text.load ~path:p.fir) in
  let plan =
    Trace.span "fireripper.compile" (fun () -> FR.Compile.compile ~config:p.config circuit)
  in
  let h =
    Trace.span "fireripper.runtime.instantiate" (fun () ->
        FR.Runtime.instantiate ~profile plan)
  in
  (plan, h)

let run_to h cycles = Trace.span "fireripper.runtime.run" (fun () -> FR.Runtime.run h ~cycles)

(* What compile and instantiate spend per unit, timed beside the main
   path by calling the same public functions again: flattening (compile
   forces every unit's flat view for its chain analysis), the
   optimizer, and the simulator build that runs it. *)
let nested_setup plan =
  Array.iter
    (fun u ->
      Trace.span ~nested:true "firrtl.flatten" (fun () ->
          ignore (Firrtl.Flatten.flatten u.FR.Plan.u_circuit));
      let flat = Lazy.force u.FR.Plan.u_flat in
      Trace.span ~nested:true "firrtl.opt" (fun () -> ignore (Firrtl.Opt.optimize flat));
      Trace.span ~nested:true "rtlsim.sim_create" (fun () -> ignore (Rtlsim.Sim.create flat)))
    plan.FR.Plan.p_units

(* The run phase split from the fireaxe-profile-1 document: engine
   evaluation, cone evaluation and token exchange, with the rest of the
   sweep as [sweep_other]. *)
let run_split prof ~run_s =
  let doc = Telemetry.Profile.to_json prof in
  let list k = match J.member k doc with Some (J.List l) -> l | _ -> [] in
  let int k o = Option.value ~default:0 (Option.bind (J.member k o) J.to_int) in
  let sum k l = List.fold_left (fun acc o -> acc + int k o) 0 l in
  let s = Stats.secs_of_ns in
  let engines = list "engines" and cones = list "cones" and parts = list "partitions" in
  let eval = s (sum "comb_ns" engines + sum "seq_ns" engines) in
  let cone = s (sum "ns" cones) in
  let exchange = s (sum "exchange_ns" parts) in
  let retired =
    match J.member "opcode_classes" doc with
    | Some (J.Obj kv) ->
      List.fold_left (fun acc (_, v) -> acc + Option.value ~default:0 (J.to_int v)) 0 kv
    | _ -> 0
  in
  [
    ("rtlsim.eval_s", eval);
    ("rtlsim.cone_eval_s", cone);
    ("rtlsim.retired_instrs", float_of_int retired);
    ("libdn.exchange_s", exchange);
    ("libdn.sweep_other_s", Float.max 0. (run_s -. eval -. cone -. exchange));
  ]

(* Per-layer numbers of one traced repeat: span totals, the run split
   of every partitioned run (all recorded into [prof]), and the share of
   the root span its direct children cover. *)
let layers spans prof ~tokens =
  let tot = Trace.totals spans in
  let get n = Option.value ~default:0. (Hashtbl.find_opt tot n) in
  let count n = List.length (List.filter (fun s -> s.Trace.name = n) spans) in
  let root = List.find (fun s -> s.Trace.name = "repeat") spans in
  [
    ("firrtl.text.parse_s", get "firrtl.text.parse");
    ("firrtl.flatten_s", get "firrtl.flatten");
    ("firrtl.opt_s", get "firrtl.opt");
    ("fireripper.compile_s", get "fireripper.compile");
    ("rtlsim.sim_create_s", get "rtlsim.sim_create");
    ("fireripper.runtime.instantiate_s", get "fireripper.runtime.instantiate");
    ("fireripper.runtime.run_calls", float_of_int (count "fireripper.runtime.run"));
    ("libdn.tokens", float_of_int tokens);
    ("debug.capture.sample_s", get "debug.capture.sample");
    ("debug.capture.render_s", get "debug.capture.render");
    ("trace.attributed_s", Trace.attributed spans ~root);
    ("trace.wall_s", Trace.secs root);
  ]
  @ run_split prof ~run_s:(get "fireripper.runtime.run")

type ran = {
  sample : sample;
  plans : FR.Plan.t list;  (** the plan of every partitioned run *)
  tokens : int;
}

(* One repeat, traced or not.  [body profile] is the timed repeat; on a
   traced repeat it runs inside the root span, and [beside profile] (the
   untimed partitioned work a traced repeat adds, if any) plus the
   nested per-unit calls run after it. *)
let repeat ?(beside = fun _ -> ([], 0)) ~traced body =
  if not traced then (body Telemetry.Profile.null).sample
  else begin
    let prof = Telemetry.Profile.create () in
    let r, spans =
      Trace.collect (fun () ->
          let r = Trace.span "repeat" (fun () -> body prof) in
          let plans, tokens = beside prof in
          let r = { r with plans = r.plans @ plans; tokens = r.tokens + tokens } in
          List.iter nested_setup r.plans;
          r)
    in
    { r.sample with layers = layers spans prof ~tokens:r.tokens }
  end

(* Samples [probes] once at [cycle] and renders: the canonical probe
   trace (for the check) and the size of the merged VCD. *)
let capture_final h ~probes ~cycle =
  let cap =
    Trace.span "debug.capture.sample" (fun () ->
        let cap = Debug.Capture.of_handle h ~probes in
        Debug.Capture.sample cap ~cycle;
        cap)
  in
  Trace.span "debug.capture.render" (fun () ->
      (Debug.Capture.probe_trace cap, String.length (Debug.Capture.contents cap)))

(* The golden side: the monolithic simulation of the same text,
   sampled at [every] cycles up to [cycles]. *)
let mono_trace ?(load = ignore) text ~probes ~cycles ~every =
  let sim = Rtlsim.Sim.of_circuit (Firrtl.Text.parse text) in
  load sim;
  let cap = Debug.Capture.of_sim sim ~probes in
  for c = 1 to cycles do
    Rtlsim.Sim.step sim;
    if c mod every = 0 || c = cycles then Debug.Capture.sample cap ~cycle:c
  done;
  Debug.Capture.probe_trace cap

let ms s = s *. 1000.

(* One run-phase request: timed, its latency kept. *)
let request latencies f =
  let x, dt = Stats.timed f in
  Stats.add latencies (ms dt);
  x

(* ------------------------------------------------------------------ *)
(* Long runs: text to an N-cycle result                                *)
(* ------------------------------------------------------------------ *)

(* [cycles] target cycles per repeat in one Runtime.run request, then
   every register captured at the last cycle and compared with the
   monolithic reference. *)
let long_run ~name ~design ~selection ~cycles () =
  let prepare ctx =
    let circuit = design ctx in
    let cycles = if ctx.tiny then min cycles 400 else cycles in
    let fir = write_design ctx name circuit in
    let probes = registers circuit in
    let reference = mono_trace (Firrtl.Text.emit circuit) ~probes ~cycles ~every:cycles in
    let p = path fir selection in
    let body ~latencies profile =
      let t0 = now () in
      let plan, h = setup ~profile p in
      let setup_s = since t0 in
      let t_run = now () in
      request latencies (fun () -> run_to h cycles);
      let run_s = since t_run in
      let trace, wave_bytes = capture_final h ~probes ~cycle:cycles in
      let ok = String.equal trace reference in
      {
        sample =
          {
            setup_s;
            result_s = since t0;
            run_s;
            cycles;
            requests = 1;
            wave_bytes;
            attempted = 1;
            failed = (if ok then 0 else 1);
            layers = [];
            detail = [];
          };
        plans = [ plan ];
        tokens = FR.Runtime.token_transfers h;
      }
    in
    { repeat = (fun ~latencies ~traced -> repeat ~traced (body ~latencies)); close = ignore }
  in
  { name; prepare }

let mesh_design ctx ~salt =
  seed_traffic (rng ctx salt) ~period:noc_period
    (Socgen.Mesh_noc.mesh_soc ~width:4 ~height:4 ~period:noc_period ())

(* Router rows 0-1 extracted from the base. *)
let mesh_selection =
  FR.Spec.Noc_routers [ Socgen.Mesh_noc.row_group ~width:4 0 @ Socgen.Mesh_noc.row_group ~width:4 1 ]

(* Two large partitions exchanging 2 tokens per cycle: engine evaluation
   dominates.  (Under the parallel scheduler this run was bimodal per
   process on a 2-vCPU host, 104-145 kHz, too unsteady to gate on.) *)
let mesh4x4_2part =
  long_run ~name:"mesh4x4-2part"
    ~design:(mesh_design ~salt:1) ~selection:mesh_selection ~cycles:40_000 ()

(* Five small partitions exchanging 12 tokens per cycle: exchange and
   the sweep dominate. *)
let ring8_5part =
  long_run ~name:"ring8-5part"
    ~design:(fun ctx ->
      seed_traffic (rng ctx 2) ~period:noc_period
        (Socgen.Ring_noc.ring_soc ~n_tiles:8 ~period:noc_period ()))
    ~selection:(FR.Spec.Noc_routers [ [ 0; 1 ]; [ 2; 3 ]; [ 4; 5 ]; [ 6; 7 ] ])
    ~cycles:80_000 ()

(* A 1.5 MB design run for 2,000 cycles: parse, compile and instantiate
   are most of time-to-result. *)
let bigcore_cold =
  long_run ~name:"bigcore-cold"
    ~design:(fun ctx ->
      let p = if ctx.tiny then Socgen.Bigcore.tiny else Socgen.Bigcore.gc40ish in
      let rng = rng ctx 3 in
      reinit
        (fun name _ -> if name = "lfsr" then Some (1 + Random.State.int rng 0xfffe) else None)
        (Socgen.Bigcore.circuit ~p ()))
    ~selection:(FR.Spec.Instances [ [ "backend" ] ])
    ~cycles:2_000 ()

(* ------------------------------------------------------------------ *)
(* The debugging loop: one Runtime.run per target cycle, full capture  *)
(* ------------------------------------------------------------------ *)

let soc_mem = "mem$mem"

(* A Kite sum_repeat program over [n] seeded words: the program, its
   data, where it leaves the sum, and the sum the ISA reference
   interpreter computes. *)
let kite_program rng ~n ~reps =
  (* Kite immediates are 7-bit signed: data and result below word 64. *)
  let base = 32 and dst = 60 in
  let data = List.init n (fun i -> (base + i, Random.State.int rng 0x10000)) in
  let program = Socgen.Kite_isa.sum_repeat_program ~base ~n ~reps ~dst in
  let m = Socgen.Kite_isa.make_machine ~mem_words:1024 in
  Socgen.Kite_isa.load_words m (Socgen.Kite_isa.assemble program);
  List.iter (fun (a, w) -> m.Socgen.Kite_isa.mem.(a) <- w) data;
  Socgen.Kite_isa.run m ~max_steps:1_000_000;
  (program, data, dst, m.Socgen.Kite_isa.mem.(dst))

let soc_circuit () = Socgen.Soc.single_core_soc ~mem_latency:1 ()

(* Cycles until the core raises [halted], on the monolithic design. *)
let halt_cycle text ~load =
  let sim = Rtlsim.Sim.of_circuit (Firrtl.Text.parse text) in
  load sim;
  let rec go c =
    if Rtlsim.Sim.get sim "halted" = 1 || c > 1_000_000 then c
    else begin
      Rtlsim.Sim.step sim;
      go (c + 1)
    end
  in
  go 0

(* The debugging loop: one Runtime.run per cycle, every register
   captured.  Many tiny calls, so per-call overhead dominates. *)
let soc_stepped_capture =
  let prepare ctx =
    let circuit = soc_circuit () in
    let text = Firrtl.Text.emit circuit in
    let fir = write_design ctx "soc-stepped-capture" circuit in
    let n, reps = if ctx.tiny then (4, 2) else (24, 48) in
    let program, data, dst, sum = kite_program (rng ctx 4) ~n ~reps in
    let load sim = Socgen.Soc.load_program sim ~mem:soc_mem ~data program in
    (* The run ends as the core halts, so it retires to the last cycle. *)
    let cycles = halt_cycle text ~load in
    let probes = registers circuit in
    let reference = mono_trace text ~load ~probes ~cycles ~every:1 in
    let p = path fir (FR.Spec.Instances [ [ "tile" ] ]) in
    let body ~latencies profile =
      let t0 = now () in
      let plan, h = setup ~profile p in
      let mem_unit = FR.Runtime.locate h soc_mem in
      Trace.span "socgen.load_program" (fun () -> load (FR.Runtime.sim_of h mem_unit));
      let cap = Trace.span "debug.capture.sample" (fun () -> Debug.Capture.of_handle h ~probes) in
      let setup_s = since t0 in
      let t_run = now () in
      for c = 1 to cycles do
        request latencies (fun () ->
            run_to h c;
            Trace.span "debug.capture.sample" (fun () -> Debug.Capture.sample cap ~cycle:c))
      done;
      let run_s = since t_run in
      let trace, wave_bytes =
        Trace.span "debug.capture.render" (fun () ->
            (Debug.Capture.probe_trace cap, String.length (Debug.Capture.contents cap)))
      in
      let got = Rtlsim.Sim.peek_mem (FR.Runtime.sim_of h mem_unit) soc_mem dst in
      let failed = Bool.to_int (not (String.equal trace reference)) + Bool.to_int (got <> sum) in
      {
        sample =
          {
            setup_s;
            result_s = since t0;
            run_s;
            cycles;
            requests = cycles;
            wave_bytes;
            attempted = 2;
            failed;
            layers = [];
            detail = [];
          };
        plans = [ plan ];
        tokens = FR.Runtime.token_transfers h;
      }
    in
    { repeat = (fun ~latencies ~traced -> repeat ~traced (body ~latencies)); close = ignore }
  in
  { name = "soc-stepped-capture"; prepare }

(* ------------------------------------------------------------------ *)
(* The service: one closed-loop client against Service.Server          *)
(* ------------------------------------------------------------------ *)

let tenants = 8

(* The probe table the server's replies are checked against, derived
   through the partitioned path (the paper's invariant: an exact-mode
   partitioned run equals the monolithic one the server runs).  On a
   traced repeat it is derived again, spanned, as the source of the
   partition-layer numbers of this workload. *)
type table = {
  mesh_rows : int array array;  (** per round: tenant probe values *)
  mesh_widths : int array;
  soc_rows : int array array array;  (** per program, per step *)
}

let derive ~profile ~mesh ~mesh_probes ~rounds ~round_cycles ~soc ~soc_probes ~loads ~steps
    ~step_cycles =
  let mplan, mh = setup ~profile mesh in
  let mprobes = Debug.Capture.resolve mh mesh_probes in
  let mesh_rows =
    Array.init rounds (fun i ->
        run_to mh ((i + 1) * round_cycles);
        Trace.span "debug.capture.sample" mprobes.Debug.Capture.pb_read)
  in
  let runs =
    Array.map
      (fun load ->
        let plan, h = setup ~profile soc in
        Trace.span "socgen.load_program" (fun () -> load (FR.Runtime.sim_of h (FR.Runtime.locate h soc_mem)));
        let sread = (Debug.Capture.resolve h soc_probes).Debug.Capture.pb_read in
        let rows =
          Array.init steps (fun j ->
              run_to h ((j + 1) * step_cycles);
              Trace.span "debug.capture.sample" sread)
        in
        (rows, plan, FR.Runtime.token_transfers h))
      loads
  in
  let table =
    {
      mesh_rows;
      mesh_widths = mprobes.Debug.Capture.pb_widths;
      soc_rows = Array.map (fun (r, _, _) -> r) runs;
    }
  in
  let plans = mplan :: Array.to_list (Array.map (fun (_, p, _) -> p) runs) in
  let tokens = Array.fold_left (fun acc (_, _, t) -> acc + t) (FR.Runtime.token_transfers mh) runs in
  (table, plans, tokens)

(* Starts the server on a domain of its own; returns its shutdown. *)
let start_server ~socket_path =
  let cfg = Service.Server.default_config ~socket_path in
  let server = Domain.spawn (fun () -> Service.Server.run cfg) in
  let shutdown () =
    (try
       let c = Service.Client.connect ~retry_for:5. ~socket_path () in
       Service.Client.shutdown c;
       Service.Client.close c
     with Service.Client.Service_error _ | Unix.Unix_error _ -> ());
    Domain.join server
  in
  (* The first connect rides out the server's start, outside timing. *)
  Service.Client.close (Service.Client.connect ~retry_for:5. ~socket_path ());
  shutdown

(* One closed-loop client: short-lived SoC sessions interleaved with 8
   packed mesh tenants, exercising the protocol, the server loop, the
   compile cache and lane packing. *)
let service_mix =
  let prepare ctx =
    let rounds, programs, n, reps = if ctx.tiny then (3, 2, 4, 2) else (60, 4, 8, 3) in
    let round_cycles = 64 and steps = 4 in
    let mesh_circuit = mesh_design ctx ~salt:5 in
    let mesh_text = Firrtl.Text.emit mesh_circuit in
    let mesh_probes =
      List.filter (fun r -> String.ends_with ~suffix:"checksum_r" r) (registers mesh_circuit)
    in
    let mesh = path (write_design ctx "service-mesh" mesh_circuit) mesh_selection in
    let soc_c = soc_circuit () in
    let soc_text = Firrtl.Text.emit soc_c in
    let soc = path (write_design ctx "service-soc" soc_c) (FR.Spec.Instances [ [ "tile" ] ]) in
    let soc_probes = [ "tile$core$pc"; "tile$core$state"; "tile$core$retired_count" ] in
    let rng = rng ctx 6 in
    let progs = Array.init programs (fun _ -> kite_program rng ~n ~reps) in
    let words =
      Array.map
        (fun (program, data, _, _) ->
          List.mapi (fun a w -> (a, w)) (Socgen.Kite_isa.assemble program) @ data)
        progs
    in
    let loads =
      Array.map
        (fun (program, data, _, _) sim -> Socgen.Soc.load_program sim ~mem:soc_mem ~data program)
        progs
    in
    let step_cycles =
      let longest = Array.fold_left (fun acc load -> max acc (halt_cycle soc_text ~load)) 0 loads in
      (longest + steps - 1) / steps
    in
    let derive ~profile =
      derive ~profile ~mesh ~mesh_probes ~rounds ~round_cycles ~soc ~soc_probes ~loads ~steps
        ~step_cycles
    in
    let table, _, _ = derive ~profile:Telemetry.Profile.null in
    (* A capture of the tenant probes whose values come from [row]: the
       client renders the replies it got the way a debugger would. *)
    let tenant_capture row =
      Debug.Capture.of_probes
        {
          Debug.Capture.pb_names = Array.of_list mesh_probes;
          pb_scopes = Array.make (List.length mesh_probes) "tenant";
          pb_widths = table.mesh_widths;
          pb_read = (fun () -> !row);
        }
    in
    let reference_trace =
      let row = ref [||] in
      let cap = tenant_capture row in
      Array.iteri
        (fun i r ->
          row := r;
          Debug.Capture.sample cap ~cycle:((i + 1) * round_cycles))
        table.mesh_rows;
      Debug.Capture.probe_trace cap
    in
    let socket_path = Filename.concat ctx.dir "service.sock" in
    let shutdown = start_server ~socket_path in
    let body ~latencies _profile =
      (* Every call is timed per verb; those of the run phase are also
         its requests. *)
      let lat = ref [] and running = ref false and requests = ref 0 in
      let call verb f =
        let x, dt = Stats.timed (fun () -> Trace.span ("service." ^ verb) f) in
        lat := (verb, ms dt) :: !lat;
        if !running then begin
          Stats.add latencies (ms dt);
          incr requests
        end;
        x
      in
      let attempted = ref 0 and failed = ref 0 in
      let check ok =
        incr attempted;
        if not ok then incr failed
      in
      (* The server's counters are cumulative: this repeat's share is
         the difference between a reading before and one after. *)
      let counters c =
        let stats = call "stats" (fun () -> Service.Client.stats c) in
        let counter k =
          Option.bind (J.member "counters" stats) (J.member k)
          |> Fun.flip Option.bind J.to_int |> Option.value ~default:0
        in
        (counter "cache_hits", counter "packed")
      in
      let t0 = now () in
      let c = call "connect" (fun () -> Service.Client.connect ~socket_path ()) in
      let hits0, packed0 = counters c in
      let sids =
        Array.init tenants (fun _ ->
            (call "create" (fun () -> Service.Client.create c ~design:mesh_text)).Service.Client.c_sid)
      in
      let setup_s = since t0 in
      running := true;
      let t_run = now () in
      let row = ref [||] in
      let cap = tenant_capture row in
      for i = 0 to rounds - 1 do
        (* A short-lived soc session: create (a compile-cache hit),
           load a program, step it to its halt, probe, read the sum. *)
        let k = i mod programs in
        let _, _, dst, sum = progs.(k) in
        let sid = (call "create" (fun () -> Service.Client.create c ~design:soc_text)).Service.Client.c_sid in
        List.iter
          (fun (a, w) -> call "poke" (fun () -> Service.Client.poke_mem c ~sid soc_mem a w))
          words.(k);
        for j = 0 to steps - 1 do
          ignore (call "step" (fun () -> Service.Client.step c ~sid step_cycles) : int);
          let got = call "probe" (fun () -> Service.Client.probe c ~sid soc_probes) in
          check (Array.of_list got = table.soc_rows.(k).(j))
        done;
        check (call "peek" (fun () -> Service.Client.peek_mem c ~sid soc_mem dst) = sum);
        call "kill" (fun () -> Service.Client.kill c ~sid);
        (* One round of the packed mesh tenants. *)
        Array.iter
          (fun sid ->
            ignore (call "step_async" (fun () -> Service.Client.step_async c ~sid round_cycles) : int * int))
          sids;
        Array.iter (fun sid -> ignore (call "wait" (fun () -> Service.Client.wait c ~sid) : int)) sids;
        let got =
          call "probe" (fun () -> Service.Client.probe c ~sid:sids.(i mod tenants) mesh_probes)
        in
        row := Array.of_list got;
        check (!row = table.mesh_rows.(i));
        Trace.span "debug.capture.sample" (fun () ->
            Debug.Capture.sample cap ~cycle:((i + 1) * round_cycles))
      done;
      let run_s = since t_run in
      running := false;
      let hits1, packed1 = counters c in
      Array.iter (fun sid -> call "kill" (fun () -> Service.Client.kill c ~sid)) sids;
      Service.Client.close c;
      let trace, wave_bytes =
        Trace.span "debug.capture.render" (fun () ->
            (Debug.Capture.probe_trace cap, String.length (Debug.Capture.contents cap)))
      in
      check (String.equal trace reference_trace);
      let verbs = List.sort_uniq compare (List.map fst !lat) in
      let detail =
        List.map
          (fun v ->
            ( "service." ^ v ^ "_ms",
              Stats.median (List.filter_map (fun (v', t) -> if v = v' then Some t else None) !lat) ))
          verbs
        @ [
            ("service.cache_hits", float_of_int (hits1 - hits0));
            ("service.packed", float_of_int (packed1 - packed0));
          ]
      in
      {
        sample =
          {
            setup_s;
            result_s = since t0;
            run_s;
            cycles = rounds * ((tenants * round_cycles) + (steps * step_cycles));
            requests = !requests;
            wave_bytes;
            attempted = !attempted;
            failed = !failed;
            layers = [];
            detail;
          };
        plans = [];
        tokens = 0;
      }
    in
    let beside profile =
      let _, plans, tokens = derive ~profile in
      (plans, tokens)
    in
    {
      repeat = (fun ~latencies ~traced -> repeat ~beside ~traced (body ~latencies));
      close = shutdown;
    }
  in
  { name = "service-mix"; prepare }

let all = [ mesh4x4_2part; ring8_5part; soc_stepped_capture; bigcore_cold; service_mix ]
