(* Parallel-scheduler speedup microbench: the same multi-partition NoC
   designs run under the sequential and parallel schedulers, reporting
   wall-clock time, tokens/s and the seq/par ratio.

   LI-BDN determinism guarantees identical token streams either way, so
   this is a pure execution-policy comparison.  On a single-core host
   the ratio hovers around (or below) 1x — one domain per partition
   only pays off once [Domain.recommended_domain_count] admits real
   concurrency — which is why every row records the PHYSICAL host
   domain count next to the EFFECTIVE one the run used, and marks rows
   that ran every partition inline on one domain instead of spawning
   domains ([cooperative_fallback]).  A reader (or the CI gate) can then
   tell a real scaling measurement from a placeholder taken on a starved
   runner.

   The scaling section sweeps forced host-domain counts 1/2/4/8: each
   point bin-packs the partitions onto that many domains with the
   [Platform.Place] placement pass (profiled-or-estimated load weights,
   LPT) and runs the parallel scheduler — the curve FireAxe's
   Figure-style speedup plots want.

   A second measurement per design forces one REAL domain per partition
   ([Libdn.Scheduler.set_host_domains]) and runs twice — once with both
   sinks null, once with a live profile and metrics sink — so the
   report carries (a) a truthful per-partition
   run/exchange/spin/park/barrier stall breakdown (the inline
   single-core worker never parks, so it cannot produce one), and (b)
   the cost of recording against no recording, measured on the same
   execution path.  A discarded warmup run on that same
   path precedes the pair, so the first measured run no longer pays the
   one-off domain-spawn and page-fault cost that used to show up as a
   spurious NEGATIVE profiler overhead. *)

(* Measurements run with a live telemetry sink unless given one, so the
   JSON report can break wall-clock down into per-partition
   run/idle/barrier time and per-channel stall attribution. *)
let measure ?profile ?groups ?(telemetry = Telemetry.create ()) plan ~cycles scheduler =
  let h =
    Fireripper.Runtime.instantiate ~scheduler ?groups ~telemetry ?profile plan
  in
  let secs = Harness.time (fun () -> Fireripper.Runtime.run h ~cycles) in
  (secs, Fireripper.Runtime.token_transfers h, telemetry)

(* Total stalls attributed to each input channel
   ([net.<part>.in.<chan>.stalled], nonzero entries only). *)
let stalled_channels tel =
  List.filter_map
    (fun (name, v) ->
      if v > 0 && String.ends_with ~suffix:".stalled" name then
        Some (name, Telemetry.Json.Int v)
      else None)
    (Telemetry.counters tel)

(* Per-partition stall breakdown, lifted from the profile document so
   the bench reports exactly what [--profile] users will see: measured
   run/exchange/spin/park/barrier nanoseconds plus spin/park counts. *)
let stall_breakdown profile =
  let module J = Telemetry.Json in
  match Telemetry.Profile.to_json profile with
  | J.Obj fields -> (
    match List.assoc_opt "partitions" fields with
    | Some (J.List parts) ->
      List.filter_map
        (fun p ->
          match p with
          | J.Obj pf -> (
            match List.assoc_opt "name" pf with
            | Some (J.String name) ->
              let keep =
                List.filter
                  (fun (k, _) ->
                    List.mem k
                      [
                        "run_ns"; "exchange_ns"; "spin_ns"; "park_ns";
                        "barrier_ns"; "spins"; "parks";
                      ])
                  pf
              in
              Some (name, J.Obj keep)
            | _ -> None)
          | _ -> None)
        parts
      |> List.sort compare
    | _ -> [])
  | _ -> []

(* How many domains a parallel run at [forced] host domains actually
   uses for [plan], and whether it runs inline: 1 domain below the
   spawn threshold, one per placement group when the
   placement pass fused partitions, one per partition otherwise. *)
let effective_domains plan ~forced ~groups =
  if forced <= 1 then (1, true)
  else
    match groups with
    | Some g -> (Array.fold_left max 0 g + 1, false)
    | None -> (Fireripper.Plan.n_units plan, false)

(* One point of the domain-scaling curve: force [forced] host domains,
   bin-pack the partitions onto them (Place Auto — load-weighted LPT),
   and run the parallel scheduler. *)
let scaling_point plan ~cycles ~seq_secs forced =
  Libdn.Scheduler.set_host_domains forced;
  let groups =
    Platform.Place.groups ~domains:forced ~policy:Platform.Place.Auto plan
  in
  let eff, cooperative = effective_domains plan ~forced ~groups in
  let secs, _, _ = measure ?groups plan ~cycles Libdn.Scheduler.Parallel in
  Libdn.Scheduler.set_host_domains 0;
  Printf.printf
    "  scale d=%d (effective %d%s) %8.3f s %10.0f cycles/s  %.2fx vs seq\n"
    forced eff
    (if cooperative then ", inline" else "")
    secs
    (float_of_int cycles /. secs)
    (seq_secs /. secs);
  Telemetry.Json.Obj
    [
      ("name", Telemetry.Json.String (Printf.sprintf "domains=%d" forced));
      ("forced_domains", Telemetry.Json.Int forced);
      ("effective_domains", Telemetry.Json.Int eff);
      ("cooperative_fallback", Telemetry.Json.Bool cooperative);
      ("secs", Telemetry.Json.Float secs);
      ("cycles_per_s", Telemetry.Json.Float (float_of_int cycles /. secs));
      ("speedup", Telemetry.Json.Float (seq_secs /. secs));
    ]

(* Collected per-design rows for the machine-readable report. *)
let report_rows : (string * Telemetry.Json.t) list list ref = ref []

let bench ~name ~cycles plan =
  let physical = Domain.recommended_domain_count () in
  Printf.printf "%-12s %d partitions, %d target cycles\n" name
    (Fireripper.Plan.n_units plan) cycles;
  let run ?profile ?telemetry ~tag scheduler =
    let secs, tokens, tel = measure ?profile ?telemetry plan ~cycles scheduler in
    Printf.printf "  %-9s %8.3f s %12.0f tokens/s %10.0f cycles/s\n" tag secs
      (float_of_int tokens /. secs)
      (float_of_int cycles /. secs);
    (secs, tokens, tel)
  in
  let seq_secs, seq_tokens, _ =
    run ~tag:"seq" Libdn.Scheduler.Sequential
  in
  let par_secs, par_tokens, _ = run ~tag:"par" Libdn.Scheduler.Parallel in
  Printf.printf "  speedup (seq/par wall-clock): %.2fx\n" (seq_secs /. par_secs);
  (* Domain-scaling curve: 1/2/4/8 forced host domains, load-balanced
     placement. *)
  let scaling =
    List.map (scaling_point plan ~cycles ~seq_secs) [ 1; 2; 4; 8 ]
  in
  (* Real-domain section: force one domain per partition — even on a
     single-core host — so the recorded and unrecorded runs take the
     SAME execution path and their delta is the cost of recording, not
     an inline-vs-domains policy change.  The discarded warmup run
     eats the one-off spawn/fault cost first. *)
  let n_units = Fireripper.Plan.n_units plan in
  Libdn.Scheduler.set_host_domains n_units;
  ignore (measure plan ~cycles Libdn.Scheduler.Parallel);
  let base_secs, _, _ =
    run ~telemetry:Telemetry.null ~tag:"domains" Libdn.Scheduler.Parallel
  in
  let profile = Telemetry.Profile.create () in
  let prof_secs, _, prof_tel =
    run ~profile ~tag:"profiled" Libdn.Scheduler.Parallel
  in
  Libdn.Scheduler.set_host_domains 0;
  let overhead_pct = 100. *. (prof_secs -. base_secs) /. base_secs in
  Printf.printf "  recording overhead (profile and metrics vs none, real domains): %.1f%%\n"
    overhead_pct;
  let sched_row secs tokens =
    Telemetry.Json.Obj
      [
        ("secs", Telemetry.Json.Float secs);
        ("tokens", Telemetry.Json.Int tokens);
        ("tokens_per_s", Telemetry.Json.Float (float_of_int tokens /. secs));
        ("cycles_per_s", Telemetry.Json.Float (float_of_int cycles /. secs));
      ]
  in
  report_rows :=
    [
      ("name", Telemetry.Json.String name);
      ("partitions", Telemetry.Json.Int (Fireripper.Plan.n_units plan));
      ("cycles", Telemetry.Json.Int cycles);
      ("physical_domains", Telemetry.Json.Int physical);
      ( "cooperative_fallback",
        (* Whether the headline par row above ran inline (single-domain
           host): its "speedup" then measures scheduler bookkeeping, not
           parallelism. *)
        Telemetry.Json.Bool (physical <= 1) );
      ("seq", sched_row seq_secs seq_tokens);
      ("par", sched_row par_secs par_tokens);
      ("speedup", Telemetry.Json.Float (seq_secs /. par_secs));
      ("scaling", Telemetry.Json.List scaling);
      ( "par_domains",
        Telemetry.Json.Obj
          [
            ("secs", Telemetry.Json.Float base_secs);
            ("cycles_per_s", Telemetry.Json.Float (float_of_int cycles /. base_secs));
          ] );
      ( "par_profiled",
        Telemetry.Json.Obj
          [
            ("secs", Telemetry.Json.Float prof_secs);
            ("cycles_per_s", Telemetry.Json.Float (float_of_int cycles /. prof_secs));
          ] );
      ("profile_overhead_pct", Telemetry.Json.Float overhead_pct);
      ("stall_breakdown", Telemetry.Json.Obj (stall_breakdown profile));
      ("stalled_channels", Telemetry.Json.Obj (stalled_channels prof_tel));
    ]
    :: !report_rows

let run () =
  Printf.printf "\n== scheduler speedup (host domains: %d) ==\n"
    (Domain.recommended_domain_count ());
  (* Ring of 8 routers cut into 4 partitions of 2 (plus none left over:
     the reflector/tile wrapper is its own unit). *)
  bench ~name:"ring-8/4way" ~cycles:2_000
    (Harness.noc_plan
       ~groups:[ [ 0; 1 ]; [ 2; 3 ]; [ 4; 5 ]; [ 6; 7 ] ]
       (Harness.ring8 ()));
  (* 4x4 mesh cut into row bands (rows 0-2 extracted, row 3 stays with
     the tile wrapper). *)
  bench ~name:"mesh-4x4/4way" ~cycles:1_000
    (Harness.noc_plan
       ~groups:
         [
           Socgen.Mesh_noc.row_group ~width:4 0;
           Socgen.Mesh_noc.row_group ~width:4 1;
           Socgen.Mesh_noc.row_group ~width:4 2;
         ]
       (Harness.mesh4x4 ()));
  Harness.write_report ~schema:"fireaxe-bench-speedup-1"
    ~extra:
      [ ("host_domains", Telemetry.Json.Int (Domain.recommended_domain_count ())) ]
    ~designs:!report_rows ~path:"BENCH_speedup.json" ()
