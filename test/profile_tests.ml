(* Tests for the hot-path profiler: the fireaxe-profile-1 document
   round-trips through the shared JSON layer; enabling a profile never
   perturbs simulation (bit-exact state crosscheck, monolithic and
   partitioned, both engines and both schedulers, over every bundled
   example design); retired opcode-class counters are exact on a
   hand-written design (static histogram x passes, the straight-line
   program argument made checkable); the disabled [Profile.null] path
   stays allocation-free, and a live profile adds no words per cycle;
   and a deliberately starved two-partition ring reports nonzero stall
   time — the regression test for the all-zero stall_breakdown bug
   (fast paths used to bypass the stall counters entirely). *)

module FR = Fireripper
module J = Telemetry.Json
module P = Telemetry.Profile

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let designs_dir =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    "examples/designs"

let example_designs () =
  Sys.readdir designs_dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".fir")
  |> List.sort compare

let load file = Firrtl.Text.load ~path:(Filename.concat designs_dir file)

(* -- JSON plumbing ------------------------------------------------- *)

let field j k =
  match j with
  | J.Obj fields -> List.assoc_opt k fields
  | _ -> None

let int_field j k =
  match field j k with
  | Some (J.Int n) -> n
  | _ -> Alcotest.failf "missing int field %S" k

let string_field j k =
  match field j k with
  | Some (J.String s) -> s
  | _ -> Alcotest.failf "missing string field %S" k

let list_field j k =
  match field j k with
  | Some (J.List l) -> l
  | _ -> Alcotest.failf "missing list field %S" k

(* ------------------------------------------------------------------ *)
(* Schema round-trip through Telemetry.Json                            *)
(* ------------------------------------------------------------------ *)

(* A profile populated across every granularity — engine, cone,
   partition, channel, wire, remote slice — must serialize to a
   one-line document the shared parser accepts, and the parsed tree
   must survive a second emit/parse cycle unchanged. *)
let test_schema_round_trip () =
  let p = P.create () in
  let e =
    P.engine p ~label:"u0" ~kind:"bytecode" ~lanes:2
      ~comb_hist:[ ("arith", 3); ("mov", 1) ]
      ~seq_hist:[ ("state", 2) ]
  in
  P.add_comb e 1_000;
  P.add_seq e 500;
  let cn = P.cone p ~label:"u0" ~name:"out" ~instrs:7 ~hist:[ ("arith", 7) ] in
  P.add_cone_eval cn 250;
  let pt = P.part p ~name:"u0" ~index:0 in
  P.add_run pt 10_000;
  P.add_exchange pt 2_000;
  P.add_spin pt 300;
  P.add_park pt 700;
  P.add_barrier pt 100;
  P.add_cycles pt 42;
  let ch = P.channel p ~part:"u0" ~name:"out" in
  P.add_enq ch ~tokens:4 900;
  P.add_deq ch ~tokens:4 800;
  let w = P.wire p ~label:"u1" in
  P.add_wire w ~bytes_out:64 ~bytes_in:32 5_000;
  P.add_slice p ~label:"u1" (J.Obj [ ("schema", J.String "fireaxe-profile-1") ]);
  P.set_wall_ns p 20_000;
  let line = P.slice_string p in
  check_bool "slice is one line" false (String.contains line '\n');
  let doc =
    match J.parse line with
    | Ok j -> j
    | Error m -> Alcotest.failf "slice_string does not parse: %s" m
  in
  check_string "schema tag" "fireaxe-profile-1" (string_field doc "schema");
  check_int "wall pinned" 20_000 (int_field doc "wall_ns");
  (* Every top-level section the CLI, bench and CI consumers read. *)
  List.iter
    (fun k -> check_bool ("has " ^ k) true (field doc k <> None))
    [
      "schema"; "wall_ns"; "engines"; "opcode_classes"; "cones"; "partitions";
      "channels"; "wires"; "remote_slices"; "load_model";
    ];
  (* One row per registration. *)
  check_int "engines" 1 (List.length (list_field doc "engines"));
  check_int "cones" 1 (List.length (list_field doc "cones"));
  check_int "partitions" 1 (List.length (list_field doc "partitions"));
  check_int "channels" 1 (List.length (list_field doc "channels"));
  check_int "wires" 1 (List.length (list_field doc "wires"));
  (match field doc "remote_slices" with
  | Some (J.Obj [ ("u1", J.Obj _) ]) -> ()
  | _ -> Alcotest.fail "remote_slices should carry the one attached slice");
  (* Partition row carries exactly what was recorded. *)
  let part = List.hd (list_field doc "partitions") in
  (* Exchange segments are nested inside run segments, so the export
     reports run net of exchange. *)
  check_int "run_ns" 8_000 (int_field part "run_ns");
  check_int "exchange_ns" 2_000 (int_field part "exchange_ns");
  check_int "spin_ns" 300 (int_field part "spin_ns");
  check_int "park_ns" 700 (int_field part "park_ns");
  check_int "barrier_ns" 100 (int_field part "barrier_ns");
  check_int "spins" 1 (int_field part "spins");
  check_int "parks" 1 (int_field part "parks");
  check_int "cycles" 42 (int_field part "cycles");
  (* Retired counts: hist x passes x lanes (2 lanes, 1 pass each). *)
  let classes = match field doc "opcode_classes" with
    | Some o -> o
    | None -> Alcotest.fail "no opcode_classes"
  in
  check_int "arith retired" ((3 * 2) + 7) (int_field classes "arith");
  check_int "state retired" (2 * 2) (int_field classes "state");
  (* Emit/parse is a fixpoint on the parsed tree. *)
  match J.parse (J.to_string doc) with
  | Ok doc2 -> check_bool "emit/parse fixpoint" true (doc = doc2)
  | Error m -> Alcotest.failf "re-emitted document does not parse: %s" m

(* ------------------------------------------------------------------ *)
(* Determinism: profiling must never perturb simulation                *)
(* ------------------------------------------------------------------ *)

let snapshot sim = Rtlsim.Sim.state_to_string (Rtlsim.Sim.save_state sim)

let test_monolithic_determinism () =
  List.iter
    (fun file ->
      let circuit = load file in
      List.iter
        (fun (ename, engine) ->
          let run profile =
            let sim = Rtlsim.Sim.of_circuit ~engine ~profile circuit in
            for _ = 1 to 80 do
              Rtlsim.Sim.step sim
            done;
            snapshot sim
          in
          check_string
            (Printf.sprintf "%s (%s): profile on/off bit-exact" file ename)
            (run P.null)
            (run (P.create ())))
        [ ("closure", Rtlsim.Sim.Closure); ("bytecode", Rtlsim.Sim.Bytecode) ])
    (example_designs ())

let first_instance circuit =
  match Firrtl.Hierarchy.instances (Firrtl.Ast.main_module circuit) with
  | (name, _) :: _ -> name
  | [] -> failwith "no instances to partition"

let plan_of circuit =
  let config =
    {
      FR.Spec.default_config with
      FR.Spec.selection = FR.Spec.Instances [ [ first_instance circuit ] ];
    }
  in
  FR.Compile.compile ~config circuit

(* The partitioned variant additionally exercises the scheduler and
   channel recorders — and, because a live profile forces the parallel
   scheduler onto the real-domain path, the profiled run takes a
   genuinely different execution policy and must still agree. *)
let test_partitioned_determinism () =
  List.iter
    (fun file ->
      let circuit = load file in
      List.iter
        (fun scheduler ->
          List.iter
            (fun (ename, engine) ->
              let run profile =
                let h = FR.Runtime.instantiate ~scheduler ~engine ~profile (plan_of circuit) in
                FR.Runtime.run h ~cycles:60;
                FR.Runtime.save_to_string h
              in
              check_string
                (Printf.sprintf "%s (%s, %s): profile on/off bit-exact" file
                   (Libdn.Scheduler.name scheduler) ename)
                (run P.null)
                (run (P.create ())))
            [ ("closure", Rtlsim.Sim.Closure); ("bytecode", Rtlsim.Sim.Bytecode) ])
        [ Libdn.Scheduler.Sequential; Libdn.Scheduler.Parallel ])
    (example_designs ())

(* ------------------------------------------------------------------ *)
(* Opcode-class counter exactness                                      *)
(* ------------------------------------------------------------------ *)

(* A hand-written module whose per-cycle retired work is knowable: one
   input-dependent add feeding an output (combinational pass) and one
   xor feeding a register (sequential step).  Neither can constant-fold
   away.  Bytecode programs are straight-line, so retired counts must
   be exactly per-pass-histogram x cycles — checked both as pinned
   class counts and as strict linearity in the cycle count. *)
let tiny_circuit () =
  Firrtl.Text.parse
    (String.concat "\n"
       [
         "circuit tiny main top:";
         "  module top:";
         "    input a : UInt<8>";
         "    input b : UInt<8>";
         "    output sum : UInt<8>";
         "    reg acc : UInt<8> init 0";
         "    connect sum = add(a, b)";
         "    regnext acc <= xor(acc, a)";
       ])

let retired_classes ~cycles =
  let profile = P.create () in
  let sim =
    Rtlsim.Sim.of_circuit ~engine:Rtlsim.Sim.Bytecode ~profile (tiny_circuit ())
  in
  Rtlsim.Sim.set_input sim "a" 3;
  Rtlsim.Sim.set_input sim "b" 5;
  for _ = 1 to cycles do
    Rtlsim.Sim.step sim
  done;
  match field (P.to_json profile) "opcode_classes" with
  | Some (J.Obj classes) ->
    List.filter_map
      (fun (k, v) -> match v with J.Int n when n > 0 -> Some (k, n) | _ -> None)
      classes
    |> List.sort compare
  | _ -> Alcotest.fail "no opcode_classes in profile document"

let test_opcode_class_exactness () =
  let n = 6 in
  let classes = retired_classes ~cycles:n in
  (* The input-dependent add retires exactly once per cycle; so does
     the xor feeding the register. *)
  check_int "arith: one add per cycle" n (List.assoc "arith" classes);
  check_int "logic: one xor per cycle" n (List.assoc "logic" classes);
  (* Straight-line programs: every class is linear in the pass count,
     with no constant term from setup passes. *)
  let doubled = retired_classes ~cycles:(2 * n) in
  List.iter
    (fun (k, v) ->
      check_int (k ^ ": retired count linear in cycles") (2 * v)
        (List.assoc k doubled))
    classes;
  check_int "no classes appear or vanish" (List.length classes)
    (List.length doubled)

(* ------------------------------------------------------------------ *)
(* Disabled-path overhead guard                                        *)
(* ------------------------------------------------------------------ *)

let ring_plan groups =
  let config =
    {
      FR.Spec.default_config with
      FR.Spec.selection = FR.Spec.Noc_routers groups;
    }
  in
  FR.Compile.compile ~config (Socgen.Ring_noc.ring_soc ~n_tiles:8 ~period:4 ())

(* The disabled discipline, checked by counts no host can move.  A
   recorder minted from [Profile.null] never allocates, and recording
   adds no allocation to a run: a two-part ring-8 run allocates exactly
   as many minor words per target cycle under a live profile as under
   null sinks (measured as the difference between a 300- and a
   100-cycle run, so per-run constants cancel). *)
let test_null_overhead () =
  let e =
    P.engine P.null ~label:"x" ~kind:"bytecode" ~lanes:1 ~comb_hist:[] ~seq_hist:[]
  in
  let pt = P.part P.null ~name:"x" ~index:0 in
  let ch = P.channel P.null ~part:"x" ~name:"c" in
  let calls = 1_000_000 in
  let minor_before = Gc.minor_words () in
  for i = 1 to calls do
    P.add_comb e i;
    P.add_run pt i;
    P.add_enq ch ~tokens:1 i
  done;
  let minor_after = Gc.minor_words () in
  check_bool "disabled recording never allocates" true
    (minor_after -. minor_before < 256.);
  let words_per_cycle profile =
    let h =
      FR.Runtime.instantiate ~scheduler:Libdn.Scheduler.Sequential ~profile
        (ring_plan [ [ 0; 1; 2; 3 ]; [ 4; 5; 6; 7 ] ])
    in
    let words cycles =
      let target = FR.Runtime.cycle h 0 + cycles in
      let before = Gc.minor_words () in
      FR.Runtime.run h ~cycles:target;
      Gc.minor_words () -. before
    in
    ignore (words 20);
    (words 300 -. words 100) /. 200.
  in
  let null = words_per_cycle P.null in
  let live = words_per_cycle (P.create ()) in
  check_bool (Printf.sprintf "run allocates per cycle (%.2f words)" null) true (null > 0.);
  if live <> null then
    Alcotest.failf "live profile allocates %.2f words per target cycle, null sinks %.2f"
      live null

(* ------------------------------------------------------------------ *)
(* Starved-ring stall attribution (all-zero stall_breakdown regression) *)
(* ------------------------------------------------------------------ *)

(* Two-partition ring where one partition's drive hook sleeps every
   target cycle: its peer MUST accumulate nonzero spin/park stall time
   in the profile, and the telemetry MUST attribute stalls to the
   starved input channels.  Before the fix the fast paths bypassed the
   stall counters and the single-core cooperative fallback was
   structurally zero, so profiles reported an all-zero stall_breakdown
   on exactly the runs where stalls dominate. *)
let test_starved_ring_stall_attribution () =
  let telemetry = Telemetry.create () in
  let profile = P.create () in
  (* A live profile forces the real-domain parallel path even on a
     single-core host, so spin/park instrumentation actually runs. *)
  let h =
    FR.Runtime.instantiate ~scheduler:Libdn.Scheduler.Parallel ~telemetry
      ~profile
      (ring_plan [ [ 0; 1; 2; 3; 4; 5; 6; 7 ] ])
  in
  FR.Runtime.set_drive h 0 (fun _ _ -> Unix.sleepf 0.0002);
  FR.Runtime.run h ~cycles:40;
  let doc = P.to_json profile in
  let parts = list_field doc "partitions" in
  check_int "two partitions profiled" 2 (List.length parts);
  let total key = List.fold_left (fun acc p -> acc + int_field p key) 0 parts in
  check_bool "nonzero stall events (spins+parks)" true
    (total "spins" + total "parks" > 0);
  check_bool "nonzero stall time (spin_ns+park_ns)" true
    (total "spin_ns" + total "park_ns" > 0);
  check_bool "nonzero run time" true (total "run_ns" > 0);
  (* The starved partition's input channels carry stall attribution. *)
  let stalled =
    List.fold_left
      (fun acc (name, v) ->
        if String.ends_with ~suffix:".stalled" name then acc + v else acc)
      0 (Telemetry.counters telemetry)
  in
  check_bool "telemetry attributes stalls to channels" true (stalled > 0)

(* The cooperative single-core fallback now counts failed round-robin
   visits as spins instead of leaving the counters structurally zero.
   The network is built so the FIRST visited partition ("pass", a pure
   combinational passthrough) can do nothing at all until its peer
   ("src", a register source) has fired: its opening visit must fail
   and be counted. *)
let test_cooperative_spins_counted () =
  let chan name ports = { Libdn.Channel.name; ports } in
  let pass_module =
    let b = Firrtl.Builder.create "pass" in
    let a = Firrtl.Builder.input b "a" 8 in
    Firrtl.Builder.output b "d" 8;
    Firrtl.Builder.connect b "d" a;
    Firrtl.Builder.finish b
  in
  let src_module =
    let b = Firrtl.Builder.create "src" in
    let a = Firrtl.Builder.input b "a" 8 in
    let x = Firrtl.Builder.reg b ~init:1 "x" 8 in
    Firrtl.Builder.reg_next b "x" a;
    Firrtl.Builder.output b "d" 8;
    Firrtl.Builder.connect b "d" x;
    Firrtl.Builder.finish b
  in
  let telemetry = Telemetry.create () in
  let net = Libdn.Network.create ~telemetry () in
  let add flat =
    Goldengate.Fame1.add_to_network net ~name:flat.Firrtl.Ast.name
      (Goldengate.Fame1.wrap ~flat
         ~ins:[ chan "in" [ ("a", 8) ] ]
         ~outs:[ chan "out" [ ("d", 8) ] ]
         ())
  in
  let p_pass = add pass_module in
  let p_src = add src_module in
  Libdn.Network.connect net ~src:(p_src, "out") ~dst:(p_pass, "in");
  Libdn.Network.connect net ~src:(p_pass, "out") ~dst:(p_src, "in");
  Libdn.Scheduler.set_host_domains 1;
  Fun.protect
    ~finally:(fun () -> Libdn.Scheduler.set_host_domains 0)
    (fun () ->
      Libdn.Scheduler.run ~scheduler:Libdn.Scheduler.Parallel net ~cycles:40);
  let spins =
    List.fold_left
      (fun acc (name, v) ->
        if String.ends_with ~suffix:".spins" name then acc + v else acc)
      0 (Telemetry.counters telemetry)
  in
  check_bool "cooperative failed visits counted as spins" true (spins > 0)

(* ------------------------------------------------------------------ *)

let suite =
  [
    ( "telemetry.profile",
      [
        Alcotest.test_case "schema round-trips through Telemetry.Json" `Quick
          test_schema_round_trip;
        Alcotest.test_case "monolithic determinism (profile on/off)" `Quick
          test_monolithic_determinism;
        Alcotest.test_case "partitioned determinism (schedulers x engines)" `Quick
          test_partitioned_determinism;
        Alcotest.test_case "opcode-class counters exact" `Quick
          test_opcode_class_exactness;
        Alcotest.test_case "Profile.null overhead under budget" `Quick
          test_null_overhead;
        Alcotest.test_case "starved ring reports stall time" `Quick
          test_starved_ring_stall_attribution;
        Alcotest.test_case "cooperative fallback counts spins" `Quick
          test_cooperative_spins_counted;
      ] );
  ]
