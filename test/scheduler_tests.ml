(* Cross-scheduler equivalence: the parallel scheduler (one OCaml 5
   domain per partition, bounded token queues) must produce register
   state cycle-identical to the sequential round-robin reference on
   every partitioned design, in both exact and fast modes — the LI-BDN
   determinism argument made executable.  Deadlock detection (Fig. 2a)
   must fire under both policies, and under every shape of parallel
   worker: one per partition, a fused group, and the inline worker of a
   one-thread host. *)

module FR = Fireripper
module BQ = Libdn.Channel.Bqueue
module Notifier = Libdn.Channel.Notifier

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let check_ints = Alcotest.(check (list int))
let check_units = Alcotest.(check (list string))

let seq = Libdn.Scheduler.Sequential
let par = Libdn.Scheduler.Parallel

(* Runs [f] with the parallel policy sized to [n] host domains. *)
let with_host_domains n f =
  Libdn.Scheduler.set_host_domains n;
  Fun.protect ~finally:(fun () -> Libdn.Scheduler.set_host_domains 0) f

(* ------------------------------------------------------------------ *)
(* Network-level equivalence on the Fig. 2 pair design                 *)
(* ------------------------------------------------------------------ *)

let pair_x net p = (Libdn.Network.partition net p).pt_engine.Libdn.Engine.get "x"

let test_parallel_matches_monolithic_exact () =
  let mono = Rtlsim.Sim.of_circuit (Libdn_tests.monolithic_pair ()) in
  for _ = 1 to 32 do
    Rtlsim.Sim.step mono
  done;
  let net, p1, p2 = Libdn_tests.build_pair_network ~split:true ~seeded:false in
  Libdn.Scheduler.run ~scheduler:par net ~cycles:32;
  check_int "x1" (Rtlsim.Sim.get mono "p1$x") (pair_x net p1);
  check_int "x2" (Rtlsim.Sim.get mono "p2$x") (pair_x net p2)

let test_parallel_matches_sequential_seeded () =
  (* Fast mode: merged channels with seed tokens. *)
  let run scheduler =
    let net, p1, p2 = Libdn_tests.build_pair_network ~split:false ~seeded:true in
    Libdn.Scheduler.run ~scheduler net ~cycles:25;
    (pair_x net p1, pair_x net p2, Libdn.Network.token_transfers net)
  in
  let sx1, sx2, stok = run seq in
  let px1, px2, ptok = run par in
  check_int "x1" sx1 px1;
  check_int "x2" sx2 px2;
  check_int "token transfers identical" stok ptok

let deadlocks ?(groups = [||]) scheduler =
  let net, _, _ = Libdn_tests.build_pair_network ~split:false ~seeded:false in
  Libdn.Network.set_groups net groups;
  try
    Libdn.Scheduler.run ~scheduler net ~cycles:1;
    false
  with Libdn.Network.Deadlock _ -> true

let test_deadlock_detected_under_both () =
  List.iter
    (fun (what, detected) ->
      check_bool (what ^ " detects the Fig 2a deadlock") true (detected ()))
    [
      ("seq", fun () -> deadlocks seq);
      ("par", fun () -> deadlocks par);
      ("par, inline worker", fun () -> with_host_domains 1 (fun () -> deadlocks par));
      ( "par, fused worker",
        fun () -> with_host_domains 2 (fun () -> deadlocks ~groups:[| 0; 0 |] par) );
    ]

(* A register source feeding an accumulator through a 2-token queue: the
   source has no inputs, so a worker of its own runs ahead until the
   full queue blocks it.  Every worker shape must land on the
   sequential reference's state and token count. *)
let run_ahead_network () =
  let chan name ports = { Libdn.Channel.name; ports } in
  let src =
    let b = Firrtl.Builder.create "src" in
    let x = Firrtl.Builder.reg b ~init:1 "x" 8 in
    Firrtl.Builder.reg_next b "x" Firrtl.Dsl.(x +: lit ~width:8 3);
    Firrtl.Builder.output b "d" 8;
    Firrtl.Builder.connect b "d" x;
    Firrtl.Builder.finish b
  in
  let sink =
    let b = Firrtl.Builder.create "sink" in
    let a = Firrtl.Builder.input b "a" 8 in
    let acc = Firrtl.Builder.reg b "acc" 16 in
    Firrtl.Builder.reg_next b "acc" Firrtl.Dsl.(acc +: a);
    Firrtl.Builder.finish b
  in
  let net = Libdn.Network.create ~queue_capacity:2 () in
  let add flat ~ins ~outs =
    Goldengate.Fame1.add_to_network net ~name:flat.Firrtl.Ast.name
      (Goldengate.Fame1.wrap ~flat ~ins ~outs ())
  in
  let p_src = add src ~ins:[] ~outs:[ chan "out" [ ("d", 8) ] ] in
  let p_sink = add sink ~ins:[ chan "in" [ ("a", 8) ] ] ~outs:[] in
  Libdn.Network.connect net ~src:(p_src, "out") ~dst:(p_sink, "in");
  (net, p_src, p_sink)

let test_run_ahead_matches_sequential () =
  let run ?(groups = [||]) scheduler =
    let net, p_src, p_sink = run_ahead_network () in
    Libdn.Network.set_groups net groups;
    with_host_domains 2 (fun () -> Libdn.Scheduler.run ~scheduler net ~cycles:200);
    let get p r = (Libdn.Network.partition net p).pt_engine.Libdn.Engine.get r in
    (get p_src "x", get p_sink "acc", Libdn.Network.token_transfers net)
  in
  let sx, sacc, stok = run seq in
  check_int "sequential moved one token per cycle" 200 stok;
  List.iter
    (fun (what, groups) ->
      let px, pacc, ptok = run ~groups par in
      check_int (what ^ ": source register") sx px;
      check_int (what ^ ": accumulator") sacc pacc;
      check_int (what ^ ": token transfers") stok ptok)
    [ ("spread", [||]); ("fused", [| 0; 0 |]) ]

(* ------------------------------------------------------------------ *)
(* Plan-level equivalence on the partitioned test designs              *)
(* ------------------------------------------------------------------ *)

let soc_plan mode =
  let config =
    {
      Fireaxe.Spec.default_config with
      Fireaxe.Spec.mode;
      Fireaxe.Spec.selection = Fireaxe.Spec.Instances [ [ "tile" ] ];
    }
  in
  Fireaxe.compile ~config (Socgen.Soc.single_core_soc ())

let ring_plan mode =
  (* 8 routers in 4 extracted partitions of 2, plus the tile wrapper:
     5 partitions (>= 4, the bench shape). *)
  let config =
    {
      Fireaxe.Spec.default_config with
      Fireaxe.Spec.mode;
      Fireaxe.Spec.selection =
        Fireaxe.Spec.Noc_routers [ [ 0; 1 ]; [ 2; 3 ]; [ 4; 5 ]; [ 6; 7 ] ];
    }
  in
  Fireaxe.compile ~config (Socgen.Ring_noc.ring_soc ~n_tiles:8 ~period:4 ())

let test_crosscheck_soc_exact () =
  check_units "no mismatching units" []
    (Fireaxe.crosscheck_schedulers ~cycles:200 (soc_plan Fireaxe.Spec.Exact))

let test_crosscheck_soc_fast () =
  check_units "no mismatching units" []
    (Fireaxe.crosscheck_schedulers ~cycles:200 (soc_plan Fireaxe.Spec.Fast))

let test_crosscheck_ring_exact () =
  check_units "no mismatching units" []
    (Fireaxe.crosscheck_schedulers ~cycles:120 (ring_plan Fireaxe.Spec.Exact))

let test_crosscheck_ring_fast () =
  check_units "no mismatching units" []
    (Fireaxe.crosscheck_schedulers ~cycles:120 (ring_plan Fireaxe.Spec.Fast))

let test_inline_ring_matches_sequential () =
  (* One host domain: a single inline worker owns all five partitions. *)
  let plan = ring_plan Fireaxe.Spec.Exact in
  let run scheduler =
    let h = Fireaxe.instantiate ~scheduler plan in
    Fireaxe.Runtime.run h ~cycles:120;
    (Fireaxe.Runtime.save_to_string h, Fireaxe.Runtime.token_transfers h)
  in
  let snap, tokens = run seq in
  let psnap, ptokens = with_host_domains 1 (fun () -> run par) in
  check_string "snapshot" snap psnap;
  check_int "token transfers" tokens ptokens

let test_parallel_ring_matches_monolithic () =
  let circuit = Socgen.Ring_noc.ring_soc ~n_tiles:4 ~period:4 () in
  let mono = Rtlsim.Sim.of_circuit circuit in
  let cycles = 120 in
  for _ = 1 to cycles do
    Rtlsim.Sim.step mono
  done;
  let config =
    {
      FR.Spec.default_config with
      FR.Spec.selection = FR.Spec.Noc_routers [ [ 0; 1 ]; [ 2; 3 ] ];
    }
  in
  let plan = FR.Compile.compile ~config circuit in
  let h = FR.Runtime.instantiate ~scheduler:par plan in
  FR.Runtime.run h ~cycles;
  List.iter
    (fun probe ->
      let u = FR.Runtime.locate h probe in
      check_int probe (Rtlsim.Sim.get mono probe)
        (Rtlsim.Sim.get (FR.Runtime.sim_of h u) probe))
    [ "ttile0$rcvd_r"; "ttile1$rcvd_r"; "ttile2$rcvd_r"; "ttile3$rcvd_r" ]

let test_placement_bit_exact () =
  (* Fusing partitions onto shared domains (2-domain LPT placement) is
     execution-order only: snapshots match the sequential run. *)
  let circuit = Socgen.Ring_noc.ring_soc ~n_tiles:4 ~period:4 () in
  let config =
    {
      FR.Spec.default_config with
      FR.Spec.selection = FR.Spec.Noc_routers [ [ 0 ]; [ 1 ]; [ 2 ]; [ 3 ] ];
    }
  in
  let plan = FR.Compile.compile ~config circuit in
  let reference =
    let h = FR.Runtime.instantiate ~scheduler:seq plan in
    FR.Runtime.run h ~cycles:100;
    FR.Runtime.save_to_string h
  in
  let groups =
    match Platform.Place.groups ~domains:2 ~policy:Platform.Place.Auto plan with
    | Some g -> g
    | None -> Alcotest.fail "expected a fused placement for 5 units on 2 domains"
  in
  let h = FR.Runtime.instantiate ~scheduler:par ~groups plan in
  FR.Runtime.run h ~cycles:100;
  check_string "fused parallel run matches sequential" reference
    (FR.Runtime.save_to_string h)

let test_run_until_cycle_identical () =
  (* The workload-termination cycle is scheduler-independent. *)
  let program = Socgen.Kite_isa.sum_repeat_program ~base:32 ~n:8 ~reps:4 ~dst:60 in
  let data = List.init 8 (fun i -> (32 + i, (i * 3) + 2)) in
  let halt_cycle scheduler =
    let h = Fireaxe.instantiate ~scheduler (soc_plan Fireaxe.Spec.Exact) in
    let mu = Fireaxe.Runtime.locate h "mem$mem" in
    Socgen.Soc.load_program (Fireaxe.Runtime.sim_of h mu) ~mem:"mem$mem" ~data program;
    Fireaxe.Runtime.run_until h ~max_cycles:5_000 (fun h ->
        let u = Fireaxe.Runtime.locate h "tile$core$state" in
        Rtlsim.Sim.get (Fireaxe.Runtime.sim_of h u) "tile$core$state"
        = Socgen.Kite_core.s_halted)
  in
  let s = halt_cycle seq in
  check_bool "workload actually terminates" true (s < 5_000);
  check_int "halt cycle identical" s (halt_cycle par)

(* ------------------------------------------------------------------ *)
(* LPT placement packing                                               *)
(* ------------------------------------------------------------------ *)

let test_pack_balances_and_normalizes () =
  let groups = Libdn.Scheduler.pack ~weights:[| 7; 1; 5; 3; 1; 1 |] ~domains:3 in
  check_int "one slot per unit" 6 (Array.length groups);
  (* Slots are normalized 0..d-1 in first-use order. *)
  check_int "first unit opens slot 0" 0 groups.(0);
  let loads = Array.make 3 0 in
  Array.iteri (fun i s ->
      check_bool "slot in range" true (s >= 0 && s < 3);
      loads.(s) <- loads.(s) + [| 7; 1; 5; 3; 1; 1 |].(i)) groups;
  (* LPT on these weights yields a perfectly balanced 7/6/5 split:
     max bin 7 (the single heaviest unit alone). *)
  check_int "heaviest bin is the single heaviest unit" 7
    (Array.fold_left max 0 loads);
  check_ints "deterministic assignment"
    (Array.to_list groups)
    (Array.to_list (Libdn.Scheduler.pack ~weights:[| 7; 1; 5; 3; 1; 1 |] ~domains:3))

let test_pack_degenerate () =
  check_int "more domains than units: spread"
    3
    (Array.length (Libdn.Scheduler.pack ~weights:[| 2; 2; 2 |] ~domains:5));
  check_ints "one domain: everything fuses" [ 0; 0; 0 ]
    (Array.to_list (Libdn.Scheduler.pack ~weights:[| 4; 1; 9 |] ~domains:1))

(* ------------------------------------------------------------------ *)
(* Bounded token queue                                                 *)
(* ------------------------------------------------------------------ *)

let no_abort () = false
let bq capacity = BQ.create ~capacity ~notif:(Notifier.create ())

let test_bqueue_full () =
  (* A non-blocking push into a full queue raises Full and leaves the
     queue as it was. *)
  let q = bq 2 in
  BQ.push q 1 ~block:false ~abort:no_abort;
  BQ.push q 2 ~block:false ~abort:no_abort;
  check_bool "full push raises Full" true
    (try
       BQ.push q 3 ~block:false ~abort:no_abort;
       false
     with BQ.Full -> true);
  check_ints "contents untouched" [ 1; 2 ] (BQ.to_list q)

let test_bqueue_abort_while_blocked () =
  (* A blocking push against a full queue honors the abort predicate
     instead of waiting forever. *)
  let q = bq 1 in
  BQ.push q 1 ~block:false ~abort:no_abort;
  check_bool "abort trips out of a blocked push" true
    (try
       BQ.push q 2 ~block:true ~abort:(fun () -> true);
       false
     with Libdn.Channel.Aborted -> true);
  check_ints "contents untouched" [ 1 ] (BQ.to_list q)

let test_bqueue_concurrent_fifo () =
  (* A producer domain streams 1,000 tokens through a capacity-8 queue,
     blocking whenever it is full; the consumer drains with the protocol
     [Network.sweep] uses (peek under the notifier lock, drop_unlocked,
     bump).  Strict FIFO, nothing lost, nothing duplicated. *)
  let total = 1_000 in
  let q = bq 8 in
  let producer =
    Domain.spawn (fun () ->
        for i = 0 to total - 1 do
          BQ.push q i ~block:true ~abort:no_abort
        done)
  in
  let n = BQ.notifier q in
  let got = ref [] in
  let n_got = ref 0 in
  while !n_got < total do
    Mutex.lock n.Notifier.n_mu;
    (match BQ.peek_opt_unlocked q with
    | Some v ->
      got := v :: !got;
      incr n_got;
      BQ.drop_unlocked q;
      Notifier.bump n
    | None -> ());
    Mutex.unlock n.Notifier.n_mu;
    Domain.cpu_relax ()
  done;
  Domain.join producer;
  check_bool "all tokens in order" true (List.rev !got = List.init total Fun.id);
  check_int "queue drained" 0 (BQ.length q)

(* ------------------------------------------------------------------ *)
(* Naming                                                              *)
(* ------------------------------------------------------------------ *)

let test_scheduler_names () =
  List.iter
    (fun (s, expect) ->
      match Libdn.Scheduler.of_string s with
      | Ok t -> check_bool s true (t = expect)
      | Error m -> Alcotest.fail m)
    [ ("seq", seq); ("sequential", seq); ("par", par); ("parallel", par) ];
  check_bool "bad name rejected" true
    (match Libdn.Scheduler.of_string "bogus" with Error _ -> true | Ok _ -> false);
  check_bool "names round-trip" true
    (List.for_all
       (fun t -> Libdn.Scheduler.of_string (Libdn.Scheduler.name t) = Ok t)
       [ seq; par ])

let suite =
  [
    ( "libdn.scheduler",
      [
        Alcotest.test_case "parallel matches monolithic (exact)" `Quick
          test_parallel_matches_monolithic_exact;
        Alcotest.test_case "parallel matches sequential (fast/seeded)" `Quick
          test_parallel_matches_sequential_seeded;
        Alcotest.test_case "deadlock detected under both" `Quick
          test_deadlock_detected_under_both;
        Alcotest.test_case "run-ahead source matches sequential (spread, fused)"
          `Quick test_run_ahead_matches_sequential;
        Alcotest.test_case "crosscheck soc exact" `Quick test_crosscheck_soc_exact;
        Alcotest.test_case "crosscheck soc fast" `Quick test_crosscheck_soc_fast;
        Alcotest.test_case "crosscheck ring 5-way exact" `Quick test_crosscheck_ring_exact;
        Alcotest.test_case "crosscheck ring 5-way fast" `Quick test_crosscheck_ring_fast;
        Alcotest.test_case "inline ring 5-way matches sequential" `Quick
          test_inline_ring_matches_sequential;
        Alcotest.test_case "parallel ring run matches monolithic" `Quick
          test_parallel_ring_matches_monolithic;
        Alcotest.test_case "fused placement matches sequential" `Quick
          test_placement_bit_exact;
        Alcotest.test_case "run_until cycle-identical" `Quick test_run_until_cycle_identical;
        Alcotest.test_case "pack: LPT balances and normalizes slots" `Quick
          test_pack_balances_and_normalizes;
        Alcotest.test_case "pack: degenerate domain counts" `Quick
          test_pack_degenerate;
        Alcotest.test_case "scheduler names" `Quick test_scheduler_names;
      ] );
    ( "libdn.bqueue",
      [
        Alcotest.test_case "full non-blocking push raises Full" `Quick
          test_bqueue_full;
        Alcotest.test_case "blocked push honors abort" `Quick
          test_bqueue_abort_while_blocked;
        Alcotest.test_case "concurrent producer stays FIFO" `Quick
          test_bqueue_concurrent_fifo;
      ] );
  ]
