(* Tests for the compact indexed binary waveform store
   ([fireaxe-wave-1]): the varint/delta codec, property-based
   write→read round trips over random traces, index-seek [values_at]
   agreement with a linear-scan reference, lossless [to_vcd] (byte
   identical to [Capture.probe_trace] on every example design, both
   monolithic and partitioned captures), the store/VCD semantic diffs,
   and corruption detection. *)

module FR = Fireripper
module D = Debug
module W = Debug.Wavestore

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let designs_dir =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    "examples/designs"

let with_tmpdir f =
  let dir = Filename.temp_file "fireaxe_wave" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let rec rm path =
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path
  in
  Fun.protect
    ~finally:(fun () -> try rm dir with Sys_error _ | Unix.Unix_error _ -> ())
    (fun () -> f dir)

(* ------------------------------------------------------------------ *)
(* Codec                                                               *)
(* ------------------------------------------------------------------ *)

let test_varint_roundtrip () =
  let round v =
    let b = Buffer.create 16 in
    W.Codec.add_varint b v;
    let s = Buffer.contents b in
    let pos = ref 0 in
    let got = W.Codec.read_varint s pos in
    check_bool (Printf.sprintf "varint %d" v) true (got = v && !pos = String.length s)
  in
  List.iter round
    [ 0; 1; 127; 128; 300; 16384; 0x7fffffff; max_int; min_int; -1; -12345 ];
  (* A truncated varint must be rejected, not read past the end. *)
  check_bool "truncated varint raises" true
    (try
       ignore (W.Codec.read_varint "\xff\xff" (ref 0));
       false
     with W.Corrupt _ -> true)

let test_delta_roundtrip_qcheck () =
  let prop (cycle0, raw) =
    let cycle = abs cycle0 in
    (* distinct ascending signal indices, values as given *)
    let changes = List.mapi (fun i v -> (i, abs v)) raw in
    let s = W.Codec.encode_delta ~cycle ~changes in
    W.Codec.decode_delta s = (cycle, changes)
  in
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:100 ~name:"delta record round-trip"
       QCheck.(pair small_int (small_list int))
       prop)

(* ------------------------------------------------------------------ *)
(* Random traces: write → read round trip                              *)
(* ------------------------------------------------------------------ *)

(* Massages a qcheck seed into a well-formed trace: [nsig] signals,
   strictly increasing cycles, each row holding the previous value for
   signals the seed row does not cover (so quiet signals and fully
   quiet samples both occur). *)
let trace_of_seed (nsig0, rows) =
  let nsig = 1 + (abs nsig0 mod 5) in
  let prev = Array.make nsig 0 in
  let cycle = ref 0 in
  let trace =
    List.map
      (fun (gap, vals) ->
        cycle := !cycle + 1 + (abs gap mod 4);
        List.iteri (fun i v -> if i < nsig then prev.(i) <- abs v mod 1024) vals;
        (!cycle, Array.copy prev))
      rows
  in
  (nsig, trace)

let signals_of nsig = List.init nsig (fun i -> (Printf.sprintf "s%d" i, 16))

let store_of ?keyframe_every nsig trace =
  let w = W.Writer.create ?keyframe_every ~signals:(signals_of nsig) () in
  List.iter (fun (c, vals) -> W.Writer.sample w ~cycle:c vals) trace;
  w

(* The semantic ground truth: per-signal change lists where the first
   sample opens every list and later samples contribute only actual
   value changes (quiet samples contribute nothing — the store omits
   their records entirely). *)
let model_changes nsig trace =
  let out = Array.make nsig [] in
  let prev = Array.make nsig min_int in
  let first = ref true in
  List.iter
    (fun (c, vals) ->
      Array.iteri
        (fun i v ->
          if !first || v <> prev.(i) then out.(i) <- (c, v) :: out.(i);
          prev.(i) <- v)
        vals;
      first := false)
    trace;
  Array.map List.rev out

let test_roundtrip_qcheck () =
  let gen =
    QCheck.(
      pair small_int (list_of_size (QCheck.Gen.int_range 0 80) (pair small_int (small_list int))))
  in
  let prop seed =
    let nsig, trace = trace_of_seed seed in
    let w = store_of ~keyframe_every:8 nsig trace in
    let r = W.Reader.of_string (W.Writer.contents w) in
    let ok_meta =
      W.Reader.sample_count r = List.length trace
      && W.Reader.signals r = Array.of_list (signals_of nsig)
      && W.Reader.first_cycle r
         = (match trace with [] -> None | (c, _) :: _ -> Some c)
      && W.Reader.last_cycle r
         = (match List.rev trace with [] -> None | (c, _) :: _ -> Some c)
    in
    ok_meta && W.Reader.change_lists r = model_changes nsig trace
  in
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:60 ~name:"store round-trip over random traces" gen prop)

let test_slice_self_contained () =
  let gen =
    QCheck.(
      pair small_int (list_of_size (QCheck.Gen.int_range 1 60) (pair small_int (small_list int))))
  in
  let prop seed =
    let nsig, trace = trace_of_seed seed in
    let w = store_of ~keyframe_every:8 nsig trace in
    let r = W.Reader.of_string (W.Writer.contents w) in
    let last = match W.Reader.last_cycle r with Some c -> c | None -> 0 in
    let lo = last / 3 and hi = 2 * last / 3 in
    let sl = W.Reader.slice r ~lo ~hi in
    match sl with
    | [] -> true
    | (c0, ev0) :: rest ->
      (* first returned sample is a full snapshot, the rest replay to
         the reader's own values_at answer at [hi] *)
      let vals = Array.make nsig 0 in
      List.iter (fun (i, v) -> vals.(i) <- v) ev0;
      List.iter (fun (_, ev) -> List.iter (fun (i, v) -> vals.(i) <- v) ev) rest;
      let in_range = List.for_all (fun (c, _) -> c >= lo && c <= hi) ((c0, ev0) :: rest) in
      let full = List.length ev0 = nsig in
      in_range && full
      && (match W.Reader.values_at r ~cycle:hi with
         | Some want -> vals = want
         | None -> false)
  in
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:60 ~name:"slice is self-contained and in range" gen prop)

(* ------------------------------------------------------------------ *)
(* Index seek vs linear scan                                           *)
(* ------------------------------------------------------------------ *)

(* A long deterministic trace with a small keyframe stride, queried at
   every cycle in range: the seek path (binary search over the cycle
   index + bounded forward scan) must agree with a plain linear
   reconstruction of the trace. *)
let test_seek_matches_linear_scan () =
  let nsig = 3 in
  let state = ref 7 in
  let rand bound =
    state := ((!state * 1103515245) + 12345) land 0x3fffffff;
    !state mod bound
  in
  let cycle = ref 0 in
  let vals = Array.make nsig 0 in
  let trace =
    List.init 300 (fun _ ->
        cycle := !cycle + 1 + rand 5;
        (* sometimes change nothing, sometimes one or two signals *)
        (match rand 4 with
        | 0 -> ()
        | k ->
          for _ = 1 to k do
            vals.(rand nsig) <- rand 1024
          done);
        (!cycle, Array.copy vals))
  in
  let w = store_of ~keyframe_every:16 nsig trace in
  let r = W.Reader.of_string (W.Writer.contents w) in
  check_bool "index has keyframes" true (W.Reader.keyframe_count r > 10);
  (* linear reference: last sample with cycle <= target *)
  let linear target =
    List.fold_left
      (fun acc (c, v) -> if c <= target then Some v else acc)
      None trace
  in
  let last = match W.Reader.last_cycle r with Some c -> c | None -> 0 in
  for target = -1 to last + 2 do
    let want = linear target in
    let got = W.Reader.values_at r ~cycle:target in
    if got <> want then
      Alcotest.failf "values_at %d: seek and linear scan disagree" target
  done;
  (* the single-signal accessor follows the same contract *)
  check_bool "value_at before first sample" true
    (W.Reader.value_at r ~cycle:(-1) "s0" = None);
  check_bool "value_at unknown signal" true
    (W.Reader.value_at r ~cycle:last "nope" = None)

(* ------------------------------------------------------------------ *)
(* to_vcd equivalence on the example designs                           *)
(* ------------------------------------------------------------------ *)

(* Probe registers per example design (same sets the debug tests use;
   each crosses the first-instance partition cut). *)
let example_probes = function
  | "counter.fir" -> [ "a$acc"; "b$acc"; "seed" ]
  | "pingpong.fir" -> [ "a$hits"; "a$v"; "b$have" ]
  | "blinker.fir" -> [ "b$c" ]
  | f -> failwith ("no probes for " ^ f)

let example_designs () =
  Sys.readdir designs_dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".fir")
  |> List.sort compare

let test_to_vcd_matches_probe_trace () =
  List.iter
    (fun file ->
      let circuit = Firrtl.Text.load ~path:(Filename.concat designs_dir file) in
      let sim = Rtlsim.Sim.of_circuit circuit in
      let cap = D.Capture.of_sim sim ~probes:(example_probes file) in
      for c = 1 to 60 do
        Rtlsim.Sim.step sim;
        D.Capture.sample cap ~cycle:c
      done;
      let r = W.Reader.of_string (D.Capture.wave_contents cap) in
      check_string (file ^ ": to_vcd reproduces probe_trace")
        (D.Capture.probe_trace cap) (W.Reader.to_vcd r);
      check_bool (file ^ ": diff_vcd certifies the match") true
        (W.diff_vcd r (D.Capture.probe_trace cap) = []))
    (example_designs ())

(* The same equivalence through a partitioned capture: the binary
   store written by [--wave-out] on a partitioned run converts to the
   exact VCD the [--vcd] path would have written. *)
let test_to_vcd_matches_partitioned_capture () =
  let file = "counter.fir" in
  let circuit = Firrtl.Text.load ~path:(Filename.concat designs_dir file) in
  let first_inst =
    match Firrtl.Hierarchy.instances (Firrtl.Ast.main_module circuit) with
    | (name, _) :: _ -> name
    | [] -> Alcotest.fail "no instances"
  in
  let config =
    {
      FR.Spec.default_config with
      FR.Spec.selection = FR.Spec.Instances [ [ first_inst ] ];
    }
  in
  let handle = FR.Runtime.instantiate (FR.Compile.compile ~config circuit) in
  let cap = D.Capture.of_handle handle ~probes:(example_probes file) in
  for c = 1 to 60 do
    FR.Runtime.run handle ~cycles:c;
    D.Capture.sample cap ~cycle:c
  done;
  let r = W.Reader.of_string (D.Capture.wave_contents cap) in
  check_string "partitioned to_vcd reproduces probe_trace" (D.Capture.probe_trace cap)
    (W.Reader.to_vcd r);
  (* ...and the multi-scope channel VCD still matches semantically:
     probe change lists agree, channel tracks are ignored. *)
  check_bool "diff_vcd vs the full channel VCD" true
    (W.diff_vcd r (D.Capture.contents cap) = [])

(* ------------------------------------------------------------------ *)
(* diffs, file round trip, corruption                                  *)
(* ------------------------------------------------------------------ *)

let test_diff_stores () =
  let nsig = 2 in
  let trace = List.init 40 (fun i -> (i + 1, [| i / 3; (i * 5) mod 17 |])) in
  let a = store_of ~keyframe_every:4 nsig trace in
  let b = store_of ~keyframe_every:64 nsig trace in
  let ra = W.Reader.of_string (W.Writer.contents a) in
  let rb = W.Reader.of_string (W.Writer.contents b) in
  (* keyframe stride is an encoding choice, not a semantic one *)
  check_bool "same trace, different stride: match" true (W.diff_stores ra rb = []);
  let c =
    store_of ~keyframe_every:4 nsig
      (List.map (fun (cy, v) -> if cy = 23 then (cy, [| 999; v.(1) |]) else (cy, v)) trace)
  in
  let rc = W.Reader.of_string (W.Writer.contents c) in
  check_bool "injected divergence detected" true (W.diff_stores ra rc <> [])

let test_save_load_and_corruption () =
  with_tmpdir @@ fun dir ->
  let nsig, trace = trace_of_seed (2, List.init 30 (fun i -> (i, [ i * 7; i * 11 ]))) in
  let w = store_of nsig trace in
  let path = Filename.concat dir "t.bwave" in
  W.Writer.save w ~path;
  let r = W.Reader.load path in
  check_bool "file round trip" true
    (W.Reader.change_lists r = model_changes nsig trace);
  let data = W.Writer.contents w in
  let rejects s =
    try
      ignore (W.Reader.of_string s);
      false
    with W.Corrupt _ -> true
  in
  check_bool "truncated store rejected" true
    (rejects (String.sub data 0 (String.length data - 5)));
  check_bool "bad magic rejected" true (rejects ("x" ^ String.sub data 1 (String.length data - 1)));
  check_int "writer stays usable after contents" (List.length trace)
    (W.Writer.sample_count w)

(* Byte mutations of a valid 200-sample store: [of_string] and every
   query on what it accepts return or raise [Corrupt], never anything
   else (a mutated cycle must not reach [Vcd.Writer.time]). *)
let prop_mutated_store_queries =
  let data =
    let w = W.Writer.create ~keyframe_every:16 ~signals:[ ("a", 8); ("b", 16); ("c", 1) ] () in
    let rng = Random.State.make [| 7 |] in
    let cycle = ref 0 in
    for _ = 1 to 200 do
      cycle := !cycle + 1 + Random.State.int rng 3;
      W.Writer.sample w ~cycle:!cycle
        [| Random.State.int rng 256; Random.State.int rng 65536; Random.State.int rng 2 |]
    done;
    W.Writer.contents w
  in
  let n = String.length data in
  let gen =
    QCheck.(
      list_of_size (Gen.int_range 1 3) (pair (int_bound (n - 1)) (int_bound 255)))
  in
  QCheck.Test.make ~name:"mutated store decodes or raises Corrupt" ~count:1000 gen
    (fun muts ->
      let b = Bytes.of_string data in
      List.iter (fun (i, c) -> Bytes.set b i (Char.chr c)) muts;
      match
        let r = W.Reader.of_string (Bytes.to_string b) in
        ignore (W.Reader.to_vcd r);
        ignore (W.Reader.values_at r ~cycle:200);
        ignore (W.Reader.slice r ~lo:100 ~hi:300)
      with
      | () -> true
      | exception W.Corrupt _ -> true)

let suite =
  [
    ( "wavestore",
      [
        Alcotest.test_case "varint round-trip and truncation" `Quick test_varint_roundtrip;
        Alcotest.test_case "delta record round-trip (qcheck)" `Quick test_delta_roundtrip_qcheck;
        Alcotest.test_case "store round-trip (qcheck)" `Quick test_roundtrip_qcheck;
        Alcotest.test_case "slice self-contained (qcheck)" `Quick test_slice_self_contained;
        Alcotest.test_case "index seek matches linear scan" `Quick test_seek_matches_linear_scan;
        Alcotest.test_case "to_vcd byte-identical to probe_trace" `Quick
          test_to_vcd_matches_probe_trace;
        Alcotest.test_case "to_vcd matches a partitioned capture" `Quick
          test_to_vcd_matches_partitioned_capture;
        Alcotest.test_case "diff_stores: stride-independent, divergence found" `Quick
          test_diff_stores;
        Alcotest.test_case "save/load round trip and corruption" `Quick
          test_save_load_and_corruption;
        QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 1 |])
          prop_mutated_store_queries;
      ] );
  ]
