(* End-to-end benchmark driver.

     e2e.exe run [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--out PATH]
     e2e.exe trace --workload W [--seed N] [--seconds S]
     e2e.exe compare A.json B.json [--benchmark BENCHMARK.json]
     e2e.exe selftest [--benchmark BENCHMARK.json]

   [run --workload W] measures one workload in this process and prints
   every metric, ending with one JSON line: the end-to-end metrics, or
   with [--trace 1] the per-layer ones.  [run] without a workload runs
   each workload in a child process of its own (so peak memory is per
   workload) and writes a report that [compare] reads. *)

module J = Telemetry.Json
module W = Workloads

let work_dir = "_e2e"

type better = Lower | Higher

type metric = {
  m_name : string;
  m_unit : string;
  m_value : float;
  m_summary : Stats.summary option;  (** over repeats or requests *)
  m_beyond : int option;  (** samples above a percentile *)
}

let metric ?summary ?beyond m_name m_unit m_value =
  { m_name; m_unit; m_value; m_summary = summary; m_beyond = beyond }

let of_summary name unit xs =
  let s = Stats.summary xs in
  metric ~summary:s name unit s.Stats.median

(* VmHWM: the peak resident set of this process, in MB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
          float_of_int kb /. 1024.)
    | _ -> find ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) find

let e2e_metrics (samples : W.sample list) ~latencies =
  let per f = List.map f samples in
  let reqs = Stats.kept latencies in
  [
    of_summary "sim_rate_khz" "kHz"
      (per (fun s -> float_of_int s.W.cycles /. s.W.run_s /. 1000.));
    of_summary "setup_s" "s" (per (fun s -> s.W.setup_s));
    of_summary "time_to_result_s" "s" (per (fun s -> s.W.result_s));
    of_summary "req_p50_ms" "ms" reqs;
    of_summary "req_per_s" "1/s" (per (fun s -> float_of_int s.W.requests /. s.W.run_s));
    metric "peak_rss_mb" "MB" (peak_rss_mb ());
  ]

(* The per-layer metrics a traced run reports, with their units.  Every
   timed layer is entered by every workload; the service counters read 0
   off the service. *)
let layer_units =
  [
    ("firrtl.text.parse_s", "s");
    ("firrtl.flatten_s", "s");
    ("firrtl.opt_s", "s");
    ("fireripper.compile_s", "s");
    ("rtlsim.sim_create_s", "s");
    ("fireripper.runtime.instantiate_s", "s");
    ("fireripper.runtime.run_calls", "count");
    ("rtlsim.eval_s", "s");
    ("rtlsim.cone_eval_s", "s");
    ("rtlsim.retired_instrs", "count");
    ("libdn.exchange_s", "s");
    ("libdn.tokens", "count");
    ("libdn.sweep_other_s", "s");
    ("debug.capture.sample_s", "s");
    ("debug.capture.render_s", "s");
    ("service.cache_hits", "count");
    ("service.packed", "count");
  ]

(* Per-layer metrics of a traced run, which alternates traced repeats
   with untraced ones: the layers from the former, the request tail and
   the tracing overhead against the latter. *)
let layer_metrics ~traced ~untraced ~latencies =
  let value (s : W.sample) name =
    match List.assoc_opt name s.W.layers with
    | Some v -> v
    | None -> Option.value ~default:0. (List.assoc_opt name s.W.detail)
  in
  let sum f = List.fold_left (fun acc s -> acc +. f s) 0. traced in
  let result xs = Stats.median (List.map (fun s -> s.W.result_s) xs) in
  List.map (fun (name, unit) -> of_summary name unit (List.map (fun s -> value s name) traced)) layer_units
  @ [
      (let p99, beyond = Stats.percentile (Stats.kept latencies) 99. in
       metric ~summary:(Stats.summary (Stats.kept latencies)) ~beyond "req_p99_ms" "ms" p99);
      of_summary "debug.capture.wave_bytes" "bytes"
        (List.map (fun s -> float_of_int s.W.wave_bytes) traced);
      metric "trace.attributed_frac" "fraction"
        (sum (fun s -> value s "trace.attributed_s") /. sum (fun s -> value s "trace.wall_s"));
      metric "trace.overhead_pct" "%" (100. *. ((result traced /. result untraced) -. 1.));
    ]

(* Workload-specific numbers (the service's per-verb median latencies
   and server counters), over repeats; reported, not in BENCHMARK.json. *)
let detail_metrics (samples : W.sample list) =
  let names = List.sort_uniq compare (List.concat_map (fun s -> List.map fst s.W.detail) samples) in
  List.map
    (fun name ->
      let unit = if String.ends_with ~suffix:"_ms" name then "ms" else "count" in
      of_summary name unit (List.filter_map (fun s -> List.assoc_opt name s.W.detail) samples))
    names

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

let print_metric m =
  match m.m_summary with
  | Some s ->
    Printf.printf "  %-34s %14.6g %-8s q1 %-12.6g q3 %-12.6g n %d%s\n" m.m_name m.m_value m.m_unit
      s.Stats.q1 s.Stats.q3 s.Stats.n
      (match m.m_beyond with Some b -> Printf.sprintf " (%d beyond)" b | None -> "")
  | None -> Printf.printf "  %-34s %14.6g %-8s\n" m.m_name m.m_value m.m_unit

(* Every digit of a measured value: the result line is compared
   numerically run against run. *)
let number f = if Float.is_finite f then Printf.sprintf "%.17g" f else "null"

let result_line ~attempted ~failed metrics =
  let ms =
    List.map
      (fun m -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.m_name (number m.m_value) m.m_unit)
      metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (failed = 0) attempted failed (String.concat ", " ms)

let metric_json m =
  let summary =
    match m.m_summary with
    | Some s ->
      [
        ("median", J.Float s.Stats.median);
        ("q1", J.Float s.Stats.q1);
        ("q3", J.Float s.Stats.q3);
        ("n", J.Int s.Stats.n);
      ]
    | None -> []
  in
  let beyond = match m.m_beyond with Some b -> [ ("beyond", J.Int b) ] | None -> [] in
  (m.m_name, J.Obj ([ ("value", J.Float m.m_value); ("unit", J.String m.m_unit) ] @ summary @ beyond))

let write_json path doc =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      output_string oc (J.to_string doc);
      output_char oc '\n')

let read_json path =
  let ic = open_in_bin path in
  let text = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> really_input_string ic (in_channel_length ic)) in
  match J.parse text with Ok j -> j | Error e -> failwith (Printf.sprintf "%s: %s" path e)

(* Runs [prog args] with stderr discarded; its trimmed stdout, if it
   exits 0. *)
let command_output ?(env = Unix.environment ()) prog args =
  try
    let rd, wr = Unix.pipe ~cloexec:true () in
    let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY; Unix.O_CLOEXEC ] 0 in
    let pid =
      Fun.protect
        ~finally:(fun () -> Unix.close wr; Unix.close null)
        (fun () -> Unix.create_process_env prog (Array.of_list (prog :: args)) env Unix.stdin wr null)
    in
    let ic = Unix.in_channel_of_descr rd in
    let out = In_channel.input_all ic in
    close_in ic;
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 -> Some (String.trim out)
    | _ -> None
  with Unix.Unix_error _ -> None

(* Host fingerprint: reports from different hosts do not compare.  The
   commit is recorded beside it, from the working directory's own
   repository only (git may not look above it). *)
let fingerprint () =
  let opt = Option.value ~default:"unknown" in
  let commit () =
    let ceiling = "GIT_CEILING_DIRECTORIES=" ^ Filename.dirname (Sys.getcwd ()) in
    command_output ~env:(Array.append [| ceiling |] (Unix.environment ())) "git"
      [ "rev-parse"; "HEAD" ]
  in
  [
    ("nproc", J.String (opt (command_output "nproc" [])));
    ("recommended_domain_count", J.Int (Domain.recommended_domain_count ()));
    ("ocaml", J.String Sys.ocaml_version);
    ("commit", J.String (opt (if Sys.file_exists ".git" then commit () else None)));
  ]

let host_keys = [ "nproc"; "recommended_domain_count"; "ocaml" ]

(* ------------------------------------------------------------------ *)
(* run                                                                 *)
(* ------------------------------------------------------------------ *)

type opts = {
  workload : string option;
  seed : int;
  seconds : float;
  trace : bool;
  tiny : bool;
  out : string option;
  benchmark : string;
  files : string list;
}

let find_workload name =
  match List.find_opt (fun w -> w.W.name = name) W.all with
  | Some w -> w
  | None ->
    Printf.eprintf "unknown workload %S (one of: %s)\n" name
      (String.concat ", " (List.map (fun w -> w.W.name) W.all));
    exit 2

let ensure_dir d = if not (Sys.file_exists d) then Sys.mkdir d 0o755

let workload_file name = Filename.concat work_dir (name ^ ".json")

(* Measures one workload in this process.  A traced run alternates
   untraced and traced repeats, so the tracing overhead is measured on
   the same inputs. *)
let run_workload o name =
  let w = find_workload name in
  ensure_dir work_dir;
  let latencies = Stats.reservoir 100_000 and discard = Stats.reservoir 1 in
  let session = w.W.prepare { W.seed = o.seed; tiny = o.tiny; dir = work_dir } in
  let samples =
    Fun.protect ~finally:session.W.close (fun () ->
        Stats.repeats ~seconds:o.seconds ~min_repeats:(if o.trace then 2 else 3) (fun ~index ->
            let traced = o.trace && index mod 2 = 1 in
            session.W.repeat ~traced ~latencies:(if index < 0 || traced then discard else latencies)))
  in
  let traced, untraced = List.partition (fun s -> s.W.layers <> []) samples in
  let metrics =
    if o.trace then begin
      Trace.write_chrome (Trace.last ()) ~path:(Filename.concat work_dir ("trace-" ^ name ^ ".json"));
      layer_metrics ~traced ~untraced ~latencies
    end
    else e2e_metrics samples ~latencies
  in
  let detail =
    List.filter (fun d -> not (List.exists (fun m -> m.m_name = d.m_name) metrics)) (detail_metrics samples)
  in
  let attempted = List.fold_left (fun acc s -> acc + s.W.attempted) 0 samples in
  let failed = List.fold_left (fun acc s -> acc + s.W.failed) 0 samples in
  Printf.printf "%s (seed %d, %d repeats, %s)\n" name o.seed (List.length samples)
    (if o.trace then "traced" else "untraced");
  List.iter print_metric (metrics @ detail);
  Printf.printf "  %-34s %14.6g (%d of %d)\n" "failed_frac"
    (float_of_int failed /. float_of_int attempted)
    failed attempted;
  write_json (workload_file name)
    (J.Obj
       [
         ("name", J.String name);
         ("fingerprint", J.Obj (fingerprint ()));
         ("seed", J.Int o.seed);
         ("trace", J.Bool o.trace);
         ("repeats", J.Int (List.length samples));
         ("attempted", J.Int attempted);
         ("failed", J.Int failed);
         ("failed_frac", J.Float (float_of_int failed /. float_of_int attempted));
         ("metrics", J.Obj (List.map metric_json metrics));
         ("detail", J.Obj (List.map metric_json detail));
       ]);
  print_endline (result_line ~attempted ~failed metrics)

(* One child process per workload; its last stdout line is its result. *)
let run_child o name =
  let args =
    [ "run"; "--workload"; name; "--seed"; string_of_int o.seed; "--seconds"; Printf.sprintf "%g" o.seconds;
      "--trace"; (if o.trace then "1" else "0") ]
    @ if o.tiny then [ "--tiny" ] else []
  in
  if Sys.file_exists (workload_file name) then Sys.remove (workload_file name);
  let ic = Unix.open_process_args_in Sys.executable_name (Array.of_list (Sys.executable_name :: args)) in
  let last = ref "" in
  (try
     while true do
       let line = input_line ic in
       print_endline line;
       last := line
     done
   with End_of_file -> ());
  let ok = Unix.close_process_in ic = Unix.WEXITED 0 in
  let correct =
    match J.parse !last with
    | Ok j -> J.member "correct" j = Some (J.Bool true)
    | Error _ -> false
  in
  ok && correct

let run_all o =
  ensure_dir work_dir;
  let results = List.map (fun w -> (w.W.name, run_child o w.W.name)) W.all in
  let out = Option.value o.out ~default:(Filename.concat work_dir "report.json") in
  write_json out
    (J.Obj
       [
         ("schema", J.String "fireaxe-e2e-1");
         ("fingerprint", J.Obj (fingerprint ()));
         ("seed", J.Int o.seed);
         ("seconds", J.Float o.seconds);
         ("trace", J.Bool o.trace);
         ( "workloads",
           J.List
             (List.filter_map
                (fun (name, _) ->
                  if Sys.file_exists (workload_file name) then Some (read_json (workload_file name)) else None)
                results) );
       ]);
  Printf.printf "wrote %s\n" out;
  if not (List.for_all snd results) then begin
    List.iter (fun (n, ok) -> if not ok then Printf.printf "FAILED: %s\n" n) results;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* compare                                                             *)
(* ------------------------------------------------------------------ *)

let member_exn path k j =
  match J.member k j with Some v -> v | None -> failwith (Printf.sprintf "%s: no %S" path k)

type bound = { b_name : string; b_better : better; b_bound : float }

let bounds benchmark =
  let doc = read_json benchmark in
  let field k j = J.member k j |> Fun.flip Option.bind J.to_str |> Option.value ~default:"" in
  Option.value ~default:[] (Option.bind (J.member "end_to_end" doc) J.to_list)
  |> List.map (fun m ->
         {
           b_name = field "name" m;
           b_better = (if field "better" m = "higher" then Higher else Lower);
           b_bound = Option.value ~default:0. (Option.bind (J.member "bound" m) J.to_float);
         })

(* Medians of B against A: a metric regresses when B is worse than A by
   more than its bound, as a share of A. *)
let compare_reports o a_path b_path =
  let a = read_json a_path and b = read_json b_path in
  let fp path j k = J.member k (member_exn path "fingerprint" j) in
  let differ = List.filter (fun k -> fp a_path a k <> fp b_path b k) host_keys in
  if differ <> [] then begin
    Printf.printf "refusing to compare: host fingerprints differ in %s\n" (String.concat ", " differ);
    exit 2
  end;
  let workloads path j =
    Option.value ~default:[] (J.to_list (member_exn path "workloads" j))
    |> List.map (fun w -> (Option.value ~default:"" (Option.bind (J.member "name" w) J.to_str), w))
  in
  let median path w name =
    match Option.bind (Option.bind (J.member "metrics" w) (J.member name)) (J.member "value") with
    | Some v -> Option.value ~default:nan (J.to_float v)
    | None -> failwith (Printf.sprintf "%s: no metric %s" path name)
  in
  let regressions = ref 0 in
  List.iter
    (fun (name, wa) ->
      match List.assoc_opt name (workloads b_path b) with
      | None -> failwith (Printf.sprintf "%s: no workload %s" b_path name)
      | Some wb ->
        Printf.printf "%s\n" name;
        List.iter
          (fun bd ->
            let va = median a_path wa bd.b_name and vb = median b_path wb bd.b_name in
            let worse = (match bd.b_better with Lower -> vb -. va | Higher -> va -. vb) /. va in
            let bad = worse > bd.b_bound in
            if bad then incr regressions;
            Printf.printf "  %-20s %14.6g -> %-14.6g %+7.2f%% worse (bound %.0f%%)%s\n" bd.b_name va vb
              (100. *. worse) (100. *. bd.b_bound)
              (if bad then "  REGRESSION" else ""))
          (bounds o.benchmark))
    (workloads a_path a);
  if !regressions > 0 then begin
    Printf.printf "%d regression(s)\n" !regressions;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* selftest                                                            *)
(* ------------------------------------------------------------------ *)

let expect what ok =
  if not ok then begin
    Printf.printf "selftest FAILED: %s\n" what;
    exit 1
  end

let close a b = Float.abs (a -. b) < 1e-9

let test_stats () =
  let range n = List.init n (fun i -> float_of_int (i + 1)) in
  let s4 = Stats.summary (range 4) and s10 = Stats.summary (range 10) in
  (* Python: statistics.quantiles([1..4], n=4) = [1.25, 2.5, 3.75]. *)
  expect "quartiles of 1..4" (close s4.Stats.q1 1.25 && close s4.Stats.median 2.5 && close s4.Stats.q3 3.75);
  expect "quartiles of 1..10" (close s10.Stats.q1 2.75 && close s10.Stats.median 5.5 && close s10.Stats.q3 8.25);
  expect "median of one" (close (Stats.median [ 7. ]) 7.);
  expect "median ignores order" (close (Stats.median [ 3.; 1.; 2. ]) 2.);
  expect "p99 of 1..1000" (Stats.percentile (range 1000) 99. = (990., 10));
  expect "p99 of 1..100" (Stats.percentile (range 100) 99. = (99., 1));
  expect "p50 of ties" (Stats.percentile [ 5.; 5.; 5. ] 50. = (5., 0))

(* Every workload once at test size, untraced then traced.  Each report
   must carry exactly the metrics BENCHMARK.json names, with no
   failures, for exactly the workloads it names. *)
let test_workloads o =
  let bench = read_json o.benchmark in
  let names key =
    Option.value ~default:[] (Option.bind (J.member key bench) J.to_list)
    |> List.filter_map (fun m -> Option.bind (J.member "name" m) J.to_str)
    |> List.sort compare
  in
  expect "BENCHMARK.json names every workload"
    (names "workloads" = List.sort compare (List.map (fun w -> w.W.name) W.all));
  ensure_dir work_dir;
  List.iter
    (fun (trace, key) ->
      let out = Filename.concat work_dir ("selftest-" ^ key ^ ".json") in
      let log = Unix.openfile (Filename.concat work_dir ("selftest-" ^ key ^ ".log"))
          [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644 in
      let args = [ "run"; "--tiny"; "--seconds"; "0"; "--trace"; (if trace then "1" else "0"); "--out"; out ] in
      let pid = Unix.create_process Sys.executable_name (Array.of_list (Sys.executable_name :: args)) Unix.stdin log Unix.stderr in
      let status = snd (Unix.waitpid [] pid) in
      Unix.close log;
      expect ("tiny run " ^ key ^ " (see its .log)") (status = Unix.WEXITED 0);
      let workloads = Option.value ~default:[] (Option.bind (J.member "workloads" (read_json out)) J.to_list) in
      expect ("every workload in " ^ key) (List.length workloads = List.length W.all);
      List.iter
        (fun w ->
          let name = Option.value ~default:"?" (Option.bind (J.member "name" w) J.to_str) in
          expect (name ^ " failed_frac = 0") (J.member "failed" w = Some (J.Int 0));
          let reported =
            match J.member "metrics" w with
            | Some (J.Obj ms) -> List.sort compare (List.map fst ms)
            | _ -> []
          in
          expect (Printf.sprintf "%s reports the %s metrics" name key) (reported = names key))
        workloads)
    [ (false, "end_to_end"); (true, "per_layer") ];
  print_endline "selftest ok"

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let usage =
  "usage: e2e.exe run [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--out PATH]\n\
  \       e2e.exe trace --workload W [--seed N] [--seconds S]\n\
  \       e2e.exe compare A.json B.json [--benchmark BENCHMARK.json]\n\
  \       e2e.exe selftest [--benchmark BENCHMARK.json]"

let parse args =
  let o =
    ref
      {
        workload = None;
        seed = 1;
        seconds = 10.;
        trace = false;
        tiny = false;
        out = None;
        benchmark = "BENCHMARK.json";
        files = [];
      }
  in
  let bad fmt = Printf.ksprintf (fun m -> prerr_endline (m ^ "\n" ^ usage); exit 2) fmt in
  let int flag v = match int_of_string_opt v with Some n -> n | None -> bad "%s: not an integer: %s" flag v in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest -> o := { !o with workload = Some v }; go rest
    | "--seed" :: v :: rest -> o := { !o with seed = int "--seed" v }; go rest
    | "--seconds" :: v :: rest ->
      (match float_of_string_opt v with
      | Some s when s >= 0. -> o := { !o with seconds = s }
      | _ -> bad "--seconds: not a duration: %s" v);
      go rest
    | "--trace" :: v :: rest -> o := { !o with trace = int "--trace" v <> 0 }; go rest
    | "--tiny" :: rest -> o := { !o with tiny = true }; go rest
    | "--out" :: v :: rest -> o := { !o with out = Some v }; go rest
    | "--benchmark" :: v :: rest -> o := { !o with benchmark = v }; go rest
    | v :: rest when not (String.starts_with ~prefix:"-" v) -> o := { !o with files = !o.files @ [ v ] }; go rest
    | v :: _ -> bad "unknown argument %s" v
  in
  go args;
  !o

let () =
  match Array.to_list Sys.argv with
  | _ :: "run" :: args -> (
    let o = parse args in
    match o.workload with Some w -> run_workload o w | None -> run_all o)
  | _ :: "trace" :: args -> (
    let o = parse args in
    match o.workload with
    | Some w -> run_workload { o with trace = true } w
    | None -> prerr_endline usage; exit 2)
  | _ :: "compare" :: args -> (
    match parse args with
    | { files = [ a; b ]; _ } as o -> compare_reports o a b
    | _ -> prerr_endline usage; exit 2)
  | _ :: "selftest" :: args ->
    let o = parse args in
    test_stats ();
    test_workloads o
  | _ -> prerr_endline usage; exit 2
