(* diff_bench: CI perf-regression gate over the bench JSON reports.

     diff_bench BASELINE.json FRESH.json [--tolerance PCT]

   Walks both documents, pairs up every throughput-like numeric metric
   (tokens/s, cycles/s, aggregate lane rates, speedup ratios) by its
   path — list elements are keyed by their "name" member so reordering
   a design row does not shift every comparison — and fails (exit 1)
   when any fresh value regresses more than the tolerance band below
   its committed baseline (default 25%, wide enough for shared-runner
   noise; higher-is-better is assumed for every gated metric).

   Metrics present on only one side are reported but never fatal:
   adding a bench extends the fresh report before the baseline is
   regenerated, and that must not gate unrelated changes. *)

let metric_keys =
  [
    "tokens_per_s"; "cycles_per_s"; "vec_agg_cycles_per_s";
    "solo_agg_cycles_per_s"; "off_cycles_per_s"; "on_cycles_per_s"; "speedup";
    "sessions_per_s"; "packed_agg_cycles_per_s"; "independent_agg_cycles_per_s";
  ]

(* Flattens a document into (path, value) rows for the gated metrics. *)
let collect json =
  let module J = Telemetry.Json in
  let rows = ref [] in
  let label_of fields i =
    match List.assoc_opt "name" fields with
    | Some (J.String n) -> n
    | _ -> (
      match List.assoc_opt "config" fields with
      | Some (J.String n) -> n
      | _ -> string_of_int i)
  in
  let rec walk path j =
    match j with
    | J.Obj fields ->
      List.iter
        (fun (k, v) ->
          let p = if path = "" then k else path ^ "." ^ k in
          match v with
          | J.Int n when List.mem k metric_keys -> rows := (p, float_of_int n) :: !rows
          | J.Float f when List.mem k metric_keys -> rows := (p, f) :: !rows
          | _ -> walk p v)
        fields
    | J.List items ->
      List.iteri
        (fun i item ->
          let label =
            match item with J.Obj fields -> label_of fields i | _ -> string_of_int i
          in
          walk (Printf.sprintf "%s[%s]" path label) item)
        items
    | _ -> ()
  in
  walk "" json;
  List.rev !rows

let load path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let text = really_input_string ic n in
  close_in ic;
  match Telemetry.Json.parse text with
  | Ok j -> j
  | Error m ->
    Printf.eprintf "diff_bench: %s: %s\n" path m;
    exit 2

let () =
  let args = Array.to_list Sys.argv in
  let tolerance = ref 25.0 in
  let files = ref [] in
  let rec parse = function
    | [] -> ()
    | "--tolerance" :: v :: rest -> (
      match float_of_string_opt v with
      | Some t when t >= 0. ->
        tolerance := t;
        parse rest
      | _ ->
        Printf.eprintf "diff_bench: bad tolerance %S\n" v;
        exit 2)
    | f :: rest ->
      files := f :: !files;
      parse rest
  in
  parse (List.tl args);
  match List.rev !files with
  | [ baseline_path; fresh_path ] ->
    let baseline = collect (load baseline_path) in
    let fresh = collect (load fresh_path) in
    let regressions = ref 0 in
    let compared = ref 0 in
    List.iter
      (fun (path, base) ->
        match List.assoc_opt path fresh with
        | None -> Printf.printf "  (gone)     %-60s baseline %12.1f\n" path base
        | Some now ->
          incr compared;
          let delta_pct =
            if base = 0. then 0. else 100. *. (now -. base) /. base
          in
          if delta_pct < -.(!tolerance) then begin
            incr regressions;
            Printf.printf "  REGRESSED  %-60s %12.1f -> %12.1f (%+.1f%%)\n" path
              base now delta_pct
          end
          else if abs_float delta_pct > !tolerance then
            Printf.printf "  improved   %-60s %12.1f -> %12.1f (%+.1f%%)\n" path
              base now delta_pct)
      baseline;
    List.iter
      (fun (path, now) ->
        if List.assoc_opt path baseline = None then
          Printf.printf "  (new)      %-60s fresh    %12.1f\n" path now)
      fresh;
    Printf.printf
      "diff_bench: %d metrics compared against %s (tolerance %.0f%%), %d regressed\n"
      !compared baseline_path !tolerance !regressions;
    if !regressions > 0 then exit 1
  | _ ->
    prerr_endline "usage: diff_bench BASELINE.json FRESH.json [--tolerance PCT]";
    exit 2
