(* Worker process for multi-process partitioned simulation: loads a
   (flattened) circuit from the .fir file given on the command line and
   serves the Remote_engine pipe protocol on stdin/stdout.  One worker
   hosts one partition unit — the process-level stand-in for one FPGA.
   An optional second argument picks the evaluation engine
   (closure|bytecode); the simulator's default applies otherwise.  An
   optional third argument sets the engine's lane count (vectorized
   N-copy execution; bytecode engine only).  An optional fourth
   argument, the literal token "profile", enables hot-path profiling of
   this worker's sim; the parent fetches the resulting one-line JSON
   slice with the "profile" command. *)

let () =
  if Array.length Sys.argv < 2 || Array.length Sys.argv > 5 then begin
    prerr_endline
      "usage: fireaxe-worker <circuit.fir> [closure|bytecode] [lanes] [profile]";
    exit 2
  end;
  let engine =
    if Array.length Sys.argv < 3 then None
    else
      match Rtlsim.Sim.engine_of_string Sys.argv.(2) with
      | Ok e -> Some e
      | Error m ->
        prerr_endline ("fireaxe-worker: " ^ m);
        exit 2
  in
  let lanes =
    if Array.length Sys.argv < 4 then None
    else
      match int_of_string_opt Sys.argv.(3) with
      | Some n when n >= 1 -> Some n
      | _ ->
        prerr_endline
          (Printf.sprintf "fireaxe-worker: bad lane count %S (want a positive int)"
             Sys.argv.(3));
        exit 2
  in
  let profile =
    if Array.length Sys.argv < 5 then Telemetry.Profile.null
    else if Sys.argv.(4) = "profile" then Telemetry.Profile.create ()
    else begin
      prerr_endline
        (Printf.sprintf "fireaxe-worker: bad flag %S (want \"profile\")"
           Sys.argv.(4));
      exit 2
    end
  in
  let circuit = Firrtl.Text.load ~path:Sys.argv.(1) in
  let sim = Rtlsim.Sim.of_circuit ?engine ?lanes ~profile circuit in
  let eng = Libdn.Engine.of_sim sim in
  (* Cones and checkpoints draw from SEPARATE id counters: cone ids are
     then a pure function of registration order, which is what lets a
     supervisor respawn a dead worker and replay the registrations with
     every previously handed-out id still valid. *)
  let cones = Hashtbl.create 8 in
  let next_cone = ref 0 in
  let checkpoints = Hashtbl.create 8 in
  let next_ckpt = ref 0 in
  let fresh tbl counter v =
    let id = !counter in
    incr counter;
    Hashtbl.replace tbl id v;
    id
  in
  let reply fmt =
    Printf.ksprintf
      (fun line ->
        print_string line;
        print_newline ();
        flush stdout)
      fmt
  in
  let words = Libdn.Wire.words in
  let bad line = failwith (Printf.sprintf "fireaxe-worker: bad command %S" line) in
  let running = ref true in
  reply "ready";
  while !running do
    match input_line stdin with
    | exception End_of_file -> running := false
    | line -> (
      match words line with
      | [ "set"; name; v ] -> eng.Libdn.Engine.set_input name (int_of_string v)
      | [ "get"; name ] -> reply "%d" (eng.Libdn.Engine.get name)
      | [ "get"; name; lane ] ->
        (* Per-lane read: lets the parent check lane agreement or probe
           an individual copy when the engine runs several lanes. *)
        reply "%d" (Rtlsim.Sim.get ~lane:(int_of_string lane) sim name)
      | [ "lanes" ] -> reply "%d" (Rtlsim.Sim.lanes sim)
      | [ "eval" ] -> Rtlsim.Sim.eval_comb sim
      | [ "step" ] -> Rtlsim.Sim.step_seq sim
      | "cone" :: roots ->
        reply "%d" (fresh cones next_cone (eng.Libdn.Engine.make_cone_eval roots))
      | [ "runcone"; id ] -> (Hashtbl.find cones (int_of_string id)) ()
      | [ "deps"; port ] ->
        reply "%s" (String.concat " " (eng.Libdn.Engine.output_comb_deps port))
      | [ "checkpoint" ] ->
        reply "%d" (fresh checkpoints next_ckpt (eng.Libdn.Engine.checkpoint ()))
      | [ "restore"; id ] -> (Hashtbl.find checkpoints (int_of_string id)) ()
      | [ "poke"; mem; addr; v ] ->
        Rtlsim.Sim.poke_mem sim mem (int_of_string addr) (int_of_string v)
      | [ "peek"; mem; addr ] -> reply "%d" (Rtlsim.Sim.peek_mem sim mem (int_of_string addr))
      | "sample" :: names ->
        (* Batched signal read for waveform capture: one round trip
           returns every value, space-joined, in request order. *)
        reply "%s"
          (String.concat " "
             (List.map (fun n -> string_of_int (eng.Libdn.Engine.get n)) names))
      | [ "width"; name ] ->
        (* Signal width in bits; -1 when the name is not a signal here
           (memories included: they cannot be waveform-sampled). *)
        reply "%d"
          (match Hashtbl.find_opt sim.Rtlsim.Sim.slots name with
          | Some i -> sim.Rtlsim.Sim.widths.(i)
          | None -> -1)
      | [ "has"; name ] ->
        reply "%d"
          (if Hashtbl.mem sim.Rtlsim.Sim.slots name || Hashtbl.mem sim.Rtlsim.Sim.mems name
           then 1
           else 0)
      | [ "savestate" ] ->
        (* Framed multi-line reply: "state <n>" then the n lines of the
           standard simulator-state text. *)
        let text = Rtlsim.Sim.state_to_string (Rtlsim.Sim.save_state sim) in
        let lines =
          String.split_on_char '\n' text |> List.filter (fun l -> String.trim l <> "")
        in
        reply "state %d" (List.length lines);
        List.iter (fun l -> reply "%s" l) lines
      | [ "loadstate"; n ] ->
        (* The n state-text lines follow on stdin. *)
        let n = int_of_string n in
        let buf = Buffer.create 4096 in
        (try
           for _ = 1 to n do
             Buffer.add_string buf (input_line stdin);
             Buffer.add_char buf '\n'
           done;
           Rtlsim.Sim.restore_state sim
             (Rtlsim.Sim.state_of_string (Buffer.contents buf));
           reply "ok"
         with
        | End_of_file -> running := false
        | Rtlsim.Sim.Sim_error m -> reply "error: %s" m)
      | [ "profile" ] -> reply "%s" (Telemetry.Profile.slice_string profile)
      | [ "quit" ] -> running := false
      | _ -> bad line)
  done
