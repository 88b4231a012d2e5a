(* In-memory spans recorded around each public call the benchmark makes.

   Recording is off unless a traced repeat turns it on, and an off span
   is one branch around the call.  Spans carry their parent, so the
   share of a repeat's wall time its top-level spans cover can be
   computed afterwards.  Spans marked [nested] time a public function
   called beside the main path (to explain what an enclosing call
   spends) and are left out of that share. *)

type span = {
  id : int;
  parent : int;  (** [-1] for a root *)
  name : string;
  start_ns : int;
  stop_ns : int;
  nested : bool;
}

let on = ref false
let recorded : span list ref = ref []
let open_ids : int list ref = ref []
let next_id = ref 0

let span ?(nested = false) name f =
  if not !on then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !open_ids with p :: _ -> p | [] -> -1 in
    open_ids := id :: !open_ids;
    let start_ns = Stats.now_ns () in
    Fun.protect f ~finally:(fun () ->
        open_ids := List.tl !open_ids;
        recorded :=
          { id; parent; name; start_ns; stop_ns = Stats.now_ns (); nested }
          :: !recorded)
  end

let secs s = Stats.secs_of_ns (s.stop_ns - s.start_ns)

(** The spans of the latest {!collect}, oldest first. *)
let last () = List.rev !recorded

(** Records the spans of [f ()] and returns them (oldest first) with its
    result; recording stops afterwards. *)
let collect f =
  recorded := [];
  open_ids := [];
  on := true;
  let x = Fun.protect f ~finally:(fun () -> on := false) in
  (x, List.rev !recorded)

(** Total seconds per span name, over the given spans. *)
let totals spans =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let prev = Option.value ~default:0. (Hashtbl.find_opt tbl s.name) in
      Hashtbl.replace tbl s.name (prev +. secs s))
    spans;
  tbl

(** Seconds covered by the non-nested children of the span [root]. *)
let attributed spans ~root =
  List.fold_left
    (fun acc s -> if s.parent = root.id && not s.nested then acc +. secs s else acc)
    0. spans

(** Writes the spans as a Chrome trace (one track; nested spans tagged). *)
let write_chrome spans ~path =
  let module CT = Telemetry.Chrome_trace in
  let ct = CT.create () in
  let track = CT.track ct ~pid:1 ~tid:1 ~pname:"e2e" ~name:"main" () in
  let base = List.fold_left (fun acc s -> min acc s.start_ns) max_int spans in
  let us ns = float_of_int ns /. 1e3 in
  List.iter
    (fun s ->
      let args = if s.nested then [ ("nested", Telemetry.Json.Bool true) ] else [] in
      CT.span track ~name:s.name ~args ~ts:(us (s.start_ns - base))
        ~dur:(us (s.stop_ns - s.start_ns)) ())
    spans;
  CT.save ct ~path
