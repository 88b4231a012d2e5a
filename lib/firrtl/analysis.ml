(* Combinational analysis over a *flat* module (no instances): name
   classification, driver lookup, levelization (topological order of
   combinational assignments) with cycle detection, and the
   input-port dependency sets of every name.  FireRipper uses the
   output-port dependency sets to classify source vs. sink channels and
   to enforce the cross-partition chain-length bound; the RTL simulator
   uses the levelized order for single-pass evaluation. *)

open Ast

type kind =
  | K_input
  | K_output
  | K_wire
  | K_reg
  | K_mem

exception Comb_cycle of string list
(** Raised with the cycle path when combinational logic loops. *)

type t = {
  flat : module_def;
  kinds : (string, kind) Hashtbl.t;
  drivers : (string, expr) Hashtbl.t;  (** wire/output name -> driving expr *)
  order : string list;  (** levelized evaluation order (deps first) *)
  comb_deps : (string, string list) Hashtbl.t;
      (** output port -> input ports it combinationally depends on *)
}

let kind_of t name =
  match Hashtbl.find_opt t.kinds name with
  | Some k -> k
  | None -> ir_error "analysis: unknown name %s" name

let driver_of t name = Hashtbl.find_opt t.drivers name

let build flat =
  let kinds = Hashtbl.create 256 in
  List.iter
    (fun p ->
      Hashtbl.replace kinds p.pname (match p.pdir with Input -> K_input | Output -> K_output))
    flat.ports;
  List.iter
    (fun c ->
      match c with
      | Wire { name; _ } -> Hashtbl.replace kinds name K_wire
      | Reg { name; _ } -> Hashtbl.replace kinds name K_reg
      | Mem { name; _ } -> Hashtbl.replace kinds name K_mem
      | Inst { name; _ } -> ir_error "analysis: module %s is not flat (instance %s)" flat.name name)
    flat.comps;
  let drivers = Hashtbl.create 256 in
  List.iter
    (fun s ->
      match s with
      | Connect { dst; src } -> Hashtbl.replace drivers dst src
      | Reg_update _ | Mem_write _ -> ())
    flat.stmts;
  (* Levelization by DFS over combinational references.  A reference to a
     register or an input port is a leaf; a reference to a wire/output
     recurses through its driver. *)
  let order = ref [] in
  let state = Hashtbl.create 256 in
  (* state: 0 absent, 1 visiting, 2 done *)
  let rec visit path name =
    match Hashtbl.find_opt state name with
    | Some 2 -> ()
    | Some 1 ->
      let cycle = name :: List.rev (List.filter (fun n -> n <> "") path) in
      raise (Comb_cycle cycle)
    | Some _ | None -> (
      match Hashtbl.find_opt kinds name with
      | Some (K_input | K_reg | K_mem) -> Hashtbl.replace state name 2
      | Some (K_wire | K_output) ->
        Hashtbl.replace state name 1;
        (match Hashtbl.find_opt drivers name with
        | Some e -> List.iter (visit (name :: path)) (expr_refs e)
        | None -> ir_error "analysis: %s has no driver" name);
        Hashtbl.replace state name 2;
        order := name :: !order
      | None -> ir_error "analysis: unknown name %s" name)
  in
  Hashtbl.iter (fun name _ -> visit [] name) kinds;
  let order = List.rev !order in
  (* Input-port dependency sets, propagated in levelized order. *)
  let comb_deps = Hashtbl.create 256 in
  let deps_of name =
    match Hashtbl.find_opt kinds name with
    | Some K_input -> [ name ]
    | Some (K_reg | K_mem) -> []
    | Some (K_wire | K_output) | None ->
      Option.value ~default:[] (Hashtbl.find_opt comb_deps name)
  in
  List.iter
    (fun name ->
      match Hashtbl.find_opt drivers name with
      | None -> ()
      | Some e ->
        let deps =
          List.sort_uniq compare (List.concat_map deps_of (expr_refs e))
        in
        Hashtbl.replace comb_deps name deps)
    order;
  (* Callers ask about ports only.  A wire's set is a step of the
     propagation; keeping them all would retain about 1.5 MB per
     analysis of a 12k-component unit for the simulator's lifetime. *)
  Hashtbl.filter_map_inplace
    (fun name deps -> if Hashtbl.find_opt kinds name = Some K_output then Some deps else None)
    comb_deps;
  { flat; kinds; drivers; order; comb_deps }

(** Input ports that [name] combinationally depends on; [name] must not
    be a wire, whose set the analysis does not keep. *)
let comb_inputs t name =
  match kind_of t name with
  | K_input -> [ name ]
  | K_reg | K_mem -> []
  | K_output -> Option.value ~default:[] (Hashtbl.find_opt t.comb_deps name)
  | K_wire -> ir_error "analysis: %s is a wire; dependency sets are kept for ports only" name

(** For each output port: the input ports it combinationally depends on.
    An empty list marks a "source" port in FireAxe terms (driven only by
    sequential state); a non-empty list marks a "sink" port. *)
let output_port_deps t =
  List.filter_map
    (fun p ->
      match p.pdir with
      | Output -> Some (p.pname, comb_inputs t p.pname)
      | Input -> None)
    t.flat.ports

(** Names in the combinational cone of [roots]: every wire/output that
    [roots] transitively read, in levelized evaluation order.  Used to
    evaluate one output channel before all inputs have arrived. *)
let cone t roots =
  let wanted = Hashtbl.create 64 in
  let rec mark name =
    if not (Hashtbl.mem wanted name) then begin
      Hashtbl.replace wanted name ();
      match Hashtbl.find_opt t.drivers name with
      | Some e -> List.iter mark (expr_refs e)
      | None -> ()
    end
  in
  List.iter mark roots;
  List.filter (fun n -> Hashtbl.mem wanted n) t.order
