(* Tests for the FIRRTL-like IR: builder, structural checks, flattening,
   combinational analysis and hierarchy surgery. *)

open Firrtl

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Example circuits                                                    *)
(* ------------------------------------------------------------------ *)

(* 8-bit counter with enable. *)
let counter_circuit () =
  let b = Builder.create "counter" in
  let en = Builder.input b "en" 1 in
  let c = Builder.reg b "c" 8 in
  Builder.reg_next b ~enable:en "c" Dsl.(c +: lit ~width:8 1);
  Builder.output b "out" 8;
  Builder.connect b "out" c;
  { Ast.cname = "counter"; main = "counter"; modules = [ Builder.finish b ] }

(* leaf: registered adder (out is sequential), plus a combinational
   passthrough [echo = a].  mid wraps leaf; top wraps mid. *)
let leaf_module () =
  let b = Builder.create "leaf" in
  let a = Builder.input b "a" 8 in
  let acc = Builder.reg b "acc" 8 in
  Builder.reg_next b "acc" Dsl.(acc +: a);
  Builder.output b "sum" 8;
  Builder.connect b "sum" acc;
  Builder.output b "echo" 8;
  Builder.connect b "echo" Dsl.(a +: lit ~width:8 1);
  Builder.finish b

let mid_module () =
  let b = Builder.create "mid" in
  let a = Builder.input b "a" 8 in
  let leaf = Builder.inst b "the_leaf" "leaf" in
  Builder.connect_in b leaf "a" a;
  Builder.output b "sum" 8;
  Builder.connect b "sum" (Builder.of_inst leaf "sum");
  Builder.output b "echo" 8;
  Builder.connect b "echo" (Builder.of_inst leaf "echo");
  Builder.finish b

let nested_circuit () =
  let b = Builder.create "top" in
  let a = Builder.input b "a" 8 in
  let mid = Builder.inst b "the_mid" "mid" in
  Builder.connect_in b mid "a" a;
  Builder.output b "sum" 8;
  Builder.connect b "sum" (Builder.of_inst mid "sum");
  Builder.output b "echo" 8;
  Builder.connect b "echo" (Builder.of_inst mid "echo");
  {
    Ast.cname = "nested";
    main = "top";
    modules = [ leaf_module (); mid_module (); Builder.finish b ];
  }

(* Drives the same pseudo-random input sequence into two sims and checks
   the listed outputs agree cycle by cycle. *)
let assert_equivalent ?(cycles = 64) ~inputs ~outputs c1 c2 =
  let s1 = Rtlsim.Sim.of_circuit c1 and s2 = Rtlsim.Sim.of_circuit c2 in
  let rand = ref 12345 in
  let next_rand () =
    rand := (!rand * 1103515245) + 12345;
    (!rand lsr 16) land 0xff
  in
  for cyc = 0 to cycles - 1 do
    List.iter
      (fun (name, width) ->
        let v = next_rand () land Ast.mask width in
        Rtlsim.Sim.set_input s1 name v;
        Rtlsim.Sim.set_input s2 name v)
      inputs;
    Rtlsim.Sim.eval_comb s1;
    Rtlsim.Sim.eval_comb s2;
    List.iter
      (fun out ->
        check_int
          (Printf.sprintf "cycle %d output %s" cyc out)
          (Rtlsim.Sim.get s1 out) (Rtlsim.Sim.get s2 out))
      outputs;
    Rtlsim.Sim.step_seq s1;
    Rtlsim.Sim.step_seq s2
  done

(* ------------------------------------------------------------------ *)
(* Structural checks                                                   *)
(* ------------------------------------------------------------------ *)

let test_check_ok () =
  Ast.check_circuit (counter_circuit ());
  Ast.check_circuit (nested_circuit ())

let test_undriven_output () =
  let b = Builder.create "bad" in
  Builder.output b "out" 4;
  let c = { Ast.cname = "bad"; main = "bad"; modules = [ Builder.finish b ] } in
  Alcotest.check_raises "undriven output" (Ast.Ir_error "module bad: output port out is undriven")
    (fun () -> Ast.check_circuit c)

let test_double_driver () =
  let b = Builder.create "bad2" in
  Builder.output b "out" 4;
  Builder.connect b "out" (Dsl.lit ~width:4 1);
  Builder.connect b "out" (Dsl.lit ~width:4 2);
  let c = { Ast.cname = "bad2"; main = "bad2"; modules = [ Builder.finish b ] } in
  check_bool "raises" true
    (try
       Ast.check_circuit c;
       false
     with Ast.Ir_error _ -> true)

let test_bad_width_literal () =
  check_bool "literal too wide raises" true
    (try
       ignore (Dsl.lit ~width:4 16);
       false
     with Ast.Ir_error _ -> true)

let test_unknown_ref () =
  let b = Builder.create "bad3" in
  Builder.output b "out" 4;
  Builder.connect b "out" (Dsl.ref_ "nonexistent");
  let c = { Ast.cname = "bad3"; main = "bad3"; modules = [ Builder.finish b ] } in
  check_bool "raises" true
    (try
       Ast.check_circuit c;
       false
     with Ast.Ir_error _ -> true)

(* ------------------------------------------------------------------ *)
(* Width inference                                                     *)
(* ------------------------------------------------------------------ *)

let width_env =
  {
    Ast.width_of_name = (fun _ -> 8);
    Ast.width_of_mem = (fun _ -> 16);
  }

let test_widths () =
  let w e = Ast.width_of width_env e in
  check_int "add" 8 (w Dsl.(ref_ "a" +: ref_ "b"));
  check_int "eq" 1 (w Dsl.(ref_ "a" ==: ref_ "b"));
  check_int "cat" 16 (w Dsl.(cat (ref_ "a") (ref_ "b")));
  check_int "bits" 3 (w Dsl.(bits (ref_ "a") ~hi:4 ~lo:2));
  check_int "bit" 1 (w Dsl.(bit (ref_ "a") 7));
  check_int "mux" 8 (w Dsl.(mux (ref_ "c") (ref_ "a") (ref_ "b")));
  check_int "read" 16 (w Dsl.(read "m" (ref_ "a")));
  check_int "orr" 1 (w Dsl.(orr (ref_ "a")));
  check_int "lit" 5 (w (Dsl.lit ~width:5 17))

(* ------------------------------------------------------------------ *)
(* Flattening                                                          *)
(* ------------------------------------------------------------------ *)

let test_flatten_behaviour () =
  let c = nested_circuit () in
  let flat = Flatten.flatten c in
  check_bool "no instances left" true
    (List.for_all
       (fun comp -> match comp with Ast.Inst _ -> false | _ -> true)
       flat.Ast.comps);
  let s = Rtlsim.Sim.create flat in
  Rtlsim.Sim.set_input s "a" 3;
  Rtlsim.Sim.eval_comb s;
  check_int "echo is comb" 4 (Rtlsim.Sim.get s "echo");
  check_int "sum initially 0" 0 (Rtlsim.Sim.get s "sum");
  Rtlsim.Sim.step_seq s;
  Rtlsim.Sim.eval_comb s;
  check_int "sum after one step" 3 (Rtlsim.Sim.get s "sum")

let test_flat_names () =
  let c = nested_circuit () in
  let flat = Flatten.flatten c in
  let names =
    List.filter_map
      (fun comp ->
        match comp with
        | Ast.Reg { name; _ } -> Some name
        | _ -> None)
      flat.Ast.comps
  in
  check_bool "nested register path" true (List.mem "the_mid$the_leaf$acc" names)

(* ------------------------------------------------------------------ *)
(* Analysis                                                            *)
(* ------------------------------------------------------------------ *)

let test_source_sink_classification () =
  let c = nested_circuit () in
  let t = Analysis.build (Flatten.flatten c) in
  let deps = Analysis.output_port_deps t in
  check_bool "sum is a source port" true (List.assoc "sum" deps = []);
  check_bool "echo is a sink port" true (List.assoc "echo" deps = [ "a" ])

(* Dependency sets are kept for output ports only: a wire's set is an
   intermediate step of the propagation, and asking for it is an error. *)
let test_port_deps_only () =
  let b = Builder.create "m" in
  let a = Builder.input b "a" 4 in
  let w = Builder.wire b "w" 4 in
  Builder.connect b "w" Dsl.(a +: lit ~width:4 1);
  Builder.output b "o" 4;
  Builder.connect b "o" w;
  let t = Analysis.build (Builder.finish b) in
  check_bool "output keeps its set" true (Analysis.comb_inputs t "o" = [ "a" ]);
  check_bool "only output ports are kept" true
    (Hashtbl.fold (fun name _ acc -> acc && name = "o") t.Analysis.comb_deps true);
  check_bool "a wire's set is not kept" true
    (try
       ignore (Analysis.comb_inputs t "w");
       false
     with Ast.Ir_error _ -> true)

let test_comb_cycle_detected () =
  let b = Builder.create "loop" in
  let x = Builder.wire b "x" 4 in
  let y = Builder.wire b "y" 4 in
  Builder.connect b "x" Dsl.(y +: lit ~width:4 1);
  Builder.connect b "y" Dsl.(x +: lit ~width:4 1);
  Builder.output b "out" 4;
  Builder.connect b "out" x;
  let m = Builder.finish b in
  check_bool "comb cycle raises" true
    (try
       ignore (Analysis.build m);
       false
     with Analysis.Comb_cycle _ -> true)

let test_cone () =
  let c = nested_circuit () in
  let t = Analysis.build (Flatten.flatten c) in
  let cone = Analysis.cone t [ "sum" ] in
  (* sum's cone must not include echo's adder chain. *)
  check_bool "cone excludes echo" true (not (List.mem "echo" cone));
  check_bool "cone includes sum" true (List.mem "sum" cone)

(* ------------------------------------------------------------------ *)
(* Hierarchy surgery                                                   *)
(* ------------------------------------------------------------------ *)

let test_promote_preserves_behaviour () =
  let c = nested_circuit () in
  let c', top_name = Hierarchy.promote_path c [ "the_mid"; "the_leaf" ] in
  Ast.check_circuit c';
  check_bool "leaf now a direct child of main" true
    (List.mem_assoc top_name (Hierarchy.instances (Ast.main_module c')));
  assert_equivalent ~inputs:[ ("a", 8) ] ~outputs:[ "sum"; "echo" ] c c'

let test_promote_requires_unique_path () =
  (* Two mids sharing the leaf module: promotion must refuse. *)
  let b = Builder.create "top" in
  let a = Builder.input b "a" 8 in
  let m1 = Builder.inst b "mid1" "mid" in
  let m2 = Builder.inst b "mid2" "mid" in
  Builder.connect_in b m1 "a" a;
  Builder.connect_in b m2 "a" a;
  Builder.output b "sum" 8;
  Builder.connect b "sum" Dsl.(Builder.of_inst m1 "sum" +: Builder.of_inst m2 "sum");
  Builder.output b "echo" 8;
  Builder.connect b "echo" (Builder.of_inst m1 "echo");
  let c =
    {
      Ast.cname = "dup";
      main = "top";
      modules = [ leaf_module (); mid_module (); Builder.finish b ];
    }
  in
  check_bool "non-unique path refused" true
    (try
       ignore (Hierarchy.promote_path c [ "mid1"; "the_leaf" ]);
       false
     with Ast.Ir_error _ -> true)

let test_group_split_recombine () =
  let c = nested_circuit () in
  let c', inst = Hierarchy.promote_path c [ "the_mid"; "the_leaf" ] in
  let grouped = Hierarchy.group_in_main c' ~insts:[ inst ] ~wrapper:"part0" in
  Ast.check_circuit grouped.Hierarchy.g_circuit;
  let split =
    Hierarchy.split_at_wrapper grouped.Hierarchy.g_circuit
      ~wrapper_inst:grouped.Hierarchy.g_wrapper_inst
  in
  Ast.check_circuit split.Hierarchy.sp_partition;
  Ast.check_circuit split.Hierarchy.sp_rest;
  check_bool "boundary is non-empty" true (split.Hierarchy.sp_boundary <> []);
  let recombined = Hierarchy.recombine split in
  Ast.check_circuit recombined;
  assert_equivalent ~inputs:[ ("a", 8) ] ~outputs:[ "sum"; "echo" ] c recombined

let test_group_boundary_width () =
  let b = Builder.create "chain" in
  let a = Builder.input b "a" 8 in
  let l1 = Builder.inst b "l1" "leaf" in
  let l2 = Builder.inst b "l2" "leaf" in
  Builder.connect_in b l1 "a" a;
  Builder.connect_in b l2 "a" (Builder.of_inst l1 "sum");
  Builder.output b "sum" 8;
  Builder.connect b "sum" (Builder.of_inst l2 "sum");
  let c =
    { Ast.cname = "chain"; main = "chain"; modules = [ leaf_module (); Builder.finish b ] }
  in
  let grouped = Hierarchy.group_in_main c ~insts:[ "l1"; "l2" ] ~wrapper:"w" in
  let w = Ast.find_module grouped.Hierarchy.g_circuit "w" in
  (* Boundary: l1.a in; l2.sum out.  The l1.sum -> l2.a edge is internal;
     l1/l2 echo outputs are unused hence unexported. *)
  let names = List.map (fun (p : Ast.port) -> p.Ast.pname) w.Ast.ports in
  check_bool "l1$a punched in" true (List.mem "l1#a" names);
  check_bool "l2$sum punched out" true (List.mem "l2#sum" names);
  check_bool "internal edge not punched" true (not (List.mem "l1#sum" names));
  check_bool "unused echo not punched" true (not (List.mem "l1#echo" names));
  let split = Hierarchy.split_at_wrapper grouped.Hierarchy.g_circuit ~wrapper_inst:"w" in
  assert_equivalent ~inputs:[ ("a", 8) ] ~outputs:[ "sum" ]
    c (Hierarchy.recombine split)

let test_instance_adjacency () =
  let b = Builder.create "ringtop" in
  let a = Builder.input b "a" 8 in
  let l1 = Builder.inst b "l1" "leaf" in
  let l2 = Builder.inst b "l2" "leaf" in
  let l3 = Builder.inst b "l3" "leaf" in
  (* l1 -> wire -> l2 -> l3, l3 output unused except port *)
  let w = Builder.wire b "mid_wire" 8 in
  Builder.connect_in b l1 "a" a;
  Builder.connect b "mid_wire" (Builder.of_inst l1 "sum");
  Builder.connect_in b l2 "a" w;
  Builder.connect_in b l3 "a" (Builder.of_inst l2 "sum");
  Builder.output b "out" 8;
  Builder.connect b "out" (Builder.of_inst l3 "sum");
  let top = Builder.finish b in
  let adj = Hierarchy.instance_adjacency top in
  let neighbours n = Option.value ~default:[] (Hashtbl.find_opt adj n) |> List.sort compare in
  Alcotest.(check (list string)) "l2 adj" [ "l1"; "l3" ] (neighbours "l2");
  Alcotest.(check (list string)) "l1 adj through wire" [ "l2" ] (neighbours "l1")

let test_instantiation_counts () =
  let c = nested_circuit () in
  let counts = Hierarchy.instantiation_counts c in
  check_int "leaf count" 1 (Option.value ~default:0 (Hashtbl.find_opt counts "leaf"));
  check_int "mid count" 1 (Option.value ~default:0 (Hashtbl.find_opt counts "mid"))

(* ------------------------------------------------------------------ *)
(* Property: expression evaluation matches a reference interpreter     *)
(* ------------------------------------------------------------------ *)

(* Independent reference interpreter mirroring the documented width
   semantics; differential-tested against the compiled simulator. *)
let rec ref_eval env e =
  let module A = Ast in
  match e with
  | A.Lit { value; width } -> (value, width)
  | A.Ref n -> List.assoc n env
  | A.Mux (c, a, b) ->
    let vc, _ = ref_eval env c in
    let va, wa = ref_eval env a and vb, wb = ref_eval env b in
    ((if vc <> 0 then va else vb), max wa wb)
  | A.Binop (op, a, b) ->
    let va, wa = ref_eval env a and vb, wb = ref_eval env b in
    let w = max wa wb in
    let m = A.mask w in
    (match op with
    | Add -> ((va + vb) land m, w)
    | Sub -> ((va - vb) land m, w)
    | Mul -> (va * vb land m, w)
    | Div -> ((if vb = 0 then 0 else va / vb), w)
    | Rem -> ((if vb = 0 then 0 else va mod vb), w)
    | And -> (va land vb, w)
    | Or -> (va lor vb, w)
    | Xor -> (va lxor vb, w)
    | Shl -> ((if vb > A.max_width then 0 else (va lsl vb) land A.mask wa), wa)
    | Shr -> ((if vb > A.max_width then 0 else va lsr vb), wa)
    | Eq -> ((if va = vb then 1 else 0), 1)
    | Neq -> ((if va <> vb then 1 else 0), 1)
    | Lt -> ((if va < vb then 1 else 0), 1)
    | Le -> ((if va <= vb then 1 else 0), 1)
    | Gt -> ((if va > vb then 1 else 0), 1)
    | Ge -> ((if va >= vb then 1 else 0), 1))
  | A.Unop (op, a) ->
    let va, wa = ref_eval env a in
    let m = A.mask wa in
    (match op with
    | Not -> (lnot va land m, wa)
    | Neg -> (-va land m, wa)
    | Andr -> ((if va = m then 1 else 0), 1)
    | Orr -> ((if va <> 0 then 1 else 0), 1)
    | Xorr ->
      let rec parity acc v = if v = 0 then acc else parity (acc lxor (v land 1)) (v lsr 1) in
      (parity 0 va, 1))
  | A.Bits { e; hi; lo } ->
    let v, _ = ref_eval env e in
    ((v lsr lo) land A.mask (hi - lo + 1), hi - lo + 1)
  | A.Cat (a, b) ->
    let va, wa = ref_eval env a and vb, wb = ref_eval env b in
    ((va lsl wb) lor vb, wa + wb)
  | A.Read _ -> failwith "no memories in property exprs"

let gen_expr =
  let open QCheck.Gen in
  let leaf =
    oneof
      [
        map (fun v -> Ast.Lit { value = v land 0xff; width = 8 }) (int_bound 255);
        return (Ast.Ref "x");
        return (Ast.Ref "y");
      ]
  in
  fix
    (fun self n ->
      if n = 0 then leaf
      else
        let sub = self (n / 2) in
        oneof
          [
            leaf;
            map2 (fun a b -> Ast.Binop (Add, a, b)) sub sub;
            map2 (fun a b -> Ast.Binop (Sub, a, b)) sub sub;
            map2 (fun a b -> Ast.Binop (And, a, b)) sub sub;
            map2 (fun a b -> Ast.Binop (Or, a, b)) sub sub;
            map2 (fun a b -> Ast.Binop (Xor, a, b)) sub sub;
            map2 (fun a b -> Ast.Binop (Mul, a, b)) sub sub;
            map2 (fun a b -> Ast.Binop (Eq, a, b)) sub sub;
            map2 (fun a b -> Ast.Binop (Lt, a, b)) sub sub;
            map3 (fun c a b -> Ast.Mux (c, a, b)) sub sub sub;
            map (fun a -> Ast.Unop (Not, a)) sub;
            map (fun a -> Ast.Unop (Orr, a)) sub;
            map
              (fun a ->
                Ast.Bits { e = Ast.Binop (Add, a, Ast.Lit { value = 0; width = 8 }); hi = 5; lo = 1 })
              sub;
          ])
    4

let prop_sim_matches_reference =
  QCheck.Test.make ~name:"compiled sim matches reference interpreter" ~count:200
    (QCheck.make gen_expr)
    (fun e ->
      let b = Builder.create "prop" in
      let _ = Builder.input b "x" 8 in
      let _ = Builder.input b "y" 8 in
      let env0 = { Ast.width_of_name = (fun _ -> 8); width_of_mem = (fun _ -> 8) } in
      let w = Ast.width_of env0 e in
      if w > Ast.max_width then true
      else begin
        Builder.output b "out" w;
        Builder.connect b "out" e;
        let m = Builder.finish b in
        let s = Rtlsim.Sim.create m in
        List.for_all
          (fun (x, y) ->
            Rtlsim.Sim.set_input s "x" x;
            Rtlsim.Sim.set_input s "y" y;
            Rtlsim.Sim.eval_comb s;
            let expected, _ = ref_eval [ ("x", (x, 8)); ("y", (y, 8)) ] e in
            Rtlsim.Sim.get s "out" = expected land Ast.mask w)
          [ (0, 0); (1, 255); (170, 85); (255, 255); (37, 142) ]
      end)

let suite =
  [
    ( "firrtl.check",
      [
        Alcotest.test_case "valid circuits pass" `Quick test_check_ok;
        Alcotest.test_case "undriven output" `Quick test_undriven_output;
        Alcotest.test_case "double driver" `Quick test_double_driver;
        Alcotest.test_case "bad literal" `Quick test_bad_width_literal;
        Alcotest.test_case "unknown ref" `Quick test_unknown_ref;
      ] );
    ("firrtl.widths", [ Alcotest.test_case "width inference" `Quick test_widths ]);
    ( "firrtl.flatten",
      [
        Alcotest.test_case "behaviour" `Quick test_flatten_behaviour;
        Alcotest.test_case "flat names" `Quick test_flat_names;
      ] );
    ( "firrtl.analysis",
      [
        Alcotest.test_case "source/sink ports" `Quick test_source_sink_classification;
        Alcotest.test_case "dependency sets kept for ports only" `Quick test_port_deps_only;
        Alcotest.test_case "comb cycle" `Quick test_comb_cycle_detected;
        Alcotest.test_case "cone" `Quick test_cone;
      ] );
    ( "firrtl.hierarchy",
      [
        Alcotest.test_case "promote preserves behaviour" `Quick test_promote_preserves_behaviour;
        Alcotest.test_case "promote needs unique path" `Quick test_promote_requires_unique_path;
        Alcotest.test_case "group/split/recombine" `Quick test_group_split_recombine;
        Alcotest.test_case "boundary minimality" `Quick test_group_boundary_width;
        Alcotest.test_case "instance adjacency" `Quick test_instance_adjacency;
        Alcotest.test_case "instantiation counts" `Quick test_instantiation_counts;
      ] );
    ( "firrtl.properties",
      [ QCheck_alcotest.to_alcotest prop_sim_matches_reference ] );
  ]
