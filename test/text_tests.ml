(* Tests for the textual circuit format: exact round-trips over every
   generator in the repository, hand-written sources, and error
   reporting. *)

open Firrtl

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let roundtrip name circuit () =
  let text = Text.emit circuit in
  let back = Text.parse text in
  check_bool (name ^ " round-trips structurally") true (back = circuit);
  (* And a second emit is a fixpoint. *)
  Alcotest.(check string) (name ^ " emit is stable") text (Text.emit back)

let generator_roundtrips =
  [
    ("single_core_soc", Socgen.Soc.single_core_soc ());
    ("multi_core_soc", Socgen.Soc.multi_core_soc ~cores:3 ());
    ("accel_soc sha3", Socgen.Soc.accel_soc Socgen.Soc.Sha3);
    ("accel_soc gemmini", Socgen.Soc.accel_soc Socgen.Soc.Gemmini);
    ("ring_soc", Socgen.Ring_noc.ring_soc ~n_tiles:4 ());
    ("bigcore tiny", Socgen.Bigcore.circuit ~p:Socgen.Bigcore.tiny ());
  ]

let test_handwritten_source () =
  let src =
    {|
circuit blinky main top:
  module top:
    output led : UInt<1>
    reg c : UInt<8> init 0
    wire msb : UInt<1>   ; comments reach end of line
    connect msb = bits(c, 7, 7)
    regnext c <= add(c, UInt<8>(1))
    connect led = msb
|}
  in
  let circuit = Text.parse src in
  let sim = Rtlsim.Sim.of_circuit circuit in
  for _ = 1 to 128 do
    Rtlsim.Sim.step sim
  done;
  Rtlsim.Sim.eval_comb sim;
  check_int "led high in upper half" 1 (Rtlsim.Sim.get sim "led");
  for _ = 1 to 128 do
    Rtlsim.Sim.step sim
  done;
  Rtlsim.Sim.eval_comb sim;
  check_int "led low after wrap" 0 (Rtlsim.Sim.get sim "led")

let test_parse_errors () =
  let bad =
    [
      ("no header", "module m:\n  output o : UInt<1>\n  connect o = UInt<1>(0)\n");
      ("unknown op", "circuit c main m:\n  module m:\n    output o : UInt<1>\n    connect o = frob(x)\n");
      ("unterminated uint", "circuit c main m:\n  module m:\n    input a : UInt<8\n");
      ("stray decl", "circuit c main m:\n  wire w : UInt<1>\n");
      ( "integer beyond max_int",
        "circuit c main m:\n  module m:\n    output o : UInt<8>\n\
        \    connect o = UInt<8>(99999999999999999999999)\n" );
      ("non-numeric width", "circuit c main m:\n  module m:\n    input a : UInt<x>\n");
    ]
  in
  List.iter
    (fun (label, src) ->
      check_bool label true
        (try
           ignore (Text.parse src);
           false
         with Text.Parse_error _ -> true))
    bad

let test_parse_checks_structure () =
  (* Parses but fails the structural check: undriven output. *)
  let src = "circuit c main m:\n  module m:\n    output o : UInt<1>\n" in
  check_bool "structural check applied" true
    (try
       ignore (Text.parse src);
       false
     with Ast.Ir_error _ -> true)

let test_annotations_roundtrip () =
  let m = Socgen.Kite_core.module_def () in
  let circuit = { Ast.cname = "c"; main = m.Ast.name; modules = [ m ] } in
  let back = Text.parse (Text.emit circuit) in
  let annots = (Ast.main_module back).Ast.annots in
  check_int "both ready-valid bundles survive" 2 (List.length annots)

let test_file_io () =
  let circuit = Socgen.Soc.single_core_soc () in
  let path = Filename.temp_file "fireaxe" ".fir" in
  Text.save circuit ~path;
  let back = Text.load ~path in
  Sys.remove path;
  check_bool "file round-trip" true (back = circuit)

let prop_expr_roundtrip =
  (* Random expressions round-trip through the textual form. *)
  let gen =
    QCheck.Gen.(
      fix
        (fun self n ->
          if n = 0 then
            oneof
              [
                map (fun v -> Ast.Lit { value = v land 0xff; width = 8 }) (int_bound 255);
                return (Ast.Ref "x");
                return (Ast.Ref "inst.port");
              ]
          else
            let sub = self (n / 2) in
            oneof
              [
                map2 (fun a b -> Ast.Binop (Ast.Add, a, b)) sub sub;
                map2 (fun a b -> Ast.Binop (Ast.Xor, a, b)) sub sub;
                map2 (fun a b -> Ast.Cat (a, b)) sub sub;
                map3 (fun c a b -> Ast.Mux (c, a, b)) sub sub sub;
                map (fun a -> Ast.Unop (Ast.Orr, a)) sub;
                map (fun a -> Ast.Bits { e = a; hi = 5; lo = 2 }) sub;
                map (fun a -> Ast.Read { mem = "m"; addr = a }) sub;
              ])
        3)
  in
  QCheck.Test.make ~name:"expressions round-trip through text" ~count:200 (QCheck.make gen)
    (fun e ->
      let text = Text.expr_to_string e in
      let c = { Text.toks = Text.lex text; line = text } in
      Text.parse_expr c = e)

(* Byte mutations of a valid Kite SoC text: whatever the damage, [parse]
   returns a circuit or raises one of its two named errors. *)
let prop_parse_mutations =
  let text = Text.emit (Socgen.Soc.single_core_soc ()) in
  let n = String.length text in
  let gen =
    QCheck.(
      list_of_size (Gen.int_range 1 4) (pair (int_bound (n - 1)) (int_bound 255)))
  in
  QCheck.Test.make ~name:"byte-mutated text parses or raises a named error" ~count:1000
    gen (fun muts ->
      let b = Bytes.of_string text in
      List.iter (fun (i, c) -> Bytes.set b i (Char.chr c)) muts;
      match Text.parse (Bytes.to_string b) with
      | _ -> true
      | exception (Text.Parse_error _ | Ast.Ir_error _) -> true)

let test_checked_in_sample () =
  (* A hand-authored .fir file ships with the repo: it must load, pass
     the structural checks, simulate, and partition. *)
  let path =
    (* Materialized by the dune dep next to the build tree root. *)
    Filename.concat
      (Filename.dirname (Filename.dirname Sys.executable_name))
      "examples/designs/blinker.fir"
  in
  let circuit = Firrtl.Text.load ~path in
  Firrtl.Ast.check_circuit circuit;
  let sim = Rtlsim.Sim.of_circuit circuit in
  for _ = 1 to 40 do
    Rtlsim.Sim.step sim
  done;
  Rtlsim.Sim.eval_comb sim;
  Alcotest.(check int) "counter" 40 (Rtlsim.Sim.get sim "count");
  Alcotest.(check int) "led = bit 4 of the counter" ((40 lsr 4) land 1)
    (Rtlsim.Sim.get sim "led");
  let config =
    {
      Fireripper.Spec.default_config with
      Fireripper.Spec.selection = Fireripper.Spec.Instances [ [ "b" ] ];
    }
  in
  let h = Fireripper.Runtime.instantiate (Fireripper.Compile.compile ~config circuit) in
  Fireripper.Runtime.run h ~cycles:40;
  let u = Fireripper.Runtime.locate h "b$c" in
  Alcotest.(check int) "partitioned counter" 40
    (Rtlsim.Sim.get (Fireripper.Runtime.sim_of h u) "b$c")

let suite =
  [
    ( "text.roundtrip",
      List.map
        (fun (name, circuit) -> Alcotest.test_case name `Quick (roundtrip name circuit))
        generator_roundtrips );
    ( "text.file",
      [ Alcotest.test_case "checked-in sample loads and partitions" `Quick test_checked_in_sample ]
    );
    ( "text.parse",
      [
        Alcotest.test_case "hand-written source" `Quick test_handwritten_source;
        Alcotest.test_case "parse errors" `Quick test_parse_errors;
        Alcotest.test_case "structural check" `Quick test_parse_checks_structure;
        Alcotest.test_case "annotations" `Quick test_annotations_roundtrip;
        Alcotest.test_case "file io" `Quick test_file_io;
      ] );
    ( "text.properties",
      [
        QCheck_alcotest.to_alcotest prop_expr_roundtrip;
        QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 1 |]) prop_parse_mutations;
      ] );
  ]
