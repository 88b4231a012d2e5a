(* Textual circuit format: a FIRRTL-flavored serialization of the IR
   with an emitter and a parser, so designs can be stored in files,
   exchanged, and fed to the CLI (`fireaxe-cli plan --file design.fir`).
   [parse (emit c)] reconstructs [c] exactly (round-trip tested against
   every generator in the repository).

   Grammar (one declaration per line; indentation is cosmetic):

     circuit <name> main <module>:
       module <name>:
         input <id> : UInt<w>
         output <id> : UInt<w>
         wire <id> : UInt<w>
         reg <id> : UInt<w> init <int>
         mem <id> : UInt<w>[depth]
         inst <id> of <module>
         connect <target> = <expr>
         regnext <id> <= <expr> [when <expr>]
         memwrite <id>[<expr>] <= <expr> when <expr>
         annotation ready_valid <source|sink> valid=<id> ready=<id> payload=[<id>,...]
         annotation noc_router <int>

   Expressions are prefix applications — add(a, b), mux(c, t, f),
   bits(e, hi, lo), read(m, addr), cat(a, b) — plus literals
   UInt<w>(v) and references (identifiers, possibly dotted for
   instance ports).  '#' and '$' are legal identifier characters so
   punched and flattened names survive. *)

open Ast

exception Parse_error of string

let parse_error fmt = Format.kasprintf (fun s -> raise (Parse_error s)) fmt

(* ------------------------------------------------------------------ *)
(* Emitter                                                             *)
(* ------------------------------------------------------------------ *)

let binop_name = function
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | Div -> "div"
  | Rem -> "rem"
  | And -> "and"
  | Or -> "or"
  | Xor -> "xor"
  | Shl -> "shl"
  | Shr -> "shr"
  | Eq -> "eq"
  | Neq -> "neq"
  | Lt -> "lt"
  | Le -> "leq"
  | Gt -> "gt"
  | Ge -> "geq"

let unop_name = function
  | Not -> "not"
  | Neg -> "neg"
  | Andr -> "andr"
  | Orr -> "orr"
  | Xorr -> "xorr"

let rec emit_expr buf e =
  let app name args =
    Buffer.add_string buf name;
    Buffer.add_char buf '(';
    List.iteri
      (fun i arg ->
        if i > 0 then Buffer.add_string buf ", ";
        arg ())
      args;
    Buffer.add_char buf ')'
  in
  match e with
  | Lit { value; width } -> Buffer.add_string buf (Printf.sprintf "UInt<%d>(%d)" width value)
  | Ref name -> Buffer.add_string buf name
  | Mux (c, t, f) ->
    app "mux" [ (fun () -> emit_expr buf c); (fun () -> emit_expr buf t); (fun () -> emit_expr buf f) ]
  | Binop (op, a, b) ->
    app (binop_name op) [ (fun () -> emit_expr buf a); (fun () -> emit_expr buf b) ]
  | Unop (op, a) -> app (unop_name op) [ (fun () -> emit_expr buf a) ]
  | Bits { e; hi; lo } ->
    app "bits"
      [
        (fun () -> emit_expr buf e);
        (fun () -> Buffer.add_string buf (string_of_int hi));
        (fun () -> Buffer.add_string buf (string_of_int lo));
      ]
  | Cat (a, b) -> app "cat" [ (fun () -> emit_expr buf a); (fun () -> emit_expr buf b) ]
  | Read { mem; addr } ->
    app "read" [ (fun () -> Buffer.add_string buf mem); (fun () -> emit_expr buf addr) ]

let expr_to_string e =
  let buf = Buffer.create 64 in
  emit_expr buf e;
  Buffer.contents buf

let emit_module buf m =
  Buffer.add_string buf (Printf.sprintf "  module %s:\n" m.name);
  List.iter
    (fun p ->
      Buffer.add_string buf
        (Printf.sprintf "    %s %s : UInt<%d>\n"
           (match p.pdir with Input -> "input" | Output -> "output")
           p.pname p.pwidth))
    m.ports;
  List.iter
    (fun c ->
      match c with
      | Wire { name; width } ->
        Buffer.add_string buf (Printf.sprintf "    wire %s : UInt<%d>\n" name width)
      | Reg { name; width; init } ->
        Buffer.add_string buf (Printf.sprintf "    reg %s : UInt<%d> init %d\n" name width init)
      | Mem { name; width; depth } ->
        Buffer.add_string buf (Printf.sprintf "    mem %s : UInt<%d>[%d]\n" name width depth)
      | Inst { name; of_module } ->
        Buffer.add_string buf (Printf.sprintf "    inst %s of %s\n" name of_module))
    m.comps;
  List.iter
    (fun s ->
      match s with
      | Connect { dst; src } ->
        Buffer.add_string buf (Printf.sprintf "    connect %s = %s\n" dst (expr_to_string src))
      | Reg_update { reg; next; enable } -> (
        match enable with
        | None ->
          Buffer.add_string buf (Printf.sprintf "    regnext %s <= %s\n" reg (expr_to_string next))
        | Some en ->
          Buffer.add_string buf
            (Printf.sprintf "    regnext %s <= %s when %s\n" reg (expr_to_string next)
               (expr_to_string en)))
      | Mem_write { mem; addr; data; enable } ->
        Buffer.add_string buf
          (Printf.sprintf "    memwrite %s[%s] <= %s when %s\n" mem (expr_to_string addr)
             (expr_to_string data) (expr_to_string enable)))
    m.stmts;
  List.iter
    (fun a ->
      match a with
      | Ready_valid { role; valid; ready; payload } ->
        Buffer.add_string buf
          (Printf.sprintf "    annotation ready_valid %s valid=%s ready=%s payload=[%s]\n"
             (match role with Rv_source -> "source" | Rv_sink -> "sink")
             valid ready (String.concat "," payload))
      | Noc_router { index } ->
        Buffer.add_string buf (Printf.sprintf "    annotation noc_router %d\n" index))
    m.annots

(** Serializes a circuit to its textual form. *)
let emit circuit =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Printf.sprintf "circuit %s main %s:\n" circuit.cname circuit.main);
  List.iter (emit_module buf) circuit.modules;
  Buffer.contents buf

let save circuit ~path =
  let oc = open_out path in
  output_string oc (emit circuit);
  close_out oc

(* ------------------------------------------------------------------ *)
(* Lexer                                                               *)
(* ------------------------------------------------------------------ *)

type token =
  | Tid of string
  | Tint of int
  | Tpunct of char  (** one of ( ) , : [ ] = < > *)
  | Tarrow  (** "<=" *)
  | Tuint of int  (** "UInt<w>" *)

let is_ident_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '$' || c = '#' || c = '.'

(* Tokenizes one line. *)
let lex line =
  let n = String.length line in
  let toks = ref [] in
  let i = ref 0 in
  while !i < n do
    let c = line.[!i] in
    if c = ' ' || c = '\t' || c = '\r' then incr i
    else if c = ';' then i := n (* comment to end of line *)
    else if c = '<' && !i + 1 < n && line.[!i + 1] = '=' then begin
      toks := Tarrow :: !toks;
      i := !i + 2
    end
    else if c >= '0' && c <= '9' then begin
      let j = ref !i in
      while !j < n && line.[!j] >= '0' && line.[!j] <= '9' do
        incr j
      done;
      let digits = String.sub line !i (!j - !i) in
      (match int_of_string_opt digits with
      | Some v -> toks := Tint v :: !toks
      | None -> parse_error "integer %s out of range in %S" digits line);
      i := !j
    end
    else if is_ident_char c then begin
      let j = ref !i in
      while !j < n && is_ident_char line.[!j] do
        incr j
      done;
      let word = String.sub line !i (!j - !i) in
      (* UInt<w> folds into one token (the '<' would otherwise clash
         with comparisons in no context). *)
      if word = "UInt" && !j < n && line.[!j] = '<' then begin
        let k = ref (!j + 1) in
        while !k < n && line.[!k] <> '>' do
          incr k
        done;
        if !k >= n then parse_error "unterminated UInt<...>";
        let ws = String.trim (String.sub line (!j + 1) (!k - !j - 1)) in
        let w =
          match int_of_string_opt ws with
          | Some w -> w
          | None -> parse_error "bad UInt width %S in %S" ws line
        in
        toks := Tuint w :: !toks;
        i := !k + 1
      end
      else begin
        toks := Tid word :: !toks;
        i := !j
      end
    end
    else if String.contains "(),:[]=<>" c then begin
      toks := Tpunct c :: !toks;
      incr i
    end
    else parse_error "unexpected character %C in %S" c line
  done;
  List.rev !toks

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)
(* ------------------------------------------------------------------ *)

type cursor = {
  mutable toks : token list;
  line : string;
}

let peek c = match c.toks with [] -> None | t :: _ -> Some t

let next c =
  match c.toks with
  | [] -> parse_error "unexpected end of line: %S" c.line
  | t :: rest ->
    c.toks <- rest;
    t

let expect_id c =
  match next c with
  | Tid s -> s
  | _ -> parse_error "identifier expected in %S" c.line

let expect_int c =
  match next c with
  | Tint v -> v
  | _ -> parse_error "integer expected in %S" c.line

let expect_punct c ch =
  match next c with
  | Tpunct p when p = ch -> ()
  | _ -> parse_error "%C expected in %S" ch c.line

let expect_uint c =
  match next c with
  | Tuint w -> w
  | _ -> parse_error "UInt<w> expected in %S" c.line

let binop_of_name = function
  | "add" -> Some Add
  | "sub" -> Some Sub
  | "mul" -> Some Mul
  | "div" -> Some Div
  | "rem" -> Some Rem
  | "and" -> Some And
  | "or" -> Some Or
  | "xor" -> Some Xor
  | "shl" -> Some Shl
  | "shr" -> Some Shr
  | "eq" -> Some Eq
  | "neq" -> Some Neq
  | "lt" -> Some Lt
  | "leq" -> Some Le
  | "gt" -> Some Gt
  | "geq" -> Some Ge
  | _ -> None

let unop_of_name = function
  | "not" -> Some Not
  | "neg" -> Some Neg
  | "andr" -> Some Andr
  | "orr" -> Some Orr
  | "xorr" -> Some Xorr
  | _ -> None

let rec parse_expr c =
  match next c with
  | Tuint w ->
    expect_punct c '(';
    let v = expect_int c in
    expect_punct c ')';
    Lit { value = v; width = w }
  | Tint _ -> parse_error "bare integer where an expression was expected in %S" c.line
  | Tid name -> (
    match peek c with
    | Some (Tpunct '(') -> (
      expect_punct c '(';
      match name with
      | "mux" ->
        let a = parse_expr c in
        expect_punct c ',';
        let b = parse_expr c in
        expect_punct c ',';
        let d = parse_expr c in
        expect_punct c ')';
        Mux (a, b, d)
      | "bits" ->
        let e = parse_expr c in
        expect_punct c ',';
        let hi = expect_int c in
        expect_punct c ',';
        let lo = expect_int c in
        expect_punct c ')';
        Bits { e; hi; lo }
      | "cat" ->
        let a = parse_expr c in
        expect_punct c ',';
        let b = parse_expr c in
        expect_punct c ')';
        Cat (a, b)
      | "read" ->
        let m = expect_id c in
        expect_punct c ',';
        let addr = parse_expr c in
        expect_punct c ')';
        Read { mem = m; addr }
      | _ -> (
        match (binop_of_name name, unop_of_name name) with
        | Some op, _ ->
          let a = parse_expr c in
          expect_punct c ',';
          let b = parse_expr c in
          expect_punct c ')';
          Binop (op, a, b)
        | None, Some op ->
          let a = parse_expr c in
          expect_punct c ')';
          Unop (op, a)
        | None, None -> parse_error "unknown operator %s in %S" name c.line))
    | _ -> Ref name)
  | _ -> parse_error "expression expected in %S" c.line

(* Mutable module under construction. *)
type pending = {
  pm_name : string;
  mutable pm_ports : port list;
  mutable pm_comps : component list;
  mutable pm_stmts : stmt list;
  mutable pm_annots : annotation list;
}

let finish_pending pm =
  {
    name = pm.pm_name;
    ports = List.rev pm.pm_ports;
    comps = List.rev pm.pm_comps;
    stmts = List.rev pm.pm_stmts;
    annots = List.rev pm.pm_annots;
  }

let parse_payload_list c =
  expect_punct c '[';
  let rec go acc =
    match peek c with
    | Some (Tpunct ']') ->
      ignore (next c);
      List.rev acc
    | Some (Tpunct ',') ->
      ignore (next c);
      go acc
    | Some (Tid s) ->
      ignore (next c);
      go (s :: acc)
    | _ -> parse_error "payload list expected in %S" c.line
  in
  go []

(** Parses the textual form back into a circuit; raises {!Parse_error}
    on malformed input.  The result is structurally checked. *)
let parse text =
  let lines = String.split_on_char '\n' text in
  let header = ref None in
  let modules = ref [] in
  let current = ref None in
  let close_current () =
    match !current with
    | Some pm ->
      modules := finish_pending pm :: !modules;
      current := None
    | None -> ()
  in
  List.iter
    (fun raw ->
      let c = { toks = lex raw; line = raw } in
      match peek c with
      | None -> ()
      | Some _ -> (
        match expect_id c with
        | "circuit" ->
          let cname = expect_id c in
          (match expect_id c with
          | "main" -> ()
          | _ -> parse_error "'main' expected in %S" raw);
          let main = expect_id c in
          expect_punct c ':';
          header := Some (cname, main)
        | "module" ->
          close_current ();
          let name = expect_id c in
          expect_punct c ':';
          current :=
            Some { pm_name = name; pm_ports = []; pm_comps = []; pm_stmts = []; pm_annots = [] }
        | keyword -> (
          let pm =
            match !current with
            | Some pm -> pm
            | None -> parse_error "declaration outside a module: %S" raw
          in
          match keyword with
          | "input" | "output" ->
            let pname = expect_id c in
            expect_punct c ':';
            let pwidth = expect_uint c in
            pm.pm_ports <-
              { pname; pdir = (if keyword = "input" then Input else Output); pwidth }
              :: pm.pm_ports
          | "wire" ->
            let name = expect_id c in
            expect_punct c ':';
            let width = expect_uint c in
            pm.pm_comps <- Wire { name; width } :: pm.pm_comps
          | "reg" ->
            let name = expect_id c in
            expect_punct c ':';
            let width = expect_uint c in
            (match expect_id c with
            | "init" -> ()
            | _ -> parse_error "'init' expected in %S" raw);
            let init = expect_int c in
            pm.pm_comps <- Reg { name; width; init } :: pm.pm_comps
          | "mem" ->
            let name = expect_id c in
            expect_punct c ':';
            let width = expect_uint c in
            expect_punct c '[';
            let depth = expect_int c in
            expect_punct c ']';
            pm.pm_comps <- Mem { name; width; depth } :: pm.pm_comps
          | "inst" ->
            let name = expect_id c in
            (match expect_id c with
            | "of" -> ()
            | _ -> parse_error "'of' expected in %S" raw);
            let of_module = expect_id c in
            pm.pm_comps <- Inst { name; of_module } :: pm.pm_comps
          | "connect" ->
            let dst = expect_id c in
            expect_punct c '=';
            let src = parse_expr c in
            pm.pm_stmts <- Connect { dst; src } :: pm.pm_stmts
          | "regnext" ->
            let reg = expect_id c in
            (match next c with
            | Tarrow -> ()
            | _ -> parse_error "'<=' expected in %S" raw);
            let nexte = parse_expr c in
            let enable =
              match peek c with
              | Some (Tid "when") ->
                ignore (next c);
                Some (parse_expr c)
              | _ -> None
            in
            pm.pm_stmts <- Reg_update { reg; next = nexte; enable } :: pm.pm_stmts
          | "memwrite" ->
            let mem = expect_id c in
            expect_punct c '[';
            let addr = parse_expr c in
            expect_punct c ']';
            (match next c with
            | Tarrow -> ()
            | _ -> parse_error "'<=' expected in %S" raw);
            let data = parse_expr c in
            (match expect_id c with
            | "when" -> ()
            | _ -> parse_error "'when' expected in %S" raw);
            let enable = parse_expr c in
            pm.pm_stmts <- Mem_write { mem; addr; data; enable } :: pm.pm_stmts
          | "annotation" -> (
            match expect_id c with
            | "ready_valid" ->
              let role =
                match expect_id c with
                | "source" -> Rv_source
                | "sink" -> Rv_sink
                | r -> parse_error "unknown ready_valid role %s in %S" r raw
              in
              let kv key =
                let k = expect_id c in
                if k <> key then parse_error "'%s=' expected in %S" key raw;
                expect_punct c '=';
                expect_id c
              in
              let valid = kv "valid" in
              let ready = kv "ready" in
              let k = expect_id c in
              if k <> "payload" then parse_error "'payload=' expected in %S" raw;
              expect_punct c '=';
              let payload = parse_payload_list c in
              pm.pm_annots <- Ready_valid { role; valid; ready; payload } :: pm.pm_annots
            | "noc_router" ->
              let index = expect_int c in
              pm.pm_annots <- Noc_router { index } :: pm.pm_annots
            | a -> parse_error "unknown annotation %s in %S" a raw)
          | _ -> parse_error "unknown declaration %S" raw)))
    lines;
  close_current ();
  match !header with
  | None -> parse_error "missing 'circuit' header"
  | Some (cname, main) ->
    let circuit = { cname; main; modules = List.rev !modules } in
    check_circuit circuit;
    circuit

let load ~path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  parse s
