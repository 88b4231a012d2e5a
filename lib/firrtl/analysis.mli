(** Combinational analysis over a flat module: name classification,
    levelization with cycle detection, and input-port dependency sets —
    the facts FireRipper's source/sink classification and the
    simulator's single-pass evaluation are built on. *)

type kind =
  | K_input
  | K_output
  | K_wire
  | K_reg
  | K_mem

exception Comb_cycle of string list
(** Raised with the cycle path when combinational logic loops. *)

type t = {
  flat : Ast.module_def;
  kinds : (string, kind) Hashtbl.t;
  drivers : (string, Ast.expr) Hashtbl.t;
  order : string list;  (** levelized evaluation order (deps first) *)
  comb_deps : (string, string list) Hashtbl.t;
      (** output port -> input ports it combinationally depends on *)
}

val kind_of : t -> string -> kind
val driver_of : t -> string -> Ast.expr option

(** Raises {!Comb_cycle} on combinational loops, [Ast.Ir_error] on
    non-flat or malformed modules. *)
val build : Ast.module_def -> t

(** Input ports that [name] combinationally depends on.  Raises
    [Ast.Ir_error] on a wire: only ports' sets are kept. *)
val comb_inputs : t -> string -> string list

(** For each output port: its combinational input dependencies (empty =
    a "source" port in FireAxe terms). *)
val output_port_deps : t -> (string * string list) list

(** Names in the combinational cone of [roots], in evaluation order. *)
val cone : t -> string list -> string list
