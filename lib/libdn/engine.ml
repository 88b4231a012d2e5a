(* Execution-engine abstraction used by the LI-BDN network.

   A partition's target logic can be executed by different engines: a
   plain RTL simulation (the common case, via [of_sim]) or a FAME-5
   multi-threaded simulation sharing one combinational evaluator across
   several register-state banks (built in Goldengate.Fame5). *)

type t = {
  set_input : string -> int -> unit;
  get : string -> int;
  get_ports : string list -> int list;
      (** Batched read of several signals, in request order — one
          protocol round trip for remote engines (the per-channel token
          gather), a plain map for local ones. *)
  eval_comb : unit -> unit;
  step_seq : unit -> unit;
  pass_record : Telemetry.Profile.engine option;
  make_cone_eval : string list -> unit -> unit;
      (** Compiled partial evaluation of the combinational cone feeding
          the given signals; see {!Rtlsim.Sim.make_cone_eval}. *)
  output_comb_deps : string -> string list;
      (** Input ports the named output port combinationally depends on. *)
  checkpoint : unit -> unit -> unit;
      (** Captures the engine's architectural state; the returned thunk
          restores it. *)
}

let of_sim sim =
  let analysis = sim.Rtlsim.Sim.analysis in
  {
    (* Broadcast stimulus: with N lanes the engine advances N identical
       copies in lockstep, so every lane sees every input.  (Reads come
       from lane 0; all lanes agree under broadcast driving.) *)
    set_input = Rtlsim.Sim.set_input_all sim;
    get = Rtlsim.Sim.get sim;
    get_ports = List.map (Rtlsim.Sim.get sim);
    eval_comb = (fun () -> Rtlsim.Sim.raw_eval_comb sim);
    step_seq = (fun () -> Rtlsim.Sim.raw_step_seq sim);
    pass_record = Some sim.Rtlsim.Sim.eprof;
    make_cone_eval = Rtlsim.Sim.make_cone_eval sim;
    output_comb_deps = (fun port -> Firrtl.Analysis.comb_inputs analysis port);
    checkpoint = (fun () -> Rtlsim.Sim.checkpoint sim);
  }

let of_flat ?engine ?lanes flat = of_sim (Rtlsim.Sim.create ?engine ?lanes flat)
