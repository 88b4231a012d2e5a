(** Schedulers: execution policies over a passive {!Network} topology.

    The LI-BDN firing rules make token streams deterministic regardless
    of attempt order, so both schedulers compute cycle-identical
    register state:

    - {!Sequential} — single-threaded round-robin sweep (the reference
      implementation; best for cycle-stepping drivers).
    - {!Parallel} — partitions spread over OCaml 5 domains (one per
      partition, or one per fused placement group), tokens through
      bounded thread-safe queues as the only synchronization (the
      software mirror of one-FPGA-per-partition; best for long
      free-running simulations of multi-partition designs).  On a
      one-thread host every partition runs inline on the calling domain.

    Deadlock (Fig. 2a) is detected in both by the same authoritative
    quiescence check ({!Network.quiescent}). *)

type t = Sequential | Parallel

val default : t
(** {!Sequential}. *)

val name : t -> string
(** ["seq"] / ["par"]. *)

val accepted_names : string list
(** The spellings {!of_string} accepts:
    ["seq"]/["sequential"]/["par"]/["parallel"]. *)

val of_string : string -> (t, string) result
(** Accepts {!accepted_names}; the error lists them. *)

(** Runs every partition up to [cycles] target cycles; raises
    {!Network.Deadlock} if the network quiesces short of the target. *)
val run : ?scheduler:t -> Network.t -> cycles:int -> unit

(** Runs until [pred] holds or all partitions reach [max_cycles];
    returns partition 0's cycle.  Sequential checks [pred] after each
    sweep; Parallel checks at whole-cycle barriers (all partition
    domains joined, so [pred] never races with them). *)
val run_until :
  ?scheduler:t -> Network.t -> max_cycles:int -> (Network.t -> bool) -> int

(** Overrides the host-domain count the parallel policy sizes itself to
    ([Domain.recommended_domain_count] by default; [0] restores it).
    Lets benches and tests exercise the real-domain path — and measure
    the profiler against a like-for-like baseline — on hosts whose
    hardware thread count would force the inline worker. *)
val set_host_domains : int -> unit

(** The host-domain count the parallel policy currently sizes itself to
    (the override if set, else [Domain.recommended_domain_count]).
    Placement passes use this as the default bin count. *)
val effective_host_domains : unit -> int

(** Longest-processing-time greedy bin packing: assigns one weight per
    partition to at most [domains] bins (heaviest first into the
    least-loaded), returning the bin slot per partition with slots
    numbered contiguously from 0.  The kernel of load-balanced domain
    placement; deterministic. *)
val pack : weights:int array -> domains:int -> int array
