(** The one monotonic clock of every sink. *)

(** Monotonic nanoseconds (CLOCK_MONOTONIC; arbitrary origin). *)
val now_ns : unit -> int
