(* The one clock every sink stamps with: CLOCK_MONOTONIC in integer
   nanoseconds (bechamel's binding), so no duration goes negative when
   the wall clock steps. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
