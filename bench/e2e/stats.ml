(* Clock and order statistics shared by every workload, plus the
   warm-up / Gc.compact discipline that wraps each timed repeat. *)

(** Monotonic nanoseconds (bechamel's CLOCK_MONOTONIC binding). *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())

let secs_of_ns ns = float_of_int ns *. 1e-9

(** [f ()] and its duration in seconds. *)
let timed f =
  let t0 = now_ns () in
  let x = f () in
  (x, secs_of_ns (now_ns () - t0))

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Quantile [q] of an ascending array by the (n+1)q rule with linear
   interpolation — the method of Python's [statistics.quantiles], so a
   report's quartiles match what an external reader recomputes. *)
let quantile_sorted a q =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.quantile: no samples";
  let pos = (float_of_int (n + 1) *. q) -. 1. in
  if pos <= 0. then a.(0)
  else if pos >= float_of_int (n - 1) then a.(n - 1)
  else begin
    let i = int_of_float pos in
    let frac = pos -. float_of_int i in
    a.(i) +. (frac *. (a.(i + 1) -. a.(i)))
  end

let median xs = quantile_sorted (sorted xs) 0.5

type summary = { median : float; q1 : float; q3 : float; n : int }

let summary xs =
  let a = sorted xs in
  {
    median = quantile_sorted a 0.5;
    q1 = quantile_sorted a 0.25;
    q3 = quantile_sorted a 0.75;
    n = Array.length a;
  }

(** Nearest-rank percentile [p] (0 < p < 100) and how many samples lie
    strictly above it — the tail evidence a percentile needs. *)
let percentile xs p =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
  let v = a.(max 0 (min (n - 1) (rank - 1))) in
  let beyond = Array.fold_left (fun acc x -> if x > v then acc + 1 else acc) 0 a in
  (v, beyond)

(** A uniform sample of at most [capacity] values out of a stream of any
    length (reservoir sampling), so the latency percentiles of millions
    of requests cost fixed memory.  Seeded: the same stream keeps the
    same sample. *)
type reservoir = { values : Float.Array.t; mutable seen : int; rng : Random.State.t }

let reservoir capacity =
  { values = Float.Array.make capacity 0.; seen = 0; rng = Random.State.make [| capacity |] }

let add r x =
  let capacity = Float.Array.length r.values in
  if r.seen < capacity then Float.Array.set r.values r.seen x
  else begin
    let j = Random.State.full_int r.rng (r.seen + 1) in
    if j < capacity then Float.Array.set r.values j x
  end;
  r.seen <- r.seen + 1

let kept r = List.init (min r.seen (Float.Array.length r.values)) (Float.Array.get r.values)

(** Runs [repeat ~index:(-1)] as a discarded warm-up, then repeats
    [0, 1, ...] until at least [min_repeats] repeats and [seconds] of
    wall time have gone by.  A full heap compaction precedes every
    repeat, outside its clock, so no repeat pays for the garbage of the
    one before. *)
let repeats ~seconds ~min_repeats repeat =
  Gc.compact ();
  ignore (repeat ~index:(-1));
  let t0 = now_ns () in
  let rec go i acc =
    if i >= min_repeats && secs_of_ns (now_ns () - t0) >= seconds then List.rev acc
    else begin
      Gc.compact ();
      let r = repeat ~index:i in
      go (i + 1) (r :: acc)
    end
  in
  go 0 []
