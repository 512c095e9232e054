(* Clocks and order statistics shared by the benchmark's workloads. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let seconds_between t0 t1 = float_of_int (t1 - t0) *. 1e-9

(* Linear interpolation between closest ranks on a sorted copy; the
   convention of Python's [statistics.quantiles(..., method="inclusive")]. *)
let quantile xs q =
  let a = Array.of_list xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Timing.quantile: no samples";
  Array.sort Float.compare a;
  let pos = q *. float_of_int (n - 1) in
  let lo = int_of_float pos in
  let hi = min (n - 1) (lo + 1) in
  let frac = pos -. float_of_int lo in
  a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let median xs = quantile xs 0.5

(* Cost of the clock read that brackets a sampled call: the median of
   back-to-back read pairs. Sampled per-call timings subtract it. *)
let clock_overhead_ns () =
  let pairs =
    List.init 20_001 (fun _ ->
        let t0 = now_ns () in
        float_of_int (now_ns () - t0))
  in
  median pairs

(* [batched ~min_s f] calls [f] until at least [min_s] seconds have
   passed and returns the mean seconds per call with the last result.
   A call slower than [min_s] is timed once. *)
let batched ~min_s f =
  let t0 = now_ns () in
  let rec go k =
    let r = f () in
    let t = now_ns () in
    if seconds_between t0 t >= min_s then (seconds_between t0 t /. float_of_int k, r)
    else go (k + 1)
  in
  go 1

(* [repeat ~seconds f] calls [f 0], [f 1], ... and stops before a call
   that would, at the pace of the previous one, end after [seconds];
   it always makes at least one call. Results in call order. *)
let repeat ~seconds f =
  let t0 = now_ns () in
  let rec go i last acc =
    let elapsed = seconds_between t0 (now_ns ()) in
    if i > 0 && elapsed +. last > seconds then List.rev acc
    else begin
      let r = f i in
      go (i + 1) (seconds_between t0 (now_ns ()) -. elapsed) (r :: acc)
    end
  in
  go 0 0. []

(* The element of [xs] whose [key] is the (lower) median. *)
let median_by key xs =
  let sorted = List.sort (fun a b -> Float.compare (key a) (key b)) xs in
  List.nth sorted ((List.length sorted - 1) / 2)
