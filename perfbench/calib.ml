(* The host's speed, read next to every repetition.

   The benchmark runs on shared hosts whose speed drifts by half or
   more over minutes, with the program unchanged, and code that lives
   in a core's own cache slows less than code that reads a shared
   cache. So every timed repetition is bracketed by a fixed amount of
   reference work of the workload's own kind, and its timings are
   scaled by [(reference_s /. measured) ** sensitivity]: they read as
   seconds at the speed the reference time was taken at (see
   README.md), not at whatever speed this host runs now.

   The reference work is the benchmark's own code and calls nothing of
   the repository, so no change to the program can move it: a
   multiply-xorshift hash chain (like the implicit view's Feistel
   rounds) whose values index a table, with short-lived allocation
   (like per-rep set-up). The table is 32 KiB for [Cache], in a core's
   own caches like a workload whose per-node state fits there, and
   8 MiB for [Memory], like a CSR adjacency read from the shared
   cache. *)

type kind = Cache | Memory

(* A workload's reference kind, and how strongly its broadcast or grid
   time follows the reference time as the host's load changes: the
   exponent that fits the workload's raw times to the readings over
   runs on a quiet and on a busy host (README.md). *)
type host = { kind : kind; sensitivity : float }

(* The same for set-up, which fits about the same on every workload. *)
let setup_sensitivity = 1.5

let wall host scale t = t *. (scale ** host.sensitivity)
let setup scale t = t *. (scale ** setup_sensitivity)

let table_words = function Cache -> 1 lsl 12 | Memory -> 1 lsl 20

(* Steps of one reference unit, so that either kind takes about
   [reference_s] on the reference host. *)
let steps = function Cache -> 8_000_000 | Memory -> 420_000

(* Wall seconds of one reference unit on the reference host. *)
let reference_s = 0.045

let work table ~steps seed =
  let mask = Array.length table - 1 in
  let x = ref seed and live = ref [] and length = ref 0 in
  for k = 1 to steps do
    let z = !x * 0x2545F4914F6CDD1D in
    let z = z lxor (z lsr 29) in
    let i = z land mask in
    let v = Array.unsafe_get table i in
    Array.unsafe_set table i (v + z);
    x := z + v + k;
    if k land 7 = 0 then begin
      live := (k, !x) :: !live;
      incr length;
      if !length = 256 then begin
        live := [];
        length := 0
      end
    end
  done;
  !x + List.length !live

type t = { kind : kind; table : int array; mutable sink : int }

(* Wall seconds of one reference unit now. An untimed sweep first
   brings the whole table back into the cache the workload evicted it
   from. *)
let time t =
  let warm = Array.fold_left ( + ) t.sink t.table in
  let t0 = Timing.now_ns () in
  t.sink <- work t.table ~steps:(steps t.kind) (warm land 0xffff);
  Timing.seconds_between t0 (Timing.now_ns ())

(* The table is touched before any reading, so page faults are not
   read as host speed. *)
let create kind =
  let t = { kind; table = Array.make (table_words kind) 1; sink = 0 } in
  ignore (time t);
  t

(* [repeat host ~seconds f] calls [f 0], [f 1], ... like
   [Timing.repeat ~seconds f], with the host read after every call.
   Each result comes with the scale for that call: the reference time
   over the mean of the readings just before and just after the call
   (call 0 has only the one after it); [wall] and [setup] apply it. Call 0 runs
   before the reference table exists, so the peak RSS returned, read
   right after it, is the workload's alone. *)
let repeat (host : host) ~seconds f =
  let t0 = Timing.now_ns () in
  let first = f 0 in
  let peak_rss_kb = Rumor_obs.Metrics.peak_rss_kb () in
  let t = create host.kind in
  let before = ref (time t) in
  let first = (reference_s /. !before, first) in
  let used = Timing.seconds_between t0 (Timing.now_ns ()) in
  let rest =
    Timing.repeat ~seconds:(seconds -. used) (fun i ->
        let r = f (i + 1) in
        let after = time t in
        let scale = reference_s /. ((!before +. after) /. 2.) in
        before := after;
        (scale, r))
  in
  (peak_rss_kb, first :: rest)
