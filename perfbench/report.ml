(* Metric records and the benchmark's output: a human table, then the
   result object as the last line of stdout. *)

type metric = {
  name : string;
  unit_ : string;
  value : float;
  origin : origin;
}

and origin =
  | Measured  (** read off the run *)
  | Computed
      (** derived from side timings, samples or other metrics, not read
          off one clock interval around the measured call *)
  | Absent  (** the workload does not reach this layer; reads 0 *)

let metric ?(computed = false) name unit_ value =
  { name; unit_; value; origin = (if computed then Computed else Measured) }
let count name v = metric name "count" (float_of_int v)

type outcome = {
  attempted : int;  (** runs started *)
  failures : string list;  (** failed checks; a run may fail several *)
  metrics : metric list;
}

(* Runs counted as failed: one per failed check, at most every run. *)
let failed o = min o.attempted (List.length o.failures)

let json o =
  let open Rumor_obs.Json in
  let failed = failed o in
  Obj
    [
      ("correct", Bool (failed = 0));
      ("attempted", Int o.attempted);
      ("failed", Int failed);
      ( "metrics",
        Obj
          (List.map
             (fun m ->
               (m.name, Obj [ ("value", Float m.value); ("unit", String m.unit_) ]))
             o.metrics) );
    ]

let print o =
  List.iter (fun f -> Printf.printf "FAILED  %s\n" f) o.failures;
  List.iter
    (fun m ->
      Printf.printf "%-32s %16.6g %-8s%s\n" m.name m.value m.unit_
        (match m.origin with
        | Measured -> ""
        | Computed -> " (computed)"
        | Absent -> " (not measured on this workload)"))
    o.metrics;
  Printf.printf "attempted %d, failed %d\n" o.attempted (failed o);
  print_endline (Rumor_obs.Json.to_string (json o))
