(* Tests for the rumor_stats library: summaries, regression,
   tables and experiment replication. *)

module Rng = Rumor_rng.Rng
module Summary = Rumor_stats.Summary
module Regression = Rumor_stats.Regression
module Table = Rumor_stats.Table
module Experiment = Rumor_stats.Experiment

let checkf = Alcotest.(check (float 1e-9))

(* --- Summary --- *)

let test_summary_known () =
  let s = Summary.of_list [ 1.; 2.; 3.; 4.; 5. ] in
  Alcotest.(check int) "count" 5 s.Summary.count;
  checkf "mean" 3. s.Summary.mean;
  checkf "min" 1. s.Summary.min;
  checkf "max" 5. s.Summary.max;
  checkf "median" 3. s.Summary.median;
  (* Sample stddev of 1..5 is sqrt(2.5). *)
  checkf "stddev" (sqrt 2.5) s.Summary.stddev

let test_summary_singleton () =
  let s = Summary.of_list [ 7. ] in
  checkf "mean" 7. s.Summary.mean;
  checkf "stddev" 0. s.Summary.stddev;
  checkf "ci" 0. (Summary.ci95_halfwidth s);
  checkf "median" 7. s.Summary.median

let test_summary_empty () =
  Alcotest.check_raises "empty" (Invalid_argument "Summary.of_array: empty sample")
    (fun () -> ignore (Summary.of_array [||]))

let test_summary_unsorted_input () =
  let s = Summary.of_list [ 5.; 1.; 3.; 2.; 4. ] in
  checkf "median of unsorted" 3. s.Summary.median;
  checkf "p10" 1.4 s.Summary.p10;
  checkf "p90" 4.6 s.Summary.p90

let test_summary_of_ints () =
  let s = Summary.of_ints [ 2; 4; 6 ] in
  checkf "mean" 4. s.Summary.mean

let test_percentile () =
  let sorted = [| 10.; 20.; 30.; 40. |] in
  checkf "p0" 10. (Summary.percentile sorted 0.);
  checkf "p100" 40. (Summary.percentile sorted 1.);
  checkf "p50 interpolates" 25. (Summary.percentile sorted 0.5);
  Alcotest.check_raises "q out of range"
    (Invalid_argument "Summary.percentile: q out of range") (fun () ->
      ignore (Summary.percentile sorted 1.5))

let test_ci_shrinks () =
  let wide = Summary.of_list [ 0.; 10. ] in
  let narrow = Summary.of_list [ 0.; 10.; 0.; 10.; 0.; 10.; 0.; 10. ] in
  Alcotest.(check bool) "more samples tighter ci" true
    (Summary.ci95_halfwidth narrow < Summary.ci95_halfwidth wide)

let test_summary_pp () =
  let s = Summary.of_list [ 1.; 2.; 3. ] in
  let str = Format.asprintf "%a" Summary.pp s in
  Alcotest.(check bool) "non-empty" true (String.length str > 0)

let test_summary_nan_ordering () =
  (* Float.compare sorts NaN below every number, so the finite order
     statistics of a NaN-free sample are unaffected by the sort being
     total — and a NaN sample cannot silently scramble the array the
     way polymorphic compare could. *)
  let s = Summary.of_list [ 3.; 1.; 2. ] in
  checkf "min" 1. s.Summary.min;
  checkf "max" 3. s.Summary.max;
  let with_nan = Summary.of_list [ 2.; Float.nan; 1. ] in
  checkf "nan sorts first" 2. with_nan.Summary.max

(* --- Regression --- *)

let test_linear_exact () =
  let fit = Regression.linear [ (0., 1.); (1., 3.); (2., 5.) ] in
  checkf "slope" 2. fit.Regression.slope;
  checkf "intercept" 1. fit.Regression.intercept;
  checkf "r2" 1. fit.Regression.r2

let test_linear_noise () =
  let rng = Rng.create 1 in
  let points =
    List.init 200 (fun i ->
        let x = float_of_int i in
        (x, (3. *. x) +. 7. +. Rumor_rng.Dist.normal rng ~mu:0. ~sigma:0.5))
  in
  let fit = Regression.linear points in
  Alcotest.(check bool) "slope near 3" true (abs_float (fit.Regression.slope -. 3.) < 0.02);
  Alcotest.(check bool) "good r2" true (fit.Regression.r2 > 0.99)

let test_linear_validation () =
  Alcotest.check_raises "one point"
    (Invalid_argument "Regression.linear: need >= 2 points") (fun () ->
      ignore (Regression.linear [ (1., 1.) ]));
  Alcotest.check_raises "zero x variance"
    (Invalid_argument "Regression.linear: zero variance in x") (fun () ->
      ignore (Regression.linear [ (1., 1.); (1., 2.) ]))

let test_loglog_exponent () =
  (* y = 5 x^2 exactly. *)
  let points = List.init 10 (fun i ->
      let x = float_of_int (i + 1) in
      (x, 5. *. x *. x))
  in
  let fit = Regression.loglog points in
  Alcotest.(check bool) "exponent 2" true (abs_float (fit.Regression.slope -. 2.) < 1e-9);
  Alcotest.check_raises "nonpositive"
    (Invalid_argument "Regression.loglog: non-positive data") (fun () ->
      ignore (Regression.loglog [ (1., 0.); (2., 1.) ]))

let test_semilogx_slope () =
  (* y = 4 log2 x + 1. *)
  let points =
    List.map (fun x -> (x, (4. *. (log x /. log 2.)) +. 1.)) [ 2.; 4.; 8.; 16. ]
  in
  let fit = Regression.semilogx points in
  checkf "slope per doubling" 4. fit.Regression.slope;
  checkf "intercept" 1. fit.Regression.intercept

(* --- Table --- *)

let test_table_render () =
  let t = Table.create ~columns:[ ("name", Table.Left); ("value", Table.Right) ] in
  Table.add_row t [ "push"; "12" ];
  Table.add_row t [ "pull-variant"; "3" ];
  let s = Table.render t in
  let lines = String.split_on_char '\n' s in
  Alcotest.(check int) "header + rule + 2 rows" 4 (List.length lines);
  (* Right-aligned column: both data lines end at the same column. *)
  (match lines with
  | _ :: _ :: a :: b :: _ ->
      Alcotest.(check int) "aligned widths" (String.length a) (String.length b)
  | _ -> Alcotest.fail "unexpected shape");
  Alcotest.(check bool) "contains header" true
    (String.length s >= 4 && String.sub s 0 4 = "name")

let test_table_width_mismatch () =
  let t = Table.create ~columns:[ ("a", Table.Left) ] in
  Alcotest.check_raises "width" (Invalid_argument "Table.add_row: width mismatch")
    (fun () -> Table.add_row t [ "1"; "2" ])

let test_table_float_rows () =
  let t = Table.create ~columns:[ ("x", Table.Right); ("y", Table.Right) ] in
  Table.add_float_row t ~decimals:1 [ 1.25; 2.0 ];
  let s = Table.render t in
  Alcotest.(check bool) "formats decimals" true
    (String.length s > 0
    &&
    let found = ref false in
    String.iteri
      (fun i _ ->
        if i + 3 <= String.length s && String.sub s i 3 = "1.2" then found := true)
      s;
    !found)

let test_table_empty_columns () =
  Alcotest.check_raises "no columns" (Invalid_argument "Table.create: no columns")
    (fun () -> ignore (Table.create ~columns:[]))

(* --- Experiment --- *)

let test_replicate_deterministic () =
  let f rng = Rng.float rng in
  let a = Experiment.replicate ~seed:5 ~reps:10 f in
  let b = Experiment.replicate ~seed:5 ~reps:10 f in
  Alcotest.(check (list (float 1e-12))) "same seed same values" a b

let test_replicate_independent_reps () =
  let vals = Experiment.replicate ~seed:6 ~reps:20 (fun rng -> Rng.float rng) in
  let distinct = List.sort_uniq compare vals in
  Alcotest.(check int) "all reps distinct" 20 (List.length distinct)

let test_replicate_validation () =
  Alcotest.check_raises "reps" (Invalid_argument "Experiment.replicate: reps < 1")
    (fun () -> ignore (Experiment.replicate ~seed:1 ~reps:0 (fun _ -> ())))

let test_summarize () =
  let s = Experiment.summarize ~seed:7 ~reps:1000 (fun rng -> Rng.float rng) in
  Alcotest.(check int) "count" 1000 s.Summary.count;
  Alcotest.(check bool) "mean near 0.5" true (abs_float (s.Summary.mean -. 0.5) < 0.05)

let test_success_rate () =
  let r = Experiment.success_rate ~seed:8 ~reps:2000 (fun rng -> Rng.bernoulli rng 0.25) in
  Alcotest.(check bool) "near 0.25" true (abs_float (r -. 0.25) < 0.04);
  checkf "always true" 1. (Experiment.success_rate ~seed:9 ~reps:10 (fun _ -> true))

(* --- graceful interruption --- *)

let clear_interrupt_flag () =
  (* The flag deliberately survives [with_interrupt_signals]; entering
     an empty scope is the supported way to reset it between tests. *)
  Experiment.with_interrupt_signals (fun () -> ())

let test_interrupt_pre_set_empty_prefix () =
  Fun.protect ~finally:clear_interrupt_flag (fun () ->
      Experiment.with_interrupt_signals (fun () ->
          Alcotest.(check bool) "flag cleared on entry" false
            (Experiment.interrupted ());
          Experiment.request_interrupt ();
          Alcotest.(check bool) "flag set" true (Experiment.interrupted ());
          let r =
            Experiment.replicate ~seed:21 ~reps:40 (fun rng -> Rng.float rng)
          in
          Alcotest.(check int) "pre-interrupted run: empty prefix" 0
            (List.length r);
          let rp =
            Experiment.replicate_parallel ~domains:3 ~seed:21 ~reps:40
              (fun rng -> Rng.float rng)
          in
          Alcotest.(check int) "parallel too" 0 (List.length rp);
          (* the completed-subset divisor must stay safe on empty *)
          checkf "success_rate of nothing is 0, not nan" 0.
            (Experiment.success_rate ~seed:9 ~reps:10 (fun _ -> true)));
      Alcotest.(check bool) "flag survives scope exit" true
        (Experiment.interrupted ()))

let test_interrupt_self_signal_partial () =
  (* The signal path end-to-end, self-inflicted: repetition 10 sends
     SIGTERM to our own pid; the installed handler sets the flag and the
     replication must return the completed prefix — bit-identical to the
     uninterrupted run — instead of dying or running to completion. *)
  Fun.protect ~finally:clear_interrupt_flag (fun () ->
      let full =
        Experiment.replicate ~seed:22 ~reps:30 (fun rng -> Rng.float rng)
      in
      let count = ref 0 in
      let partial =
        Experiment.with_interrupt_signals (fun () ->
            Experiment.replicate ~seed:22 ~reps:30 (fun rng ->
                let v = Rng.float rng in
                incr count;
                if !count = 10 then Unix.kill (Unix.getpid ()) Sys.sigterm;
                (* touch the allocator so the pending handler runs *)
                ignore (Sys.opaque_identity (Bytes.create 64));
                v))
      in
      Alcotest.(check bool) "interruption observed" true
        (Experiment.interrupted ());
      Alcotest.(check bool) "partial, not the full run" true
        (List.length partial < 30);
      Alcotest.(check bool) "at least the signalling rep completed" true
        (List.length partial >= 10);
      List.iteri
        (fun i v ->
          checkf
            (Printf.sprintf "prefix rep %d bit-identical" i)
            (List.nth full i) v)
        partial)

let test_interrupt_parallel_partial_no_orphans () =
  (* Interrupt mid-flight across domains: the call must join every
     domain (a leak would hang this test), return a strict subset, and
     every completed repetition must match its uninterrupted
     counterpart because streams are pre-forked. *)
  Fun.protect ~finally:clear_interrupt_flag (fun () ->
      let full =
        Experiment.replicate ~seed:23 ~reps:40 (fun rng -> Rng.float rng)
      in
      let started = Atomic.make 0 in
      let partial =
        Experiment.with_interrupt_signals (fun () ->
            Experiment.replicate_parallel ~domains:3 ~seed:23 ~reps:40
              (fun rng ->
                if Atomic.fetch_and_add started 1 = 5 then
                  Experiment.request_interrupt ();
                Rng.float rng))
      in
      Alcotest.(check bool) "some repetitions completed" true (partial <> []);
      Alcotest.(check bool) "a strict subset" true (List.length partial < 40);
      List.iter
        (fun v ->
          Alcotest.(check bool) "value from the uninterrupted run" true
            (List.exists (fun w -> w = v) full))
        partial)

(* --- qcheck properties --- *)

let nonempty_floats =
  QCheck.(list_of_size Gen.(int_range 1 50) (float_bound_exclusive 1000.))

let prop_summary_bounds =
  QCheck.Test.make ~count:200 ~name:"mean and median lie within [min, max]"
    nonempty_floats
    (fun l ->
      let s = Summary.of_list l in
      s.Summary.min <= s.Summary.mean
      && s.Summary.mean <= s.Summary.max
      && s.Summary.min <= s.Summary.median
      && s.Summary.median <= s.Summary.max)

let prop_summary_shift =
  QCheck.Test.make ~count:200 ~name:"shifting data shifts the mean"
    QCheck.(pair nonempty_floats (float_bound_exclusive 100.))
    (fun (l, c) ->
      let s1 = Summary.of_list l in
      let s2 = Summary.of_list (List.map (fun x -> x +. c) l) in
      abs_float (s2.Summary.mean -. (s1.Summary.mean +. c)) < 1e-6)

let prop_regression_recovers_line =
  QCheck.Test.make ~count:100 ~name:"regression is exact on exact lines"
    QCheck.(pair (float_range (-10.) 10.) (float_range (-10.) 10.))
    (fun (a, b) ->
      let points = List.init 5 (fun i ->
          let x = float_of_int i in
          (x, (a *. x) +. b))
      in
      let fit = Regression.linear points in
      abs_float (fit.Regression.slope -. a) < 1e-9
      && abs_float (fit.Regression.intercept -. b) < 1e-9)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_summary_bounds;
      prop_summary_shift;
      prop_regression_recovers_line;
    ]

let () =
  Alcotest.run "rumor_stats"
    [
      ( "summary",
        [
          Alcotest.test_case "known values" `Quick test_summary_known;
          Alcotest.test_case "singleton" `Quick test_summary_singleton;
          Alcotest.test_case "empty" `Quick test_summary_empty;
          Alcotest.test_case "unsorted input" `Quick test_summary_unsorted_input;
          Alcotest.test_case "of_ints" `Quick test_summary_of_ints;
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "ci shrinks" `Quick test_ci_shrinks;
          Alcotest.test_case "nan ordering" `Quick test_summary_nan_ordering;
          Alcotest.test_case "pp" `Quick test_summary_pp;
        ] );
      ( "regression",
        [
          Alcotest.test_case "linear exact" `Quick test_linear_exact;
          Alcotest.test_case "linear noise" `Quick test_linear_noise;
          Alcotest.test_case "validation" `Quick test_linear_validation;
          Alcotest.test_case "loglog exponent" `Quick test_loglog_exponent;
          Alcotest.test_case "semilogx slope" `Quick test_semilogx_slope;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "width mismatch" `Quick test_table_width_mismatch;
          Alcotest.test_case "float rows" `Quick test_table_float_rows;
          Alcotest.test_case "empty columns" `Quick test_table_empty_columns;
        ] );
      ( "experiment",
        [
          Alcotest.test_case "deterministic" `Quick test_replicate_deterministic;
          Alcotest.test_case "independent reps" `Quick test_replicate_independent_reps;
          Alcotest.test_case "validation" `Quick test_replicate_validation;
          Alcotest.test_case "summarize" `Quick test_summarize;
          Alcotest.test_case "success rate" `Quick test_success_rate;
        ] );
      ( "interruption",
        [
          Alcotest.test_case "pre-set flag: empty prefix" `Quick
            test_interrupt_pre_set_empty_prefix;
          Alcotest.test_case "self-signal: partial prefix" `Quick
            test_interrupt_self_signal_partial;
          Alcotest.test_case "parallel: subset, no orphans" `Quick
            test_interrupt_parallel_partial_no_orphans;
        ] );
      ("properties", qcheck_cases);
    ]
