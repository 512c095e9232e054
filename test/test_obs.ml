(* Tests for the rumor_obs telemetry library: JSON encoding/escaping,
   the parser round-trip, metric spans and the result serializers. *)

module Json = Rumor_obs.Json
module Metrics = Rumor_obs.Metrics
module Encode = Rumor_obs.Encode
module Summary = Rumor_stats.Summary
module Trace = Rumor_sim.Trace

(* --- encoding --- *)

let test_scalars () =
  Alcotest.(check string) "null" "null" (Json.to_string Json.Null);
  Alcotest.(check string) "true" "true" (Json.to_string (Json.Bool true));
  Alcotest.(check string) "int" "-42" (Json.to_string (Json.Int (-42)));
  Alcotest.(check string) "float keeps a point" "1.0"
    (Json.to_string (Json.Float 1.));
  Alcotest.(check string) "float" "0.5" (Json.to_string (Json.Float 0.5));
  Alcotest.(check string) "nan is null" "null"
    (Json.to_string (Json.Float Float.nan));
  Alcotest.(check string) "inf is null" "null"
    (Json.to_string (Json.Float Float.infinity))

let test_escaping () =
  Alcotest.(check string) "quotes and backslash" "a\\\"b\\\\c"
    (Json.escape_string "a\"b\\c");
  Alcotest.(check string) "newline tab" "l1\\nl2\\tend"
    (Json.escape_string "l1\nl2\tend");
  Alcotest.(check string) "control byte" "\\u0001"
    (Json.escape_string "\001");
  Alcotest.(check string) "encoded string" "\"say \\\"hi\\\"\""
    (Json.to_string (Json.String "say \"hi\""))

let test_nesting () =
  let v =
    Json.Obj
      [
        ("id", Json.String "E1");
        ("sizes", Json.List [ Json.Int 1024; Json.Int 4096 ]);
        ("nested", Json.Obj [ ("empty_list", Json.List []); ("e", Json.Obj []) ]);
      ]
  in
  Alcotest.(check string) "minified"
    "{\"id\":\"E1\",\"sizes\":[1024,4096],\"nested\":{\"empty_list\":[],\"e\":{}}}"
    (Json.to_string v);
  let pretty = Json.to_string ~minify:false v in
  Alcotest.(check bool) "pretty has newlines" true
    (String.contains pretty '\n');
  (* Pretty and minified parse to the same value. *)
  Alcotest.(check bool) "pretty parses to same" true
    (Json.of_string pretty = Ok v)

(* --- parsing --- *)

let test_parse_round_trip () =
  let cases =
    [
      Json.Null;
      Json.Bool false;
      Json.Int 123456789;
      Json.Float (-0.125);
      Json.String "phase \"4\"\n\ttab\\slash";
      Json.List [ Json.Int 1; Json.List [ Json.Null ]; Json.Obj [] ];
      Json.Obj
        [
          ("a", Json.Float 2.5);
          ("b", Json.List [ Json.Bool true ]);
          ("weird key \"x\"", Json.String "");
        ];
    ]
  in
  List.iter
    (fun v ->
      match Json.of_string (Json.to_string v) with
      | Ok v' -> Alcotest.(check bool) "round trip" true (v = v')
      | Error e -> Alcotest.fail e)
    cases

let test_parse_errors () =
  let bad s =
    match Json.of_string s with
    | Ok _ -> Alcotest.fail (Printf.sprintf "%S should not parse" s)
    | Error _ -> ()
  in
  bad "";
  bad "{";
  bad "[1,]";
  bad "{\"a\" 1}";
  bad "tru";
  bad "\"unterminated";
  bad "1 2"

let test_parse_unicode_escape () =
  match Json.of_string "\"a\\u00e9b\"" with
  | Ok (Json.String s) -> Alcotest.(check string) "utf8" "a\xc3\xa9b" s
  | _ -> Alcotest.fail "unicode escape did not parse"

let test_accessors () =
  let v =
    Json.Obj [ ("n", Json.Int 5); ("xs", Json.List [ Json.Float 1.5 ]) ]
  in
  Alcotest.(check (option int)) "member int" (Some 5)
    (Option.bind (Json.member "n" v) Json.to_int);
  Alcotest.(check bool) "int coerces to float" true
    (Option.bind (Json.member "n" v) Json.to_float = Some 5.);
  Alcotest.(check (option int)) "missing" None
    (Option.bind (Json.member "zzz" v) Json.to_int)

(* --- metrics --- *)

let test_timed_span () =
  let x, span = Metrics.timed (fun () -> Array.init 100_000 (fun i -> i)) in
  Alcotest.(check int) "result threads through" 100_000 (Array.length x);
  Alcotest.(check bool) "wall time non-negative" true (span.Metrics.wall_s >= 0.);
  Alcotest.(check bool) "allocated" true (span.Metrics.minor_words > 0.);
  match Json.member "gc" (Metrics.span_to_json span) with
  | Some (Json.Obj _) -> ()
  | _ -> Alcotest.fail "span json has no gc object"

(* --- serializers --- *)

let test_summary_schema () =
  let s = Summary.of_list [ 1.; 2.; 3.; 4. ] in
  let j = Encode.summary s in
  let field name =
    match Option.bind (Json.member name j) Json.to_float with
    | Some f -> f
    | None -> Alcotest.fail ("missing field " ^ name)
  in
  Alcotest.(check (float 1e-9)) "mean" 2.5 (field "mean");
  Alcotest.(check (float 1e-9)) "min" 1. (field "min");
  Alcotest.(check (float 1e-9)) "max" 4. (field "max");
  Alcotest.(check (option int)) "count" (Some 4)
    (Option.bind (Json.member "count" j) Json.to_int)

let test_engine_result_schema () =
  let rng = Rumor_rng.Rng.create 7 in
  let g = Rumor_gen.Classic.complete 32 in
  let res =
    Rumor_core.Run.once ~rng ~graph:g
      ~protocol:(Rumor_core.Baselines.push ~horizon:100 ())
      ~source:0 ()
  in
  let j = Encode.engine_result res in
  List.iter
    (fun name ->
      if Json.member name j = None then
        Alcotest.fail ("missing field " ^ name))
    [
      "rounds"; "completion_round"; "informed"; "population"; "push_tx";
      "pull_tx"; "channels"; "success";
    ];
  Alcotest.(check (option int)) "informed" (Some 32)
    (Option.bind (Json.member "informed" j) Json.to_int)

let test_trace_ndjson () =
  let t = Trace.create () in
  Trace.add t
    {
      Trace.round = 1; informed = 2; newly = 1; push_tx = 1; pull_tx = 0;
      channels = 4;
    };
  Trace.add t
    {
      Trace.round = 2; informed = 5; newly = 3; push_tx = 2; pull_tx = 1;
      channels = 8;
    };
  let nd = Encode.trace_ndjson t in
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' nd)
  in
  Alcotest.(check int) "one line per row" 2 (List.length lines);
  (* Every line is itself a valid JSON object with the row schema. *)
  List.iteri
    (fun i line ->
      match Json.of_string line with
      | Ok row ->
          Alcotest.(check (option int))
            (Printf.sprintf "round of line %d" i)
            (Some (i + 1))
            (Option.bind (Json.member "round" row) Json.to_int)
      | Error e -> Alcotest.fail ("line does not parse: " ^ e))
    lines

(* --- parser hardening: nesting depth and trailing garbage --- *)

let expect_error what = function
  | Ok _ -> Alcotest.failf "expected a parse error: %s" what
  | Error e ->
      Alcotest.(check bool)
        (what ^ ": error carries a message")
        true
        (String.length e > 0)

let nested_arrays depth =
  String.concat ""
    (List.init depth (fun _ -> "[")
    @ [ "0" ]
    @ List.init depth (fun _ -> "]"))

let test_parse_depth_limit () =
  (* A crafted megabyte of '[' must be rejected, not recursed into:
     this is the NDJSON hostile-input case the serve layer feeds the
     parser. An unbounded parser stack-overflows here. *)
  let bomb = String.make 100_000 '[' in
  expect_error "100k open brackets" (Json.of_string bomb);
  (* The default bound sits at 256 open containers. *)
  (match Json.of_string (nested_arrays Json.default_max_depth) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "depth = bound should parse: %s" e);
  expect_error "bound + 1"
    (Json.of_string (nested_arrays (Json.default_max_depth + 1)));
  (* Objects count toward the same bound as arrays. *)
  let deep_obj =
    String.concat ""
      (List.init 300 (fun _ -> {|{"k":|}) @ [ "0" ]
      @ List.init 300 (fun _ -> "}"))
  in
  expect_error "300 nested objects" (Json.of_string deep_obj)

let test_parse_depth_custom () =
  (match Json.of_string ~max_depth:2 {|{"a":[1,2]}|} with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "depth-2 value under bound 2: %s" e);
  expect_error "bound 2, depth 3" (Json.of_string ~max_depth:2 {|{"a":[[1]]}|});
  expect_error "bound 1 rejects any nesting"
    (Json.of_string ~max_depth:1 {|[[0]]|});
  Alcotest.check_raises "max_depth 0 invalid"
    (Invalid_argument "Json.of_string: max_depth must be >= 1") (fun () ->
      ignore (Json.of_string ~max_depth:0 "1"))

let test_parse_trailing_garbage () =
  (* Trailing whitespace is fine... *)
  (match Json.of_string "{\"a\":1}  \n\t " with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "trailing whitespace: %s" e);
  (* ...but anything else after the value is an error, with an offset. *)
  expect_error "second value" (Json.of_string {|{"a":1} {"b":2}|});
  expect_error "stray bytes" (Json.of_string "true x");
  expect_error "concatenated scalars" (Json.of_string "1 2");
  expect_error "close bracket surplus" (Json.of_string "[1]]")

(* --- latency histogram --- *)

module Latency = Rumor_obs.Latency

let test_latency_quantiles () =
  let t = Latency.create () in
  Alcotest.(check int) "empty count" 0 (Latency.count t);
  Alcotest.(check (float 0.)) "empty quantile" 0. (Latency.quantile t 0.5);
  (* 100 samples of 1ms..100ms: log-bucketed quantiles carry ~9%
     relative error, so check envelopes rather than exact ranks. *)
  for i = 1 to 100 do
    Latency.add t (float_of_int i *. 1e-3)
  done;
  Alcotest.(check int) "count" 100 (Latency.count t);
  Alcotest.(check (float 1e-12)) "exact max" 0.1 (Latency.max_seen t);
  Alcotest.(check (float 1e-12)) "q1 = max" 0.1 (Latency.quantile t 1.0);
  let p50 = Latency.quantile t 0.5 in
  Alcotest.(check bool) "p50 in envelope" true (p50 > 0.04 && p50 < 0.062);
  let p99 = Latency.quantile t 0.99 in
  Alcotest.(check bool) "p99 in envelope" true (p99 > 0.085 && p99 <= 0.1);
  Alcotest.(check bool) "mean exact-ish" true
    (abs_float (Latency.mean t -. 0.0505) < 1e-9);
  (* monotone in q *)
  let qs = [ 0.0; 0.25; 0.5; 0.75; 0.9; 0.99; 1.0 ] in
  let vals = List.map (Latency.quantile t) qs in
  let rec mono = function
    | a :: (b :: _ as rest) -> a <= b && mono rest
    | _ -> true
  in
  Alcotest.(check bool) "quantiles monotone" true (mono vals)

let test_latency_merge_and_json () =
  let a = Latency.create () and b = Latency.create () in
  for i = 1 to 50 do
    Latency.add a (float_of_int i *. 1e-3)
  done;
  for i = 51 to 100 do
    Latency.add b (float_of_int i *. 1e-3)
  done;
  let whole = Latency.create () in
  for i = 1 to 100 do
    Latency.add whole (float_of_int i *. 1e-3)
  done;
  Latency.merge_into ~dst:a b;
  Alcotest.(check int) "merged count" 100 (Latency.count a);
  Alcotest.(check (float 1e-12)) "merged max" (Latency.max_seen whole)
    (Latency.max_seen a);
  List.iter
    (fun q ->
      Alcotest.(check (float 1e-12))
        (Printf.sprintf "merge = bulk at q=%g" q)
        (Latency.quantile whole q) (Latency.quantile a q))
    [ 0.5; 0.9; 0.99 ];
  match Latency.to_json a with
  | Json.Obj fields ->
      List.iter
        (fun k ->
          Alcotest.(check bool) ("field " ^ k) true (List.mem_assoc k fields))
        [ "count"; "mean_ms"; "p50_ms"; "p90_ms"; "p99_ms"; "max_ms" ];
      Alcotest.(check (option int)) "count field" (Some 100)
        (Option.bind (Json.member "count" (Json.Obj fields)) Json.to_int)
  | _ -> Alcotest.fail "to_json not an object"

let test_latency_rejects_non_finite () =
  let t = Latency.create () in
  Alcotest.check_raises "nan" (Invalid_argument "Latency.add: non-finite sample")
    (fun () -> Latency.add t Float.nan);
  Latency.add t (-1.);
  Alcotest.(check (float 0.)) "negative clamps to 0" 0. (Latency.max_seen t)

let () =
  Alcotest.run "rumor_obs"
    [
      ( "json-encode",
        [
          Alcotest.test_case "scalars" `Quick test_scalars;
          Alcotest.test_case "escaping" `Quick test_escaping;
          Alcotest.test_case "nesting" `Quick test_nesting;
        ] );
      ( "json-parse",
        [
          Alcotest.test_case "round trip" `Quick test_parse_round_trip;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "unicode escape" `Quick test_parse_unicode_escape;
          Alcotest.test_case "accessors" `Quick test_accessors;
          Alcotest.test_case "depth limit" `Quick test_parse_depth_limit;
          Alcotest.test_case "depth custom bound" `Quick
            test_parse_depth_custom;
          Alcotest.test_case "trailing garbage" `Quick
            test_parse_trailing_garbage;
        ] );
      ( "latency",
        [
          Alcotest.test_case "quantiles" `Quick test_latency_quantiles;
          Alcotest.test_case "merge + json" `Quick test_latency_merge_and_json;
          Alcotest.test_case "rejects non-finite" `Quick
            test_latency_rejects_non_finite;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "timed span" `Quick test_timed_span;
        ] );
      ( "serializers",
        [
          Alcotest.test_case "summary schema" `Quick test_summary_schema;
          Alcotest.test_case "engine result schema" `Quick
            test_engine_result_schema;
          Alcotest.test_case "trace ndjson" `Quick test_trace_ndjson;
        ] );
    ]
