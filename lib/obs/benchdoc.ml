(* Writing, validation and regression diffing of rumor-bench/1
   documents. *)

(* --- writing --- *)

(* Best-effort git metadata so a record can be tied back to the commit
   that produced it. *)
let git_describe () =
  try
    let ic =
      Unix.open_process_in "git describe --always --dirty 2>/dev/null"
    in
    let line = try input_line ic with End_of_file -> "" in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 when line <> "" -> Json.String line
    | _ -> Json.Null
  with _ -> Json.Null

let experiment ~id ~title span data =
  let span_fields =
    match Metrics.span_to_json span with Json.Obj fs -> fs | _ -> []
  in
  Json.Obj
    ((("id", Json.String id) :: ("title", Json.String title) :: span_fields)
    @ [ ("data", data) ])

let document ?domains ?(truncated = false) ~quick ~reps experiments =
  Json.Obj
    ([
       ("schema", Json.String "rumor-bench/1");
       ("created_unix", Json.Float (Unix.gettimeofday ()));
       ("git", git_describe ());
       ("ocaml", Json.String Sys.ocaml_version);
       ("word_size", Json.Int Sys.word_size);
       ( "argv",
         Json.List (List.map (fun a -> Json.String a) (Array.to_list Sys.argv))
       );
       ("quick", Json.Bool quick);
       ("reps", Json.Int reps);
     ]
    @ (match domains with Some d -> [ ("domains", Json.Int d) ] | None -> [])
    @ [
        ("truncated", Json.Bool truncated);
        ("experiments", Json.List experiments);
      ])

let write path doc =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> Json.to_channel ~minify:false oc doc)

(* --- validation --- *)

type error = Empty_experiments | Malformed of string

let error_to_string = function
  | Empty_experiments -> "\"experiments\" is empty"
  | Malformed m -> m

let validate top =
  let errors = ref [] in
  let err e = errors := e :: !errors in
  let errf fmt = Printf.ksprintf (fun m -> err (Malformed m)) fmt in
  (match Option.bind (Json.member "schema" top) Json.to_string_opt with
  | Some "rumor-bench/1" -> ()
  | Some other -> errf "unknown schema %S" other
  | None -> errf "missing \"schema\"");
  List.iter
    (fun field ->
      if Json.member field top = None then errf "missing %S" field)
    [ "created_unix"; "git"; "ocaml"; "argv"; "quick"; "reps" ];
  (match Option.bind (Json.member "experiments" top) Json.to_list with
  | None -> errf "missing \"experiments\" array"
  | Some [] -> err Empty_experiments
  | Some exps ->
      List.iteri
        (fun i e ->
          let id =
            match Option.bind (Json.member "id" e) Json.to_string_opt with
            | Some id -> id
            | None ->
                errf "experiment %d: missing \"id\"" i;
                Printf.sprintf "#%d" i
          in
          List.iter
            (fun field ->
              match Option.bind (Json.member field e) Json.to_float with
              | Some s when s >= 0. -> ()
              | Some _ -> errf "%s: negative %S" id field
              | None -> errf "%s: missing %S" id field)
            [ "wall_s"; "cpu_s" ];
          (match Json.member "gc" e with
          | Some (Json.Obj _) -> ()
          | _ -> errf "%s: missing \"gc\" object" id);
          match Json.member "data" e with
          | Some (Json.Obj _) -> ()
          | _ -> errf "%s: missing \"data\" object" id)
        exps);
  List.rev !errors

(* --- regression diffing --- *)

(* Only metrics that are a pure function of the RNG streams are
   diffed against the baseline: timings, allocation and RSS vary by
   machine and are covered by gates, not by the diff. *)
let diffable_metrics =
  [ "coverage"; "rounds"; "tx_per_node"; "success_rate"; "epochs";
    "repair_tx_per_node" ]

type report = { failures : string list; notes : string list }

let experiment_id e =
  Option.value
    (Option.bind (Json.member "id" e) Json.to_string_opt)
    ~default:"?"

let experiments_of top =
  Option.value
    (Option.bind (Json.member "experiments" top) Json.to_list)
    ~default:[]

let truncated_of j =
  match Json.member "truncated" j with Some (Json.Bool b) -> b | _ -> false

let points_of e =
  match Option.bind (Json.member "data" e) (Json.member "points") with
  | Some (Json.List ps) -> Some ps
  | _ -> None

(* A point's identity is its coords object, order-insensitive; values
   are the literal axis strings the matrix wrote, so matching is exact
   (no float formatting drift). *)
let coords_key p =
  match Json.member "coords" p with
  | Some (Json.Obj fields) ->
      Some
        (fields
        |> List.map (fun (k, v) ->
               ( k,
                 match v with
                 | Json.String s -> s
                 | other -> Json.to_string other ))
        |> List.sort compare)
  | _ -> None

let coords_to_string key =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> k ^ " = " ^ v) key) ^ "}"

let metric_of p name =
  Option.bind
    (Option.bind (Json.member "metrics" p) (Json.member name))
    Json.to_float

let diff ~baseline ~candidate ~tolerance_pct =
  let failures = ref [] and notes = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  let note fmt = Printf.ksprintf (fun m -> notes := m :: !notes) fmt in
  let cand_truncated = truncated_of candidate in
  let cand_exps = experiments_of candidate in
  List.iter
    (fun b_exp ->
      let id = experiment_id b_exp in
      match points_of b_exp with
      | None -> note "%s: baseline has no matrix points; skipped" id
      | Some b_points -> begin
          match
            List.find_opt (fun e -> experiment_id e = id) cand_exps
          with
          | None ->
              if cand_truncated then
                note "%s: missing from truncated candidate" id
              else fail "%s: experiment missing from candidate" id
          | Some c_exp -> begin
              match points_of c_exp with
              | None -> fail "%s: candidate has no matrix points" id
              | Some c_points ->
                  let c_indexed =
                    List.filter_map
                      (fun p ->
                        match coords_key p with
                        | Some k -> Some (k, p)
                        | None ->
                            note "%s: candidate point without coords; skipped"
                              id;
                            None)
                      c_points
                  in
                  let seen = Hashtbl.create 16 in
                  List.iter
                    (fun b_point ->
                      match coords_key b_point with
                      | None ->
                          note "%s: baseline point without coords; skipped" id
                      | Some key -> begin
                          Hashtbl.replace seen key ();
                          let cell = coords_to_string key in
                          match List.assoc_opt key c_indexed with
                          | None ->
                              if cand_truncated || truncated_of b_point then
                                note "%s %s: missing from truncated run" id
                                  cell
                              else
                                fail "%s %s: cell missing from candidate" id
                                  cell
                          | Some c_point ->
                              List.iter
                                (fun m ->
                                  match
                                    ( metric_of b_point m,
                                      metric_of c_point m )
                                  with
                                  | Some bv, Some cv ->
                                      let denom =
                                        Float.max (Float.abs bv) 1e-9
                                      in
                                      let pct =
                                        100. *. Float.abs (cv -. bv) /. denom
                                      in
                                      if pct > tolerance_pct then
                                        fail
                                          "%s %s: %s drifted %.1f%% \
                                           (baseline %g, got %g, tolerance \
                                           %.0f%%)"
                                          id cell m pct bv cv tolerance_pct
                                  | Some _, None ->
                                      fail "%s %s: metric %S missing from \
                                            candidate"
                                        id cell m
                                  | None, _ -> ())
                                diffable_metrics
                        end)
                    b_points;
                  List.iter
                    (fun (key, _) ->
                      if not (Hashtbl.mem seen key) then
                        note "%s %s: new cell (not in baseline)" id
                          (coords_to_string key))
                    c_indexed
            end
        end)
    (experiments_of baseline);
  (* Gate failures recorded by the candidate run fail the diff even
     when every scalar matches: the gates are part of the contract. *)
  List.iter
    (fun e ->
      match
        Option.bind
          (Option.bind (Json.member "data" e) (Json.member "gates_failed"))
          Json.to_int
      with
      | Some g when g > 0 ->
          fail "%s: %d gate failure(s) recorded in candidate"
            (experiment_id e) g
      | _ -> ())
    cand_exps;
  { failures = List.rev !failures; notes = List.rev !notes }
