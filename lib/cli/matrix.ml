module Rng = Rumor_rng.Rng
module Splitmix64 = Rumor_rng.Splitmix64
module Engine = Rumor_sim.Engine
module Experiment = Rumor_stats.Experiment
module Table = Rumor_stats.Table
module Json = Rumor_obs.Json

(* --- the matrix language ---

   A matrix file is a scenario file plus three directives:

     sweep key = a, b, c [seed+=N]   a grid axis (ranges: 1k..64k *2)
     zip   key = x, y, z             rides the most recent sweep axis
     expect metric >= bound          a per-cell gate

   and three matrix-only assignments: [id], [title] and [mode]
   (kernel | service). Everything else is a plain scenario key and
   becomes the base every cell is built from. *)

type mode = Kernel | Service

type axis = {
  axis_key : string;
  values : string list;
  stride : int;  (** seed offset per index (offset seed mode); 0 otherwise *)
  zips : (string * string list) list;
}

type op = Ge | Le | Gt | Lt | Eq

type gate = { metric : string; op : op; bound : float }

type spec = {
  id : string;
  title : string;
  mode : mode;
  base : Scenario.t;
  service_base : (string * string) list;
  axes : axis list;
  gates : gate list;
  offset_seeds : bool;
}

type cell = {
  cell_index : int;
  coords : (string * string) list;
  scenario : Scenario.t;
  service : (string * string) list;
  cell_seed : int;
}

let op_of_string = function
  | ">=" -> Some Ge
  | "<=" -> Some Le
  | ">" -> Some Gt
  | "<" -> Some Lt
  | "==" -> Some Eq
  | _ -> None

let op_to_string = function
  | Ge -> ">="
  | Le -> "<="
  | Gt -> ">"
  | Lt -> "<"
  | Eq -> "=="

let gate_holds g observed =
  match g.op with
  | Ge -> observed >= g.bound
  | Le -> observed <= g.bound
  | Gt -> observed > g.bound
  | Lt -> observed < g.bound
  | Eq -> observed = g.bound

(* The metric vocabulary each mode can gate and diff on; checked at
   parse time so a typo fails the dry run, not the overnight run. *)
let kernel_metrics =
  [
    "coverage"; "rounds"; "tx_per_node"; "success_rate"; "epochs";
    "repair_tx_per_node"; "wall_s"; "minor_words_per_node";
    "heap_bytes_per_node";
  ]

let service_metrics =
  [
    "wall_s"; "submitted"; "accepted"; "completed"; "failed"; "rejected";
    "shed"; "degraded"; "cancelled"; "lost"; "unacked"; "protocol_errors";
    "achieved_rate"; "p50_ms"; "p99_ms"; "server_ok";
  ]

(* Service cells split their keys: these drive the load generator and
   the embedded server; every other key is a scenario key, which is what
   a session runs. *)
let service_keys =
  [
    "rate"; "duration_s"; "closed"; "crash_every"; "wedge_every"; "wedge_ms";
    "settle_timeout_s"; "workers"; "max_restarts";
  ]

let validate_service_value ~key ~value =
  let float_ok ~min v =
    match float_of_string_opt v with
    | Some x when x >= min -> true
    | _ -> false
  in
  let int_ok ~min v =
    match int_of_string_opt v with Some x when x >= min -> true | _ -> false
  in
  match key with
  | "rate" ->
      if float_ok ~min:0.000001 value then Ok ()
      else Error "rate must be a positive number"
  | "duration_s" ->
      if float_ok ~min:0.000001 value then Ok ()
      else Error "duration_s must be a positive number"
  | "closed" ->
      if int_ok ~min:0 value then Ok ()
      else Error "closed must be an integer >= 0 (0 = open loop)"
  | "crash_every" | "wedge_every" ->
      if int_ok ~min:0 value then Ok ()
      else Error (key ^ " must be an integer >= 0 (0 = off)")
  | "wedge_ms" ->
      if float_ok ~min:0. value then Ok ()
      else Error "wedge_ms must be a number >= 0"
  | "workers" ->
      if int_ok ~min:1 value then Ok ()
      else Error "workers must be an integer >= 1"
  | "max_restarts" ->
      if int_ok ~min:0 value then Ok ()
      else Error "max_restarts must be an integer >= 0"
  | "settle_timeout_s" ->
      if float_ok ~min:0.000001 value then Ok ()
      else Error "settle_timeout_s must be a positive number"
  | _ -> Error ("unknown service key: " ^ key)

(* --- values and ranges --- *)

(* [64] , [64k] (x1024) , [16m] (x1024^2). *)
let parse_size s =
  let s = String.trim s in
  let len = String.length s in
  if len = 0 then None
  else
    let mult, digits =
      match s.[len - 1] with
      | 'k' | 'K' -> (1024, String.sub s 0 (len - 1))
      | 'm' | 'M' -> (1024 * 1024, String.sub s 0 (len - 1))
      | _ -> (1, s)
    in
    match int_of_string_opt digits with
    | Some v -> Some (v * mult)
    | None -> None

let max_axis_values = 10_000

(* One comma-separated chunk: either a literal value (kept verbatim)
   or an integer range [lo..hi *factor] / [lo..hi +step]. *)
let expand_chunk chunk =
  let chunk = String.trim chunk in
  match
    let rec find i =
      if i + 1 >= String.length chunk then None
      else if chunk.[i] = '.' && chunk.[i + 1] = '.' then Some i
      else find (i + 1)
    in
    find 0
  with
  | None -> if chunk = "" then Error "empty value" else Ok [ chunk ]
  | Some dots -> begin
      let lo_str = String.sub chunk 0 dots in
      let rest =
        String.trim
          (String.sub chunk (dots + 2) (String.length chunk - dots - 2))
      in
      let hi_str, step_str =
        match String.index_opt rest ' ' with
        | Some sp ->
            ( String.sub rest 0 sp,
              String.trim
                (String.sub rest (sp + 1) (String.length rest - sp - 1)) )
        | None -> (rest, "*2")
      in
      match (parse_size lo_str, parse_size hi_str) with
      | None, _ | _, None ->
          Error
            (Printf.sprintf "bad range %S (expected e.g. 1k..64k *2)" chunk)
      | Some lo, Some hi ->
          if hi < lo then
            Error (Printf.sprintf "range %S runs backwards" chunk)
          else if String.length step_str < 2 then
            Error (Printf.sprintf "bad range step %S (use *k or +k)" step_str)
          else begin
            let kind = step_str.[0] in
            let amount =
              parse_size
                (String.sub step_str 1 (String.length step_str - 1))
            in
            match (kind, amount) with
            | '*', Some f when f >= 2 && lo >= 1 ->
                let rec gen acc v =
                  if v > hi || List.length acc > max_axis_values then
                    List.rev acc
                  else gen (string_of_int v :: acc) (v * f)
                in
                Ok (gen [] lo)
            | '+', Some s when s >= 1 ->
                let rec gen acc v =
                  if v > hi || List.length acc > max_axis_values then
                    List.rev acc
                  else gen (string_of_int v :: acc) (v + s)
                in
                Ok (gen [] lo)
            | _ ->
                Error
                  (Printf.sprintf
                     "bad range step %S (use *factor >= 2 with start >= 1, \
                      or +step >= 1)"
                     step_str)
          end
    end

let expand_values csv =
  let chunks = String.split_on_char ',' csv in
  let rec go acc = function
    | [] ->
        let vs = List.concat (List.rev acc) in
        if vs = [] then Error "empty value list"
        else if List.length vs > max_axis_values then
          Error
            (Printf.sprintf "axis has more than %d values" max_axis_values)
        else Ok vs
    | c :: rest -> begin
        match expand_chunk c with
        | Error e -> Error e
        | Ok vs -> go (vs :: acc) rest
      end
  in
  go [] chunks

(* --- parsing --- *)

let strip_comment s =
  match String.index_opt s '#' with
  | Some i -> String.sub s 0 i
  | None -> s

let split_eq s =
  match String.index_opt s '=' with
  | None -> None
  | Some eq ->
      Some
        ( String.trim (String.sub s 0 eq),
          String.trim (String.sub s (eq + 1) (String.length s - eq - 1)) )

let split_words s =
  String.split_on_char ' ' s |> List.filter (fun w -> w <> "")

(* Substring search for the [seed+=N] axis annotation. *)
let find_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None
    else if String.sub s i m = sub then Some i
    else go (i + 1)
  in
  go 0

type pre = {
  p_id : string option;
  p_title : string option;
  p_mode : mode option;
  p_base : (int * string * string) list;  (* reversed; line, key, value *)
  p_axes : axis list;  (* reversed; zips reversed inside *)
  p_gates : (int * gate) list;  (* reversed *)
  p_seen : (string * int) list;
  p_offset : bool;
}

let metrics_of_mode = function
  | Kernel -> kernel_metrics
  | Service -> service_metrics

let finish_axes pre =
  List.rev_map
    (fun a -> { a with zips = List.rev a.zips })
    pre.p_axes

let parse text =
  let lines = String.split_on_char '\n' text in
  let ( let* ) r k = match r with Error e -> Error e | Ok v -> k v in
  let rec go pre i = function
    | [] -> finish pre
    | raw :: rest -> begin
        let line = i + 1 in
        let err msg =
          Error
            (Printf.sprintf "line %d: %s (in %S)" line msg (String.trim raw))
        in
        let s = String.trim (strip_comment raw) in
        if s = "" then go pre (i + 1) rest
        else
          let word, arg =
            match String.index_opt s ' ' with
            | Some sp ->
                ( String.sub s 0 sp,
                  String.trim
                    (String.sub s (sp + 1) (String.length s - sp - 1)) )
            | None -> (s, "")
          in
          let check_fresh key k =
            match List.assoc_opt key pre.p_seen with
            | Some first ->
                err
                  (Printf.sprintf "duplicate key '%s' (already set on line %d)"
                     key first)
            | None -> k ()
          in
          match word with
          | "sweep" -> begin
              match split_eq arg with
              | None -> err "expected 'sweep key = v1, v2, ...'"
              | Some (key, rhs) ->
                  check_fresh key (fun () ->
                      if key = "seed" || key = "domains" then
                        err
                          (Printf.sprintf
                             "'%s' cannot be swept (seeds are derived per \
                              cell; domains are a runner setting)"
                             key)
                      else
                        let stride, csv =
                          match find_sub rhs "seed+=" with
                          | None -> (Ok 0, rhs)
                          | Some at ->
                              let head = String.trim (String.sub rhs 0 at) in
                              let tail =
                                String.trim
                                  (String.sub rhs (at + 6)
                                     (String.length rhs - at - 6))
                              in
                              ( (match int_of_string_opt tail with
                                | Some v when v >= 0 -> Ok v
                                | _ ->
                                    Error
                                      "seed+= needs a non-negative integer"),
                                head )
                        in
                        match stride with
                        | Error e -> err e
                        | Ok stride -> begin
                            match expand_values csv with
                            | Error e -> err e
                            | Ok values ->
                                go
                                  {
                                    pre with
                                    p_axes =
                                      {
                                        axis_key = key;
                                        values;
                                        stride;
                                        zips = [];
                                      }
                                      :: pre.p_axes;
                                    p_seen = (key, line) :: pre.p_seen;
                                    p_offset =
                                      pre.p_offset || stride > 0
                                      || find_sub rhs "seed+=" <> None;
                                  }
                                  (i + 1) rest
                          end)
            end
          | "zip" -> begin
              match split_eq arg with
              | None -> err "expected 'zip key = v1, v2, ...'"
              | Some (key, rhs) ->
                  check_fresh key (fun () ->
                      match pre.p_axes with
                      | [] -> err "zip before any sweep axis"
                      | ax :: axes -> begin
                          match expand_values rhs with
                          | Error e -> err e
                          | Ok values ->
                              if
                                List.length values <> List.length ax.values
                              then
                                err
                                  (Printf.sprintf
                                     "zip '%s' has %d values but axis '%s' \
                                      has %d"
                                     key (List.length values) ax.axis_key
                                     (List.length ax.values))
                              else
                                go
                                  {
                                    pre with
                                    p_axes =
                                      { ax with zips = (key, values) :: ax.zips }
                                      :: axes;
                                    p_seen = (key, line) :: pre.p_seen;
                                  }
                                  (i + 1) rest
                        end)
            end
          | "expect" -> begin
              match split_words arg with
              | [ metric; op_str; bound_str ] -> begin
                  match
                    (op_of_string op_str, float_of_string_opt bound_str)
                  with
                  | None, _ ->
                      err
                        (Printf.sprintf
                           "unknown comparison %S (use >=, <=, >, < or ==)"
                           op_str)
                  | _, None ->
                      err (Printf.sprintf "bad gate bound %S" bound_str)
                  | Some op, Some bound ->
                      go
                        {
                          pre with
                          p_gates = (line, { metric; op; bound }) :: pre.p_gates;
                        }
                        (i + 1) rest
                end
              | _ -> err "expected 'expect metric >= bound'"
            end
          | _ -> begin
              match split_eq s with
              | None -> err "expected 'key = value'"
              | Some (key, value) ->
                  check_fresh key (fun () ->
                      let seen = (key, line) :: pre.p_seen in
                      match key with
                      | "id" ->
                          if value = "" then err "id must be non-empty"
                          else
                            go
                              { pre with p_id = Some value; p_seen = seen }
                              (i + 1) rest
                      | "title" ->
                          go
                            { pre with p_title = Some value; p_seen = seen }
                            (i + 1) rest
                      | "mode" -> begin
                          match value with
                          | "kernel" ->
                              go
                                {
                                  pre with
                                  p_mode = Some Kernel;
                                  p_seen = seen;
                                }
                                (i + 1) rest
                          | "service" ->
                              go
                                {
                                  pre with
                                  p_mode = Some Service;
                                  p_seen = seen;
                                }
                                (i + 1) rest
                          | _ -> err "mode must be kernel or service"
                        end
                      | _ ->
                          go
                            {
                              pre with
                              p_base = (line, key, value) :: pre.p_base;
                              p_seen = seen;
                            }
                            (i + 1) rest)
            end
      end
  and finish pre =
    let mode = Option.value pre.p_mode ~default:Kernel in
    (* Base assignments were deferred until the mode is known: in
       service mode some keys route to the load generator, not the
       scenario. *)
    let* base, service_base =
      List.fold_left
        (fun acc (line, key, value) ->
          let* base, service = acc in
          let err msg =
            Error (Printf.sprintf "line %d: %s (key '%s')" line msg key)
          in
          match mode with
          | Service when List.mem key service_keys -> begin
              match validate_service_value ~key ~value with
              | Ok () -> Ok (base, (key, value) :: service)
              | Error e -> err e
            end
          | _ -> begin
              match Scenario.set_key base ~key ~value with
              | Ok base -> Ok (base, service)
              | Error e -> err e
            end)
        (Ok (Scenario.default, []))
        (List.rev pre.p_base)
    in
    let axes = finish_axes pre in
    (* Axis keys routed like base keys; values are validated cell by
       cell in [cells]. *)
    let* () =
      List.fold_left
        (fun acc ax ->
          let* () = acc in
          let check key =
            match mode with
            | Service when List.mem key service_keys -> Ok ()
            | _ -> begin
                match
                  Scenario.set_key Scenario.default ~key
                    ~value:"<axis-probe>"
                with
                | Error msg
                  when String.length msg >= 12
                       && String.sub msg 0 12 = "unknown key:" ->
                    Error msg
                | _ -> Ok ()
              end
          in
          let* () = check ax.axis_key in
          List.fold_left
            (fun acc (zkey, _) ->
              let* () = acc in
              check zkey)
            (Ok ()) ax.zips)
        (Ok ()) axes
    in
    let metrics = metrics_of_mode mode in
    let* () =
      List.fold_left
        (fun acc (line, g) ->
          let* () = acc in
          if List.mem g.metric metrics then Ok ()
          else
            Error
              (Printf.sprintf
                 "line %d: unknown gate metric %S (%s mode knows: %s)" line
                 g.metric
                 (match mode with Kernel -> "kernel" | Service -> "service")
                 (String.concat ", " metrics)))
        (Ok ())
        (List.rev pre.p_gates)
    in
    Ok
      {
        id = Option.value pre.p_id ~default:"MATRIX";
        title = Option.value pre.p_title ~default:"scenario matrix";
        mode;
        base;
        service_base = List.rev service_base;
        axes;
        gates = List.rev_map snd pre.p_gates;
        offset_seeds = pre.p_offset;
      }
  in
  go
    {
      p_id = None;
      p_title = None;
      p_mode = None;
      p_base = [];
      p_axes = [];
      p_gates = [];
      p_seen = [];
      p_offset = false;
    }
    0 lines

(* --- grid expansion --- *)

let cell_count spec =
  List.fold_left (fun acc ax -> acc * List.length ax.values) 1 spec.axes

(* Row-major, LAST axis fastest: the first declared axis is the
   outermost loop, exactly the nesting order of the bench loops the
   matrix files replace. *)
let axis_indices ~dims i =
  let k = Array.length dims in
  let idx = Array.make k 0 in
  let rem = ref i in
  for a = k - 1 downto 0 do
    idx.(a) <- !rem mod dims.(a);
    rem := !rem / dims.(a)
  done;
  idx

let cells spec =
  let axes = Array.of_list spec.axes in
  let dims = Array.map (fun a -> List.length a.values) axes in
  let total = cell_count spec in
  let value_arrays =
    Array.map
      (fun a ->
        ( Array.of_list a.values,
          List.map (fun (k, vs) -> (k, Array.of_list vs)) a.zips ))
      axes
  in
  (* Derived seeds: one splitmix stream over the file seed, one draw
     per cell, masked to OCaml's positive-int range — cells never share
     a replication stream and adding an axis never reuses old seeds.
     Offset seeds (any [seed+=] annotation) reproduce the historical
     bench arithmetic instead: file seed + sum(stride * axis index). *)
  let derived =
    if spec.offset_seeds then [||]
    else begin
      let sm = Splitmix64.create (Int64.of_int spec.base.Scenario.seed) in
      Array.init total (fun _ -> Int64.to_int (Splitmix64.next sm) land max_int)
    end
  in
  let build i =
    let idx = axis_indices ~dims i in
    let coords = ref [] in
    let scenario = ref spec.base in
    let service = ref spec.service_base in
    let error = ref None in
    let apply key value =
      if !error = None then begin
        coords := (key, value) :: !coords;
        match spec.mode with
        | Service when List.mem key service_keys -> begin
            match validate_service_value ~key ~value with
            | Ok () ->
                service := (key, value) :: List.remove_assoc key !service
            | Error e -> error := Some (Printf.sprintf "%s: %s" key e)
          end
        | _ -> begin
            match Scenario.set_key !scenario ~key ~value with
            | Ok s -> scenario := s
            | Error e -> error := Some (Printf.sprintf "%s: %s" key e)
          end
      end
    in
    Array.iteri
      (fun a (values, zips) ->
        apply axes.(a).axis_key values.(idx.(a));
        List.iter (fun (zkey, zvals) -> apply zkey zvals.(idx.(a))) zips)
      value_arrays;
    let seed =
      if spec.offset_seeds then begin
        let s = ref spec.base.Scenario.seed in
        Array.iteri (fun a k -> s := !s + (axes.(a).stride * k)) idx;
        !s
      end
      else derived.(i)
    in
    let coords = List.rev !coords in
    match !error with
    | Some e ->
        Error
          (Printf.sprintf "cell %d {%s}: %s" i
             (String.concat ", "
                (List.map (fun (k, v) -> k ^ " = " ^ v) coords))
             e)
    | None -> begin
        match Scenario.validate { !scenario with seed } with
        | Error e ->
            Error
              (Printf.sprintf "cell %d {%s}: %s" i
                 (String.concat ", "
                    (List.map (fun (k, v) -> k ^ " = " ^ v) coords))
                 e)
        | Ok scenario ->
            Ok
              {
                cell_index = i;
                coords;
                scenario;
                service = !service;
                cell_seed = seed;
              }
      end
  in
  let out = Array.make total None in
  let first_error = ref None in
  for i = 0 to total - 1 do
    if !first_error = None then
      match build i with
      | Ok c -> out.(i) <- Some c
      | Error e -> first_error := Some e
  done;
  match !first_error with
  | Some e -> Error e
  | None -> Ok (Array.map Option.get out)

let parse_file path =
  match open_in path with
  | exception Sys_error msg -> Error msg
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let len = in_channel_length ic in
          parse (really_input_string ic len))

(* --- quick-mode patching (bench wrappers) --- *)

let set_base spec ~key ~value =
  match spec.mode with
  | Service when List.mem key service_keys -> begin
      match validate_service_value ~key ~value with
      | Ok () ->
          Ok
            {
              spec with
              service_base =
                (key, value) :: List.remove_assoc key spec.service_base;
            }
      | Error e -> Error e
    end
  | _ -> begin
      match Scenario.set_key spec.base ~key ~value with
      | Ok base -> Ok { spec with base }
      | Error e -> Error e
    end

let override_axis spec ~key ~values =
  let rec go acc = function
    | [] -> Error (Printf.sprintf "no sweep axis '%s'" key)
    | ax :: rest when ax.axis_key = key ->
        if values = [] then Error "empty axis override"
        else if
          ax.zips <> []
          && List.exists
               (fun (_, zvs) -> List.length zvs <> List.length values)
               ax.zips
        then
          Error
            (Printf.sprintf
               "axis '%s' carries zipped keys of length %d; override with \
                the same length"
               key
               (List.length ax.values))
        else Ok (List.rev_append acc ({ ax with values } :: rest))
    | ax :: rest -> go (ax :: acc) rest
  in
  match go [] spec.axes with
  | Error e -> Error e
  | Ok axes -> Ok { spec with axes }

(* --- execution --- *)

type cell_outcome = {
  cell : cell;
  reps_done : int;
  metrics : (string * float) list;
  per_seed : (string * float list) list;
  gate_results : (gate * float * bool) list;
  results : Engine.result list;
}

type run_result = {
  spec : spec;
  outcomes : cell_outcome list;
  truncated : bool;
}

type rep_measure = {
  rm_result : Engine.result;
  rm_wall : float;
  rm_minor : float;
  rm_heap_delta : float;
}

let mean = function
  | [] -> 0.
  | l -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l)

let eval_gates gates metrics =
  List.map
    (fun g ->
      match List.assoc_opt g.metric metrics with
      | Some v -> (g, v, gate_holds g v)
      | None -> (g, Float.nan, false))
    gates

let kernel_outcome spec cell measures =
  let ms = List.filter_map Fun.id (Array.to_list measures) in
  let results = List.map (fun m -> m.rm_result) ms in
  let pop (r : Engine.result) = float_of_int (max 1 r.Engine.population) in
  let ss = List.map Scenario.scalars results in
  let per f = List.map f ss in
  let coverages = per (fun s -> s.Scenario.coverage) in
  let rounds = per (fun s -> s.Scenario.rounds) in
  let txs = per (fun s -> s.Scenario.tx_per_node) in
  let metrics =
    [
      ("coverage", mean coverages);
      ("rounds", mean rounds);
      ("tx_per_node", mean txs);
      ("success_rate", mean (per (fun s -> s.Scenario.success)));
      ("epochs", mean (per (fun s -> s.Scenario.epochs)));
      ( "repair_tx_per_node",
        mean (per (fun s -> s.Scenario.repair_tx_per_node)) );
      ("wall_s", List.fold_left (fun a m -> a +. m.rm_wall) 0. ms);
      ( "minor_words_per_node",
        mean (List.map2 (fun m r -> m.rm_minor /. pop r) ms results) );
      ( "heap_bytes_per_node",
        List.fold_left
          (fun a (m, r) -> Float.max a (m.rm_heap_delta *. 8. /. pop r))
          0.
          (List.combine ms results) );
    ]
  in
  {
    cell;
    reps_done = List.length ms;
    metrics;
    per_seed =
      [
        ("per_seed_coverage", coverages);
        ("per_seed_rounds", rounds);
        ("per_seed_tx", txs);
      ];
    gate_results = eval_gates spec.gates metrics;
    results;
  }

let run ?domains ?run_service spec =
  match cells spec with
  | Error e -> Error e
  | Ok cs -> begin
      match spec.mode with
      | Kernel ->
          let tasks =
            Array.map
              (fun c ->
                {
                  Experiment.seed = c.cell_seed;
                  reps = c.scenario.Scenario.reps;
                })
              cs
          in
          (* Every (cell, rep) pair runs on ONE shared pool: no
             spawn/join barrier between cells, so a grid of small
             cells saturates the domains. GC minor words are
             domain-local in OCaml 5, so the per-rep deltas measured
             inside the worker are exact; heap_words is global and
             only indicative under concurrency. *)
          let out =
            Experiment.run_tasks ?domains tasks (fun ~task ~rep:_ rng ->
                let stat0 = Gc.quick_stat () in
                let t0 = Unix.gettimeofday () in
                let result = Scenario.run_rep cs.(task).scenario rng in
                let t1 = Unix.gettimeofday () in
                let stat1 = Gc.quick_stat () in
                {
                  rm_result = result;
                  rm_wall = t1 -. t0;
                  rm_minor = stat1.Gc.minor_words -. stat0.Gc.minor_words;
                  rm_heap_delta =
                    float_of_int (stat1.Gc.heap_words - stat0.Gc.heap_words);
                })
          in
          let outcomes =
            Array.to_list
              (Array.mapi (fun i c -> kernel_outcome spec c out.(i)) cs)
          in
          let truncated =
            Experiment.interrupted ()
            || List.exists
                 (fun o -> o.reps_done < o.cell.scenario.Scenario.reps)
                 outcomes
          in
          Ok { spec; outcomes; truncated }
      | Service -> begin
          match run_service with
          | None -> Error "this build cannot run service cells"
          | Some f ->
              (* Service cells drive a full client/server pair each;
                 they run sequentially (the service already spreads its
                 own worker domains) with an interruption check between
                 cells. *)
              let rec go acc = function
                | [] -> (List.rev acc, false)
                | c :: rest ->
                    if Experiment.interrupted () then (List.rev acc, true)
                    else begin
                      let t0 = Unix.gettimeofday () in
                      let metrics = f c in
                      let wall = Unix.gettimeofday () -. t0 in
                      let metrics =
                        if List.mem_assoc "wall_s" metrics then metrics
                        else ("wall_s", wall) :: metrics
                      in
                      let o =
                        {
                          cell = c;
                          reps_done = 1;
                          metrics;
                          per_seed = [];
                          gate_results = eval_gates spec.gates metrics;
                          results = [];
                        }
                      in
                      go (o :: acc) rest
                    end
              in
              let outcomes, truncated = go [] (Array.to_list cs) in
              Ok
                {
                  spec;
                  outcomes;
                  truncated = truncated || Experiment.interrupted ();
                }
        end
    end

let gates_failed result =
  List.fold_left
    (fun acc o ->
      acc
      + List.length (List.filter (fun (_, _, ok) -> not ok) o.gate_results))
    0 result.outcomes

(* --- JSON --- *)

let point_json o =
  let coords = Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) o.cell.coords) in
  let gates =
    Json.List
      (List.map
         (fun (g, observed, pass) ->
           Json.Obj
             [
               ("metric", Json.String g.metric);
               ("op", Json.String (op_to_string g.op));
               ("bound", Json.Float g.bound);
               ( "observed",
                 if Float.is_nan observed then Json.Null
                 else Json.Float observed );
               ("pass", Json.Bool pass);
             ])
         o.gate_results)
  in
  Json.Obj
    ([
       ("coords", coords);
       ("seed", Json.Int o.cell.cell_seed);
       ("reps", Json.Int o.reps_done);
       ( "truncated",
         Json.Bool (o.reps_done < o.cell.scenario.Scenario.reps) );
       ( "metrics",
         Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) o.metrics) );
       ("gates", gates);
     ]
    @ List.map
        (fun (k, vs) -> (k, Json.List (List.map (fun v -> Json.Float v) vs)))
        o.per_seed)

let data_json result =
  Json.Obj
    [
      ( "mode",
        Json.String
          (match result.spec.mode with
          | Kernel -> "kernel"
          | Service -> "service") );
      ("cells", Json.Int (List.length result.outcomes));
      ("gates_failed", Json.Int (gates_failed result));
      ("truncated", Json.Bool result.truncated);
      ("points", Json.List (List.map point_json result.outcomes));
    ]

(* --- result table --- *)

let metric_cell name v =
  match name with
  | "success_rate" -> Printf.sprintf "%.0f%%" (100. *. v)
  | "coverage" -> Printf.sprintf "%.4f" v
  | "rounds" | "epochs" -> Printf.sprintf "%.1f" v
  | _ when Float.is_integer v && not (List.mem name kernel_metrics) ->
      (* service counts *)
      Printf.sprintf "%.0f" v
  | _ -> Printf.sprintf "%.2f" v

let coord_keys spec =
  List.concat_map (fun a -> a.axis_key :: List.map fst a.zips) spec.axes

let table result =
  let spec = result.spec in
  let repair =
    List.exists
      (fun o -> o.cell.scenario.Scenario.max_epochs > 0)
      result.outcomes
  in
  let standard =
    match spec.mode with
    | Service -> []
    | Kernel ->
        [ "coverage"; "rounds"; "tx_per_node"; "success_rate" ]
        @ if repair then [ "epochs"; "repair_tx_per_node" ] else []
  in
  let metric_cols =
    List.fold_left
      (fun acc g -> if List.mem g.metric acc then acc else acc @ [ g.metric ])
      standard spec.gates
  in
  let keys = coord_keys spec in
  let t =
    Table.create
      ~columns:
        ((("cell", Table.Right) :: List.map (fun k -> (k, Table.Left)) keys)
        @ List.map (fun m -> (m, Table.Right)) metric_cols)
  in
  List.iter
    (fun o ->
      Table.add_row t
        ((string_of_int o.cell.cell_index
         :: List.map (fun k -> List.assoc k o.cell.coords) keys)
        @ List.map
            (fun m ->
              match List.assoc_opt m o.metrics with
              | Some v -> metric_cell m v
              | None -> "-")
            metric_cols))
    result.outcomes;
  t

(* --- dry run --- *)

let dry_run_table spec =
  match cells spec with
  | Error e -> Error e
  | Ok cs ->
      let axis_cols = coord_keys spec in
      let columns =
        [ ("cell", Table.Right) ]
        @ List.map (fun k -> (k, Table.Left)) axis_cols
        @ [ ("seed", Table.Right); ("reps", Table.Right) ]
      in
      let t = Table.create ~columns in
      Array.iter
        (fun c ->
          Table.add_row t
            ([ string_of_int c.cell_index ]
            @ List.map (fun k -> List.assoc k c.coords) axis_cols
            @ [
                string_of_int c.cell_seed;
                string_of_int c.scenario.Scenario.reps;
              ]))
        cs;
      let gates =
        match spec.gates with
        | [] -> "(no gates)"
        | gs ->
            String.concat "; "
              (List.map
                 (fun g ->
                   Printf.sprintf "%s %s %g" g.metric (op_to_string g.op)
                     g.bound)
                 gs)
      in
      Ok
        (Printf.sprintf "%s: %s\nmode %s, %d cells, seeds %s\ngates: %s\n%s"
           spec.id spec.title
           (match spec.mode with Kernel -> "kernel" | Service -> "service")
           (Array.length cs)
           (if spec.offset_seeds then "file seed + stride offsets"
            else "derived (splitmix per cell)")
           gates (Table.render t))
