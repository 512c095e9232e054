module Json = Rumor_obs.Json
module Scenario = Rumor_cli.Scenario

(* NDJSON line protocol: one JSON object per line, both directions.
   This is the hostile boundary of the service, so parsing is strict —
   bounded nesting depth (well under [Json.default_max_depth]; a
   protocol object is depth 2), whitelisted ops, scenario keys checked
   by the scenario language itself and every value range-checked by
   [Session.validate_spec] before a session is built. Unknown fields
   are rejected rather than ignored: a client that misspells
   [burst_loss] should learn now, not in production. *)

let max_depth = 32

type request =
  | Submit of Session.spec * bool  (** spec, notify *)
  | Poll of int
  | Cancel of int
  | Stats
  | Shutdown
  | Ping

let id_to_string id = Printf.sprintf "s-%d" id

let id_of_string s =
  match String.length s with
  | l when l > 2 && String.sub s 0 2 = "s-" -> (
      match int_of_string_opt (String.sub s 2 (l - 2)) with
      | Some id when id > 0 -> Some id
      | _ -> None)
  | _ -> None

(* --- field accessors over Json.t --- *)

let ( let* ) = Result.bind

let obj_fields = function
  | Json.Obj fs -> Ok fs
  | _ -> Error "request must be a JSON object"

let field fs name = List.assoc_opt name fs

let as_float name = function
  | Json.Int i -> Ok (float_of_int i)
  | Json.Float f -> Ok f
  | _ -> Error (Printf.sprintf "field %S must be a number" name)

let as_bool name = function
  | Json.Bool b -> Ok b
  | _ -> Error (Printf.sprintf "field %S must be a boolean" name)

let as_string name = function
  | Json.String s -> Ok s
  | _ -> Error (Printf.sprintf "field %S must be a string" name)

let opt fs name conv ~default =
  match field fs name with
  | None | Some Json.Null -> Ok default
  | Some v -> conv name v

(* A submit is a scenario file in JSON form: every field that is not a
   service field is a scenario key, assigned through [Scenario.set_key]
   over [Scenario.default] exactly as a file line would be. A session
   is one repetition, so the replication keys are refused. *)
let service_fields =
  [ "op"; "crash_worker"; "wedge_ms"; "deadline_ms"; "trace"; "ref"; "notify" ]

let replication_keys = [ "reps"; "domains" ]

let scenario_value name = function
  | Json.Int i -> Ok (string_of_int i)
  | Json.Float f -> Ok (Printf.sprintf "%.17g" f)
  | Json.String s -> Ok s
  | Json.Bool b -> Ok (string_of_bool b)
  | _ -> Error (Printf.sprintf "field %S must be a scalar" name)

let parse_submit fs =
  (* One pass, linear in the field count: a 1 MiB line can carry 10^5
     fields. *)
  let seen = Hashtbl.create 16 in
  let* scenario =
    List.fold_left
      (fun acc (key, v) ->
        let* s = acc in
        if Hashtbl.mem seen key then
          Error (Printf.sprintf "duplicate field %S" key)
        else begin
          Hashtbl.add seen key ();
          if List.mem key service_fields then Ok s
          else if List.mem key replication_keys then
            Error (Printf.sprintf "field %S: a session runs one repetition" key)
          else if v = Json.Null then
            (* null keeps the default, but only for a key that exists *)
            if List.mem key Scenario.keys then Ok s
            else Error (Printf.sprintf "unknown field %S" key)
          else
            let* value = scenario_value key v in
            Result.map_error
              (fun e -> Printf.sprintf "field %S: %s" key e)
              (Scenario.set_key s ~key ~value)
        end)
      (Ok Scenario.default) fs
  in
  let some conv name v = Result.map Option.some (conv name v) in
  let* crash_worker = opt fs "crash_worker" as_bool ~default:false in
  let* wedge_ms = opt fs "wedge_ms" as_float ~default:0. in
  let* deadline_ms = opt fs "deadline_ms" (some as_float) ~default:None in
  let* trace = opt fs "trace" as_bool ~default:false in
  let* client_ref = opt fs "ref" (some as_string) ~default:None in
  let* () =
    match client_ref with
    | Some r when String.length r > 256 ->
        Error "field \"ref\" too long (max 256)"
    | _ -> Ok ()
  in
  let* notify = opt fs "notify" as_bool ~default:false in
  let* spec =
    Session.validate_spec
      { Session.scenario; crash_worker; wedge_ms; deadline_ms; trace; client_ref }
  in
  Ok (Submit (spec, notify))

(* The inverse of the scenario half of [parse_submit]: the scenario's
   own rendering, one JSON string field per key. *)
let scenario_fields s =
  List.filter_map
    (fun (k, v) ->
      if List.mem k replication_keys then None else Some (k, Json.String v))
    (Scenario.bindings s)

let parse_id fs op =
  let* () =
    match List.find_opt (fun (k, _) -> k <> "op" && k <> "id") fs with
    | Some (k, _) -> Error (Printf.sprintf "unknown field %S" k)
    | None -> Ok ()
  in
  match field fs "id" with
  | Some (Json.String s) -> (
      match id_of_string s with
      | Some id -> Ok id
      | None -> Error (Printf.sprintf "%s: malformed id %S" op s))
  | _ -> Error (Printf.sprintf "%s: missing string field \"id\"" op)

let parse_request line =
  let* json =
    match Json.of_string ~max_depth line with
    | Ok j -> Ok j
    | Error e -> Error ("bad json: " ^ e)
  in
  let* fs = obj_fields json in
  let* op =
    match field fs "op" with
    | Some (Json.String s) -> Ok s
    | _ -> Error "missing string field \"op\""
  in
  match op with
  | "submit" -> parse_submit fs
  | "poll" ->
      let* id = parse_id fs "poll" in
      Ok (Poll id)
  | "cancel" ->
      let* id = parse_id fs "cancel" in
      Ok (Cancel id)
  | "stats" -> Ok Stats
  | "shutdown" -> Ok Shutdown
  | "ping" -> Ok Ping
  | _ -> Error (Printf.sprintf "unknown op %S" op)

(* --- responses --- *)

let ref_field (s : Session.t) =
  match s.Session.spec.Session.client_ref with
  | None -> []
  | Some r -> [ ("ref", Json.String r) ]

let submitted (s : Session.t) =
  Json.Obj
    ([
       ("ok", Json.Bool true);
       ("op", Json.String "submit");
       ("id", Json.String (id_to_string s.Session.id));
       ("state", Json.String (Session.state_name s.Session.state));
       ("degraded", Json.Bool s.Session.degraded);
     ]
    @ ref_field s)

let rejected ?client_ref ~reason ~retry_after_ms () =
  Json.Obj
    ([
       ("ok", Json.Bool false);
       ("op", Json.String "submit");
       ("error", Json.String reason);
       ("retry_after_ms", Json.Float retry_after_ms);
     ]
    @
    match client_ref with
    | None -> []
    | Some r -> [ ("ref", Json.String r) ])

let status_body (s : Session.t) =
  [
    ("id", Json.String (id_to_string s.Session.id));
    ("state", Json.String (Session.state_name s.Session.state));
    ("protocol", Json.String s.Session.protocol);
    ("degraded", Json.Bool s.Session.degraded);
    ("attempts", Json.Int s.Session.attempts);
    ("retries", Json.Int s.Session.retries);
    ("failovers", Json.Int s.Session.failovers);
  ]
  @ (if Session.is_terminal s then
       [ ("latency_ms", Json.Float (Session.latency_s s *. 1e3)) ]
     else [])
  @ (match s.Session.last_error with
    | Some e -> [ ("error", Json.String e) ]
    | None -> [])
  @ (match s.Session.stats with
    | Some st ->
        [
          ( "result",
            Json.Obj
              [
                ("rounds", Json.Int st.Session.rounds);
                ("informed", Json.Int st.Session.informed);
                ("population", Json.Int st.Session.population);
                ("transmissions", Json.Int st.Session.transmissions);
              ] );
        ]
    | None -> [])
  @ ref_field s

let status s =
  Json.Obj
    (([ ("ok", Json.Bool true); ("op", Json.String "poll") ] : (string * Json.t) list)
    @ status_body s)

let event s = Json.Obj (("event", Json.String "session") :: status_body s)

let stats ~service =
  Json.Obj
    [ ("ok", Json.Bool true); ("op", Json.String "stats"); ("stats", service) ]

let pong = Json.Obj [ ("ok", Json.Bool true); ("op", Json.String "ping") ]

let draining =
  Json.Obj
    [
      ("ok", Json.Bool true);
      ("op", Json.String "shutdown");
      ("state", Json.String "draining");
    ]

let error msg =
  Json.Obj [ ("ok", Json.Bool false); ("error", Json.String msg) ]

let not_found id =
  Json.Obj
    [
      ("ok", Json.Bool false);
      ("error", Json.String "no such session");
      ("id", Json.String (id_to_string id));
    ]

let to_line j = Json.to_string j ^ "\n"

(* --- line framing ---

   Both ends of the protocol accumulate raw reads and split on '\n'.
   A line-length cap is part of input hardening: without one, a peer
   that never sends a newline grows the buffer without bound. *)

module Linebuf = struct
  type t = { buf : Buffer.t; max_line : int; mutable overflowed : bool }

  let create ?(max_line = 1 lsl 20) () =
    if max_line < 1 then invalid_arg "Linebuf.create: max_line < 1";
    { buf = Buffer.create 4096; max_line; overflowed = false }

  let overflowed t = t.overflowed

  (* Feed a chunk, return the completed lines (without terminators).
     Once the pending partial line exceeds [max_line] the buffer is
     poisoned: [overflowed] stays set and no further lines are
     produced — the connection should be dropped. *)
  let feed t bytes off len =
    if t.overflowed then []
    else begin
      Buffer.add_subbytes t.buf bytes off len;
      let s = Buffer.contents t.buf in
      let lines = ref [] in
      let start = ref 0 in
      String.iteri
        (fun i c ->
          if c = '\n' then begin
            let line = String.sub s !start (i - !start) in
            let line =
              (* tolerate CRLF *)
              if String.length line > 0 && line.[String.length line - 1] = '\r'
              then String.sub line 0 (String.length line - 1)
              else line
            in
            lines := line :: !lines;
            start := i + 1
          end)
        s;
      Buffer.clear t.buf;
      let rest = String.sub s !start (String.length s - !start) in
      if String.length rest > t.max_line then t.overflowed <- true
      else Buffer.add_string t.buf rest;
      if List.exists (fun l -> String.length l > t.max_line) !lines then begin
        t.overflowed <- true;
        []
      end
      else List.rev !lines
    end
end
