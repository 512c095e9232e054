module Json = Rumor_obs.Json
module Latency = Rumor_obs.Latency

(* The [rumor load] generator: a single-threaded NDJSON client that
   drives one serve endpoint at a target rate (open loop — submissions
   keep coming whether or not the service keeps up, which is what makes
   overload and backpressure observable) or at a fixed concurrency
   (closed loop), injects per-session faults on a schedule, and
   accounts for every submission: each one ends as rejected, terminal
   (completed/failed/shed/cancelled), lost (accepted but never heard
   from again — the service's cardinal sin) or unacked (no response to
   the submit itself). Latency is measured submit-to-terminal-event at
   the client, which includes queueing — the number a user of the
   service would experience. *)

type cfg = {
  rate : float;  (** open-loop target, sessions/sec *)
  duration_s : float;
  closed : int option;  (** closed loop at this concurrency instead *)
  scenario : Rumor_cli.Scenario.t;  (** template; session k runs seed + k *)
  crash_every : int;  (** every k-th session asks to crash its worker; 0 off *)
  wedge_every : int;  (** every k-th session wedges its worker; 0 off *)
  wedge_ms : float;
  settle_timeout_s : float;  (** grace for stragglers after the window *)
}

let cfg ?(rate = 100.) ?(duration_s = 10.) ?closed
    ?(scenario = Rumor_cli.Scenario.default) ?(crash_every = 0)
    ?(wedge_every = 0) ?(wedge_ms = 400.) ?(settle_timeout_s = 30.) () =
  if rate <= 0. then invalid_arg "Load.cfg: rate <= 0";
  if duration_s <= 0. then invalid_arg "Load.cfg: duration_s <= 0";
  (match closed with
  | Some c when c < 1 -> invalid_arg "Load.cfg: closed < 1"
  | _ -> ());
  if crash_every < 0 || wedge_every < 0 then
    invalid_arg "Load.cfg: fault cadence < 0";
  { rate; duration_s; closed; scenario; crash_every; wedge_every; wedge_ms;
    settle_timeout_s }

type report = {
  wall_s : float;
  submitted : int;
  accepted : int;
  rejected : int;
  completed : int;
  failed : int;
  shed : int;
  cancelled : int;
  degraded : int;
  unacked : int;  (** submits that never got any response *)
  lost : int;  (** accepted sessions that never reached a terminal event *)
  protocol_errors : int;
  latency : Latency.t;
  achieved_rate : float;  (** terminal sessions per second of wall time *)
  server_stats : Json.t option;
  server_ok : bool;  (** server monitor reported ok at the end *)
}

(* --- tiny Json accessors (responses come from our own server, but a
   load tool should still not crash on a weird line) --- *)

let jfield j name =
  match j with Json.Obj fs -> List.assoc_opt name fs | _ -> None

let jstring = function Some (Json.String s) -> Some s | _ -> None
let jbool = function Some (Json.Bool b) -> Some b | _ -> None

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  fd

type pending = Sent | Acked of string (* session id *)

type driver = {
  cfg : cfg;
  fd : Unix.file_descr;
  lines : Wire.Linebuf.t;
  outstanding : (string, float * pending ref) Hashtbl.t;  (* ref -> sent_at *)
  latency : Latency.t;
  mutable submitted : int;
  mutable accepted : int;
  mutable rejected : int;
  mutable completed : int;
  mutable failed : int;
  mutable shed : int;
  mutable cancelled : int;
  mutable degraded : int;
  mutable protocol_errors : int;
  mutable server_stats : Json.t option;
}

let send d line =
  let b = Bytes.of_string line in
  ignore (Unix.write d.fd b 0 (Bytes.length b))

let submit_line d k =
  let s = d.cfg.scenario in
  let crash =
    d.cfg.crash_every > 0 && k mod d.cfg.crash_every = d.cfg.crash_every - 1
  in
  let wedge =
    d.cfg.wedge_every > 0 && k mod d.cfg.wedge_every = d.cfg.wedge_every - 1
  in
  let fields =
    (("op", Json.String "submit")
    :: Wire.scenario_fields { s with seed = s.seed + k })
    @ [
        ("crash_worker", Json.Bool crash);
        ("wedge_ms", Json.Float (if wedge then d.cfg.wedge_ms else 0.));
        ("ref", Json.String (Printf.sprintf "c-%d" k));
        ("notify", Json.Bool true);
      ]
  in
  Wire.to_line (Json.Obj fields)

let record_terminal d ~state ~ref_ ~now =
  match Hashtbl.find_opt d.outstanding ref_ with
  | None -> ()
  | Some (sent_at, _) ->
      Hashtbl.remove d.outstanding ref_;
      Latency.add d.latency (now -. sent_at);
      (match state with
      | "completed" -> d.completed <- d.completed + 1
      | "failed" -> d.failed <- d.failed + 1
      | "shed" -> d.shed <- d.shed + 1
      | "cancelled" -> d.cancelled <- d.cancelled + 1
      | _ -> d.protocol_errors <- d.protocol_errors + 1)

let is_terminal_state = function
  | "completed" | "failed" | "shed" | "cancelled" -> true
  | _ -> false

let handle_line d line ~now =
  if String.trim line = "" then ()
  else
    match Json.of_string ~max_depth:Wire.max_depth line with
    | Error _ -> d.protocol_errors <- d.protocol_errors + 1
    | Ok j -> (
        let ref_ = jstring (jfield j "ref") in
        let state = jstring (jfield j "state") in
        match jstring (jfield j "event") with
        | Some "session" -> (
            (* terminal push notification *)
            match (ref_, state) with
            | Some r, Some st when is_terminal_state st ->
                if jbool (jfield j "degraded") = Some true then
                  d.degraded <- d.degraded + 1;
                record_terminal d ~state:st ~ref_:r ~now
            | _ -> d.protocol_errors <- d.protocol_errors + 1)
        | Some _ -> d.protocol_errors <- d.protocol_errors + 1
        | None -> (
            match jstring (jfield j "op") with
            | Some "submit" -> (
                match (jbool (jfield j "ok"), ref_) with
                | Some true, Some r -> (
                    d.accepted <- d.accepted + 1;
                    match
                      (Hashtbl.find_opt d.outstanding r,
                       jstring (jfield j "id"))
                    with
                    | Some (_, p), Some id -> p := Acked id
                    | _ -> ())
                | Some false, Some r ->
                    d.rejected <- d.rejected + 1;
                    Hashtbl.remove d.outstanding r
                | _ ->
                    (* rejection without a ref: a submit so malformed the
                       server could not echo it — count and move on *)
                    d.rejected <- d.rejected + 1)
            | Some "poll" -> (
                (* straggler poll during settle *)
                match (ref_, state) with
                | Some r, Some st when is_terminal_state st ->
                    record_terminal d ~state:st ~ref_:r ~now
                | _ -> ())
            | Some "stats" -> d.server_stats <- jfield j "stats"
            | Some "ping" | Some "shutdown" -> ()
            | _ -> d.protocol_errors <- d.protocol_errors + 1))

let pump d ~timeout ~now =
  match Unix.select [ d.fd ] [] [] timeout with
  | [], _, _ -> ()
  | _ :: _, _, _ -> (
      let buf = Bytes.create 65536 in
      match Unix.read d.fd buf 0 (Bytes.length buf) with
      | 0 -> raise End_of_file
      | n ->
          List.iter
            (fun l -> handle_line d l ~now:(now ()))
            (Wire.Linebuf.feed d.lines buf 0 n))
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

let run cfg ~fd =
  let d =
    {
      cfg;
      fd;
      lines = Wire.Linebuf.create ();
      outstanding = Hashtbl.create 1024;
      latency = Latency.create ();
      submitted = 0;
      accepted = 0;
      rejected = 0;
      completed = 0;
      failed = 0;
      shed = 0;
      cancelled = 0;
      degraded = 0;
      protocol_errors = 0;
      server_stats = None;
    }
  in
  let start = Unix.gettimeofday () in
  let now () = Unix.gettimeofday () in
  let submit_one () =
    let k = d.submitted in
    let line = submit_line d k in
    Hashtbl.replace d.outstanding
      (Printf.sprintf "c-%d" k)
      (now (), ref Sent);
    d.submitted <- d.submitted + 1;
    send d line
  in
  (try
     (* --- the load window --- *)
     let endt = start +. cfg.duration_s in
     (match cfg.closed with
     | None ->
         (* Open loop: session k is due at start + k/rate, regardless of
            what came back — the arrival process the service cannot
            slow down. *)
         let due k = start +. (float_of_int k /. cfg.rate) in
         while now () < endt do
           while now () >= due d.submitted && now () < endt do
             submit_one ()
           done;
           let timeout =
             Float.max 0.001 (Float.min (due d.submitted -. now ()) 0.05)
           in
           pump d ~timeout ~now
         done
     | Some c ->
         while now () < endt do
           while
             Hashtbl.length d.outstanding < c && now () < endt
           do
             submit_one ()
           done;
           pump d ~timeout:0.02 ~now
         done);
     (* --- settle: wait for stragglers, polling the acked ones --- *)
     let settle_end = now () +. cfg.settle_timeout_s in
     let last_poll = ref 0. in
     while Hashtbl.length d.outstanding > 0 && now () < settle_end do
       if now () -. !last_poll > 1. then begin
         last_poll := now ();
         Hashtbl.iter
           (fun _ (_, p) ->
             match !p with
             | Acked id ->
                 send d
                   (Wire.to_line
                      (Json.Obj
                         [
                           ("op", Json.String "poll");
                           ("id", Json.String id);
                         ]))
             | Sent -> ())
           d.outstanding
       end;
       pump d ~timeout:0.05 ~now
     done;
     (* --- final server-side stats --- *)
     send d (Wire.to_line (Json.Obj [ ("op", Json.String "stats") ]));
     let stats_deadline = now () +. 5. in
     while d.server_stats = None && now () < stats_deadline do
       pump d ~timeout:0.05 ~now
     done
   with End_of_file -> ());
  let wall = now () -. start in
  let unacked, lost =
    Hashtbl.fold
      (fun _ (_, p) (u, l) ->
        match !p with Sent -> (u + 1, l) | Acked _ -> (u, l + 1))
      d.outstanding (0, 0)
  in
  let terminal = d.completed + d.failed + d.shed + d.cancelled in
  let server_ok =
    match d.server_stats with
    | Some st -> (
        match jbool (jfield (Option.value ~default:Json.Null (jfield st "monitor")) "ok") with
        | Some b -> b
        | None -> false)
    | None -> false
  in
  {
    wall_s = wall;
    submitted = d.submitted;
    accepted = d.accepted;
    rejected = d.rejected;
    completed = d.completed;
    failed = d.failed;
    shed = d.shed;
    cancelled = d.cancelled;
    degraded = d.degraded;
    unacked;
    lost;
    protocol_errors = d.protocol_errors;
    latency = d.latency;
    achieved_rate = (if wall > 0. then float_of_int terminal /. wall else 0.);
    server_stats = d.server_stats;
    server_ok;
  }

let report_json cfg r =
  Json.Obj
    [
      ("target_rate", Json.Float cfg.rate);
      ( "closed_concurrency",
        match cfg.closed with Some c -> Json.Int c | None -> Json.Null );
      ("duration_s", Json.Float cfg.duration_s);
      ("wall_s", Json.Float r.wall_s);
      ("submitted", Json.Int r.submitted);
      ("accepted", Json.Int r.accepted);
      ("rejected", Json.Int r.rejected);
      ("completed", Json.Int r.completed);
      ("failed", Json.Int r.failed);
      ("shed", Json.Int r.shed);
      ("cancelled", Json.Int r.cancelled);
      ("degraded", Json.Int r.degraded);
      ("unacked", Json.Int r.unacked);
      ("lost", Json.Int r.lost);
      ("protocol_errors", Json.Int r.protocol_errors);
      ("achieved_rate", Json.Float r.achieved_rate);
      ("latency", Latency.to_json r.latency);
      ( "server",
        Option.value ~default:Json.Null r.server_stats );
      ("server_ok", Json.Bool r.server_ok);
    ]

(* --- in-process service cells ---

   The matrix runner drives service cells without an external process:
   a socketpair joins this driver to a Server.run select loop on a
   background thread. The server runs with [~signals:false] so the
   host's SIGTERM/SIGINT handling (Experiment.with_interrupt_signals)
   stays in charge; closing our end of the pair is the drain request,
   exactly like EOF on stdin, after which the thread joins. *)
let run_in_process ?(service_config = Service.config ()) cfg =
  let client_fd, server_fd =
    Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0
  in
  let exit_code = ref 1 in
  let server =
    Thread.create
      (fun () ->
        exit_code :=
          Server.run ~config:service_config ~quiet:true ~signals:false
            (Server.Fd server_fd))
      ()
  in
  let finish () =
    (try Unix.close client_fd with Unix.Unix_error _ -> ());
    Thread.join server
  in
  match run cfg ~fd:client_fd with
  | report ->
      finish ();
      (report, !exit_code = 0)
  | exception e ->
      finish ();
      raise e
