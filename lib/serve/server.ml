module Json = Rumor_obs.Json

(* The [rumor serve] frontend: a select-based NDJSON loop over stdio or
   a Unix socket, driving one {!Service}.

   Single-threaded I/O: worker domains never touch a file descriptor.
   Terminal notifications are queued by the service's [on_terminal]
   callback (which runs on worker domains) and flushed by the main loop
   each iteration, so a slow client can delay events but can never
   block or wedge a worker — the supervisor's watchdog must not be able
   to mistake a stalled client for a stalled computation.

   Shutdown: SIGTERM/SIGINT, a wire [shutdown] op, or EOF on stdin all
   start a drain — admission closes (new submits are rejected with
   ["draining"]), in-flight sessions finish and their events are
   delivered, then the service shuts down and the process exits 0 if
   everything wound down cleanly (every domain joined, no invariant
   violation), 1 otherwise. A hard-kill timeout bounds the drain. *)

type transport = Stdio | Unix_socket of string | Fd of Unix.file_descr

type conn = {
  cid : int;
  fd_in : Unix.file_descr;
  fd_out : Unix.file_descr;
  lines : Wire.Linebuf.t;
  mutable alive : bool;
  mutable reading : bool;  (** false once the client's input hit EOF *)
}

type state = {
  service : Service.t;
  conns : (int, conn) Hashtbl.t;
  mutable next_cid : int;
  events : (int * string) Queue.t;  (* conn id, wire line *)
  events_mutex : Mutex.t;
  shutdown_req : bool Atomic.t;
}

let enqueue_event st (s : Session.t) =
  if s.Session.notify && s.Session.conn >= 0 then begin
    let line = Wire.to_line (Wire.event s) in
    Mutex.lock st.events_mutex;
    Queue.push (s.Session.conn, line) st.events;
    Mutex.unlock st.events_mutex
  end

let write_line conn line =
  if conn.alive then
    try
      let b = Bytes.of_string line in
      let n = Unix.write conn.fd_out b 0 (Bytes.length b) in
      if n < Bytes.length b then conn.alive <- false
    with Unix.Unix_error _ | Sys_error _ -> conn.alive <- false

let flush_events st =
  let pending =
    Mutex.lock st.events_mutex;
    let l = List.of_seq (Queue.to_seq st.events) in
    Queue.clear st.events;
    Mutex.unlock st.events_mutex;
    l
  in
  List.iter
    (fun (cid, line) ->
      match Hashtbl.find_opt st.conns cid with
      | Some conn -> write_line conn line
      | None -> ())
    pending

let handle_line st conn line =
  if String.trim line = "" then ()
  else
    let reply =
      match Wire.parse_request line with
      | Error e -> Wire.error e
      | Ok (Wire.Ping) -> Wire.pong
      | Ok Wire.Stats -> Wire.stats ~service:(Service.stats_json st.service)
      | Ok Wire.Shutdown ->
          Atomic.set st.shutdown_req true;
          Wire.draining
      | Ok (Wire.Poll id) -> (
          match Service.find st.service id with
          | Some s -> Wire.status s
          | None -> Wire.not_found id)
      | Ok (Wire.Cancel id) -> (
          match Service.find st.service id with
          | Some s ->
              ignore (Service.cancel st.service id);
              Wire.status s
          | None -> Wire.not_found id)
      | Ok (Wire.Submit (spec, notify)) -> (
          match Service.submit ~notify ~conn:conn.cid st.service spec with
          | Service.Accepted s -> Wire.submitted s
          | Service.Rejected { reason; retry_after_ms } ->
              Wire.rejected ?client_ref:spec.Session.client_ref ~reason
                ~retry_after_ms ())
    in
    write_line conn (Wire.to_line reply)

let close_conn st conn =
  conn.alive <- false;
  Hashtbl.remove st.conns conn.cid;
  (* Never close the process's own stdio. *)
  if conn.fd_in <> Unix.stdin then (try Unix.close conn.fd_in with _ -> ())

let add_conn st ~fd_in ~fd_out =
  let cid = st.next_cid in
  st.next_cid <- cid + 1;
  let conn =
    {
      cid;
      fd_in;
      fd_out;
      lines = Wire.Linebuf.create ();
      alive = true;
      reading = true;
    }
  in
  Hashtbl.replace st.conns cid conn;
  conn

let read_conn st conn ~stdio =
  let buf = Bytes.create 65536 in
  match Unix.read conn.fd_in buf 0 (Bytes.length buf) with
  | 0 when stdio ->
      (* EOF on stdio is the client's drain request. Its output stays
         open: the drain delivers in-flight sessions' events to it. *)
      conn.reading <- false;
      Atomic.set st.shutdown_req true
  | 0 -> close_conn st conn
  | n ->
      let lines = Wire.Linebuf.feed conn.lines buf 0 n in
      List.iter (fun l -> handle_line st conn l) lines;
      if Wire.Linebuf.overflowed conn.lines then begin
        write_line conn (Wire.to_line (Wire.error "line too long"));
        close_conn st conn;
        if stdio then Atomic.set st.shutdown_req true
      end
  | exception Unix.Unix_error (Unix.EAGAIN, _, _) -> ()
  | exception Unix.Unix_error _ ->
      close_conn st conn;
      if stdio then Atomic.set st.shutdown_req true

let run ?(config = Service.config ()) ?(drain_timeout_s = 30.)
    ?(quiet = false) ?(signals = true) transport =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* The service's terminal callback needs the server state, which
     needs the service: tie the knot through a ref, written before any
     session can possibly terminate. *)
  let st_ref = ref None in
  let service =
    Service.create
      ~on_terminal:(fun s ->
        match !st_ref with Some st -> enqueue_event st s | None -> ())
      config
  in
  let st =
    {
      service;
      conns = Hashtbl.create 8;
      next_cid = 0;
      events = Queue.create ();
      events_mutex = Mutex.create ();
      shutdown_req = Atomic.make false;
    }
  in
  st_ref := Some st;
  (* [signals = false] runs the server as a guest inside another
     process (an in-process matrix/load cell): the host owns
     SIGTERM/SIGINT — clobbering its handlers would break its own
     graceful interruption. EOF on the primary connection still drains. *)
  let request_shutdown _ = Atomic.set st.shutdown_req true in
  let old_handlers =
    if signals then
      Some
        ( Sys.signal Sys.sigterm (Sys.Signal_handle request_shutdown),
          Sys.signal Sys.sigint (Sys.Signal_handle request_shutdown) )
    else None
  in
  let listener =
    match transport with
    | Stdio ->
        ignore (add_conn st ~fd_in:Unix.stdin ~fd_out:Unix.stdout);
        None
    | Fd fd ->
        ignore (add_conn st ~fd_in:fd ~fd_out:fd);
        None
    | Unix_socket path ->
        if Sys.file_exists path then Unix.unlink path;
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.bind fd (Unix.ADDR_UNIX path);
        Unix.listen fd 16;
        Some (fd, path)
  in
  (* The primary connection: EOF on it is the client's drain request. *)
  let stdio = match transport with Stdio | Fd _ -> true | Unix_socket _ -> false in
  if not quiet then
    prerr_endline
      (Printf.sprintf "rumor-serve: listening (%s), %d workers, queue %d"
         (match transport with
         | Stdio -> "stdio"
         | Fd _ -> "fd"
         | Unix_socket p -> "socket " ^ p)
         config.Service.workers config.Service.queue_capacity);
  let draining = ref false in
  let hard_deadline = ref infinity in
  let running = ref true in
  while !running do
    flush_events st;
    if Atomic.get st.shutdown_req && not !draining then begin
      draining := true;
      hard_deadline := Unix.gettimeofday () +. drain_timeout_s;
      Service.drain st.service;
      if not quiet then
        prerr_endline
          (Printf.sprintf "rumor-serve: draining (%d in flight)"
             (Service.in_flight st.service))
    end;
    let now = Unix.gettimeofday () in
    if !draining && (Service.in_flight st.service = 0 || now > !hard_deadline)
    then running := false
    else begin
      let fds =
        (match listener with Some (fd, _) -> [ fd ] | None -> [])
        @ Hashtbl.fold
            (fun _ c acc -> if c.reading then c.fd_in :: acc else acc)
            st.conns []
      in
      match Unix.select fds [] [] 0.01 with
      | readable, _, _ ->
          List.iter
            (fun fd ->
              match listener with
              | Some (lfd, _) when fd = lfd ->
                  let cfd, _ = Unix.accept lfd in
                  ignore (add_conn st ~fd_in:cfd ~fd_out:cfd)
              | _ -> (
                  match
                    Hashtbl.fold
                      (fun _ c acc -> if c.fd_in = fd then Some c else acc)
                      st.conns None
                  with
                  | Some conn -> read_conn st conn ~stdio
                  | None -> ()))
            readable
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    end
  done;
  (* In-flight work settled (or the hard deadline hit): wind the
     service down, deliver the final events, report. *)
  let clean = Service.shutdown st.service ~timeout_s:5. in
  flush_events st;
  let stats = Service.stats_json st.service in
  if not quiet then
    prerr_endline ("rumor-serve: final " ^ Json.to_string stats);
  Hashtbl.iter
    (fun _ c ->
      write_line c (Wire.to_line (Wire.stats ~service:stats));
      if c.fd_in <> Unix.stdin then try Unix.close c.fd_in with _ -> ())
    st.conns;
  (match listener with
  | Some (fd, path) ->
      (try Unix.close fd with _ -> ());
      if Sys.file_exists path then ( try Unix.unlink path with _ -> ())
  | None -> ());
  (match old_handlers with
  | Some (old_term, old_int) ->
      Sys.set_signal Sys.sigterm old_term;
      Sys.set_signal Sys.sigint old_int
  | None -> ());
  if clean then 0 else 1
