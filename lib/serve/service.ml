module Rng = Rumor_rng.Rng
module Repair = Rumor_core.Repair
module Json = Rumor_obs.Json
module Latency = Rumor_obs.Latency

(* The service proper: admission control, shedding tiers, the retry
   state machine and terminal accounting, glued to the worker pool.

   Locking: [t.mutex] guards session state transitions, the backoff
   list and the EWMA; the supervisor and mailbox have their own locks.
   Lock order is pool -> service (the watchdog's failover callback
   takes the service mutex while the pool mutex is held); nothing ever
   takes the pool mutex while holding the service mutex, so the order
   is acyclic. [on_terminal] notifications are always invoked with no
   lock held. *)

type config = {
  workers : int;
  queue_capacity : int;
  retry_budget : int;  (** deadline/incomplete re-runs per session *)
  retry_backoff : Repair.backoff;  (** randomized-exponential, in ms *)
  deadline_factor : float;  (** wall budget = factor * ceil_log2 n rounds *)
  round_budget_us : float;  (** declared wall budget per round *)
  shed_trace_at : float;  (** queue occupancy: stop collecting traces *)
  shed_degrade_at : float;  (** queue occupancy: downgrade bef to push-pull *)
  heartbeat_timeout_s : float;
  max_restarts : int;
  restart_window_s : float;
  tick_s : float;  (** ticker period: watchdog + retry promotion *)
}

let config ?(workers = 4) ?(queue_capacity = 64) ?(retry_budget = 3)
    ?(retry_backoff = Repair.backoff ~base:25 ~cap:400 ())
    ?(deadline_factor = 6.) ?(round_budget_us = 2000.) ?(shed_trace_at = 0.5)
    ?(shed_degrade_at = 0.75) ?(heartbeat_timeout_s = 0.25) ?(max_restarts = 8)
    ?(restart_window_s = 60.) ?(tick_s = 0.005) () =
  if workers < 1 then invalid_arg "Service.config: workers < 1";
  if queue_capacity < 1 then invalid_arg "Service.config: queue_capacity < 1";
  if retry_budget < 0 then invalid_arg "Service.config: retry_budget < 0";
  if deadline_factor <= 0. then invalid_arg "Service.config: deadline_factor";
  if round_budget_us <= 0. then invalid_arg "Service.config: round_budget_us";
  if not (0. < shed_trace_at && shed_trace_at <= 1.) then
    invalid_arg "Service.config: shed_trace_at";
  if not (0. < shed_degrade_at && shed_degrade_at <= 1.) then
    invalid_arg "Service.config: shed_degrade_at";
  if tick_s <= 0. then invalid_arg "Service.config: tick_s";
  {
    workers;
    queue_capacity;
    retry_budget;
    retry_backoff;
    deadline_factor;
    round_budget_us;
    shed_trace_at;
    shed_degrade_at;
    heartbeat_timeout_s;
    max_restarts;
    restart_window_s;
    tick_s;
  }

type t = {
  cfg : config;
  mutex : Mutex.t;
  sessions : (int, Session.t) Hashtbl.t;  (** guarded by [mutex] *)
  mutable next_id : int;
  mutable backoff : Session.t list;  (** sessions waiting out a retry gap *)
  mutable draining : bool;
  mutable ewma_attempt_s : float;  (** smoothed attempt wall time *)
  rng : Rng.t;  (** backoff jitter; guarded by [mutex] *)
  mailbox : Session.t Mailbox.t;
  monitor : Monitor.t;
  latency : Latency.t;
  on_terminal : Session.t -> unit;
  ticker_stop : bool Atomic.t;
  mutable ticker : Thread.t option;
  mutable supervisor : Supervisor.t option;  (** Some after [create] returns *)
}

let monitor t = t.monitor
let latency t = t.latency

let with_lock t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

(* --- terminal accounting (callers hold t.mutex) --- *)

let terminal_locked t s outcome ~notifications =
  let already = Session.is_terminal s in
  if not already then begin
    s.Session.state <- Session.Done outcome;
    s.Session.finished_at <- Unix.gettimeofday ();
    (* Stale-ify any zombie still running an old attempt. *)
    Atomic.incr s.Session.attempt_token
  end;
  Monitor.note_terminal t.monitor ~already_terminal:already outcome;
  if not already then begin
    Latency.add t.latency (Session.latency_s s);
    notifications := s :: !notifications
  end

let flush_notifications t ns =
  List.iter (fun s -> t.on_terminal s) (List.rev !ns)

let in_flight_locked t =
  Hashtbl.fold
    (fun _ s acc -> if Session.is_terminal s then acc else acc + 1)
    t.sessions 0

let retry_or_fail_locked t s reason ~now ~notifications =
  s.Session.last_error <- Some reason;
  if s.Session.retries >= t.cfg.retry_budget then
    terminal_locked t s (Session.Failed reason) ~notifications
  else begin
    s.Session.retries <- s.Session.retries + 1;
    Monitor.incr t.monitor `Retries;
    let gap_ms =
      Repair.backoff_gap t.cfg.retry_backoff ~rng:t.rng
        ~attempt:(s.Session.retries - 1)
    in
    s.Session.not_before <- now +. (float_of_int gap_ms /. 1e3);
    s.Session.state <- Session.Backoff;
    t.backoff <- s :: t.backoff
  end

(* --- the worker callback: run one attempt --- *)

let handle_attempt t ~beat s =
  let notifications = ref [] in
  let run =
    with_lock t (fun () ->
        match s.Session.state with
        | Session.Queued when Atomic.get s.Session.cancel ->
            terminal_locked t s Session.Cancelled ~notifications;
            None
        | Session.Queued ->
            s.Session.state <- Session.Running;
            s.Session.attempts <- s.Session.attempts + 1;
            Atomic.incr s.Session.attempt_token;
            Some (Atomic.get s.Session.attempt_token)
        | _ ->
            (* Cancelled-or-terminated while waiting in the mailbox;
               nothing to run. *)
            None)
  in
  flush_notifications t notifications;
  match run with
  | None -> ()
  | Some token ->
      let t0 = Unix.gettimeofday () in
      let outcome =
        (* [Crash_injected] must escape — it is the simulated worker
           death the supervisor exists to catch. Everything else is an
           attempt failure for the retry machinery. *)
        try
          Ok
            (Session.exec ~deadline_factor:t.cfg.deadline_factor
               ~round_budget_us:t.cfg.round_budget_us ~beat s)
        with
        | Session.Crash_injected as e -> raise e
        | e -> Error (Printexc.to_string e)
      in
      let now = Unix.gettimeofday () in
      let notifications = ref [] in
      with_lock t (fun () ->
          t.ewma_attempt_s <-
            (0.8 *. t.ewma_attempt_s) +. (0.2 *. (now -. t0));
          if
            Atomic.get s.Session.attempt_token <> token
            || s.Session.state <> Session.Running
          then ((* failed over or force-terminated while we ran: stale *))
          else
            match outcome with
            | Ok (Session.Finished (stats, true)) ->
                s.Session.stats <- Some stats;
                terminal_locked t s Session.Completed ~notifications
            | Ok (Session.Finished (stats, false)) ->
                s.Session.stats <- Some stats;
                retry_or_fail_locked t s "incomplete broadcast" ~now
                  ~notifications
            | Ok Session.Deadline_expired ->
                retry_or_fail_locked t s "deadline expired" ~now ~notifications
            | Ok Session.Cancelled_by_client ->
                terminal_locked t s Session.Cancelled ~notifications
            | Error msg ->
                retry_or_fail_locked t s msg ~now ~notifications);
      flush_notifications t notifications

(* --- failover: a worker died or was deposed mid-attempt --- *)

let requeue_failover t s =
  let notifications = ref [] in
  with_lock t (fun () ->
      if s.Session.state = Session.Running then begin
        s.Session.failovers <- s.Session.failovers + 1;
        Monitor.incr t.monitor `Failovers;
        (* Invalidate the zombie's attempt before re-queueing. *)
        Atomic.incr s.Session.attempt_token;
        if s.Session.failovers > t.cfg.retry_budget + 1 then
          terminal_locked t s
            (Session.Failed "worker kept dying on this session")
            ~notifications
        else begin
          s.Session.state <- Session.Queued;
          try Mailbox.force_put t.mailbox s
          with Mailbox.Closed ->
            terminal_locked t s
              (Session.Failed "service shut down during failover")
              ~notifications
        end
      end);
  flush_notifications t notifications

(* --- admission --- *)

type admission =
  | Accepted of Session.t
  | Rejected of { reason : string; retry_after_ms : float }

let retry_after_ms t =
  let depth = Mailbox.length t.mailbox in
  let est =
    t.ewma_attempt_s
    *. Float.of_int (1 + (depth / max 1 t.cfg.workers))
    *. 1e3
  in
  Float.min 5000. (Float.max 5. est)

let occupancy t =
  Float.of_int (Mailbox.length t.mailbox)
  /. Float.of_int t.cfg.queue_capacity

(* Graceful degradation: shed optional work before shedding sessions.
   Tier 1 drops trace collection; tier 2 additionally downgrades the
   paper's bef (several times the per-round cost) to plain push&pull;
   tier 3 — a full queue — rejects with a retry hint. *)
let tier t =
  let occ = occupancy t in
  if occ >= 1.0 then 3
  else if occ >= t.cfg.shed_degrade_at then 2
  else if occ >= t.cfg.shed_trace_at then 1
  else 0

let submit ?(notify = false) ?(conn = -1) t spec =
  Monitor.incr t.monitor `Submitted;
  match Session.validate_spec spec with
  | Error reason ->
      Monitor.incr t.monitor `Rejected;
      Rejected { reason; retry_after_ms = 0. }
  | Ok spec ->
      let draining = with_lock t (fun () -> t.draining) in
      if draining then begin
        Monitor.incr t.monitor `Rejected;
        Rejected { reason = "draining"; retry_after_ms = 0. }
      end
      else begin
        let s =
          with_lock t (fun () ->
              let id = t.next_id in
              t.next_id <- id + 1;
              Session.make ~id ~now:(Unix.gettimeofday ()) ~notify ~conn spec)
        in
        (match tier t with
        | 0 -> ()
        | 1 -> s.Session.trace_enabled <- false
        | _ ->
            s.Session.trace_enabled <- false;
            if s.Session.protocol = "bef" || s.Session.protocol = "bef-seq"
            then begin
              s.Session.protocol <- "push-pull";
              s.Session.degraded <- true;
              Monitor.incr t.monitor `Degraded
            end);
        if Mailbox.try_put t.mailbox s then begin
          Monitor.incr t.monitor `Accepted;
          with_lock t (fun () -> Hashtbl.replace t.sessions s.Session.id s);
          Accepted s
        end
        else begin
          Monitor.incr t.monitor `Rejected;
          Rejected
            { reason = "overloaded"; retry_after_ms = retry_after_ms t }
        end
      end

let find t id = with_lock t (fun () -> Hashtbl.find_opt t.sessions id)

let cancel t id =
  let notifications = ref [] in
  let r =
    with_lock t (fun () ->
        match Hashtbl.find_opt t.sessions id with
        | None -> false
        | Some s -> (
            match s.Session.state with
            | Session.Done _ -> false
            | Session.Running ->
                (* Cooperative: the attempt's round hook raises. *)
                Atomic.set s.Session.cancel true;
                true
            | Session.Queued | Session.Backoff ->
                Atomic.set s.Session.cancel true;
                terminal_locked t s Session.Cancelled ~notifications;
                true))
  in
  flush_notifications t notifications;
  r

(* --- ticker: retry promotion, watchdog, failsafe --- *)

let tick t ~now =
  (match t.supervisor with
  | Some sup -> Supervisor.scan sup ~now
  | None -> ());
  let notifications = ref [] in
  with_lock t (fun () ->
      let due, waiting =
        List.partition
          (fun s ->
            s.Session.state <> Session.Backoff
            || s.Session.not_before <= now)
          t.backoff
      in
      t.backoff <- waiting;
      List.iter
        (fun s ->
          if s.Session.state = Session.Backoff then
            if Atomic.get s.Session.cancel then
              terminal_locked t s Session.Cancelled ~notifications
            else begin
              s.Session.state <- Session.Queued;
              try Mailbox.force_put t.mailbox s
              with Mailbox.Closed ->
                terminal_locked t s
                  (Session.Failed "service shut down during backoff")
                  ~notifications
            end)
        due);
  Monitor.observe_queue t.monitor (Mailbox.length t.mailbox);
  (* Failsafe: if the breaker retired every worker, queued work would
     wait forever — fail it explicitly instead (no session lost). *)
  (match t.supervisor with
  | Some sup when Supervisor.live_workers sup = 0 && Supervisor.breaker_open sup
    ->
      let rec drain_dead () =
        match Mailbox.take_opt t.mailbox with
        | None -> ()
        | Some s ->
            with_lock t (fun () ->
                if not (Session.is_terminal s) then
                  terminal_locked t s
                    (Session.Failed "no workers: restart breaker open")
                    ~notifications);
            drain_dead ()
      in
      drain_dead ()
  | _ -> ());
  flush_notifications t notifications

let ticker_loop t () =
  while not (Atomic.get t.ticker_stop) do
    (try tick t ~now:(Unix.gettimeofday ()) with _ -> ());
    Thread.delay t.cfg.tick_s
  done

(* --- lifecycle --- *)

let create ?(on_terminal = fun _ -> ()) cfg =
  let t =
    {
      cfg;
      mutex = Mutex.create ();
      sessions = Hashtbl.create 256;
      next_id = 1;
      backoff = [];
      draining = false;
      ewma_attempt_s = 0.01;
      rng = Rng.create 0x5e7e;
      mailbox = Mailbox.create ~capacity:cfg.queue_capacity;
      monitor =
        Monitor.create ~queue_bound:cfg.queue_capacity
          ~restart_cap:cfg.max_restarts ();
      latency = Latency.create ();
      on_terminal;
      ticker_stop = Atomic.make false;
      ticker = None;
      supervisor = None;
    }
  in
  let sup =
    Supervisor.create
      ~config:
        (Supervisor.config ~workers:cfg.workers
           ~heartbeat_timeout_s:cfg.heartbeat_timeout_s
           ~max_restarts:cfg.max_restarts
           ~restart_window_s:cfg.restart_window_s ())
      ~mailbox:t.mailbox
      ~handle:(fun ~beat s -> handle_attempt t ~beat s)
      ~setup_grace:(fun s -> Session.setup_grace_s s.Session.spec)
      ~on_failover:(fun s -> requeue_failover t s)
      ~on_restart:(fun () -> Monitor.note_restart t.monitor)
      ~on_deposed:(fun () -> Monitor.incr t.monitor `Deposed)
      ()
  in
  t.supervisor <- Some sup;
  t.ticker <- Some (Thread.create (ticker_loop t) ());
  t

let queue_length t = Mailbox.length t.mailbox
let in_flight t = with_lock t (fun () -> in_flight_locked t)
let ewma_attempt_s t = with_lock t (fun () -> t.ewma_attempt_s)

let drain t = with_lock t (fun () -> t.draining <- true)

let stats_json t =
  let sup = Option.get t.supervisor in
  let now = Unix.gettimeofday () in
  Json.Obj
    [
      ("monitor", Monitor.to_json t.monitor);
      ("queue", Json.Int (Mailbox.length t.mailbox));
      ("queue_capacity", Json.Int t.cfg.queue_capacity);
      ("queue_high_water", Json.Int (Mailbox.high_water t.mailbox));
      ("tier", Json.Int (tier t));
      ("in_flight", Json.Int (in_flight t));
      ("workers", Json.Int (Supervisor.live_workers sup));
      ("busy", Json.Int (Supervisor.busy_count sup));
      ("breaker_open", Json.Bool (Supervisor.breaker_open sup));
      ("restarts_in_window", Json.Int (Supervisor.restarts_in_window sup ~now));
      ("ewma_attempt_ms", Json.Float (ewma_attempt_s t *. 1e3));
      ("latency", Latency.to_json t.latency);
      ("draining", Json.Bool (with_lock t (fun () -> t.draining)));
    ]

(* Drain, wait for in-flight work, cancel stragglers, stop the pool and
   the ticker. Returns true iff everything wound down inside the
   timeout and the monitor saw no violation. *)
let shutdown t ~timeout_s =
  drain t;
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec settle () =
    if in_flight t = 0 then true
    else if Unix.gettimeofday () > deadline then false
    else begin
      Thread.delay 0.02;
      settle ()
    end
  in
  let settled = settle () in
  if not settled then begin
    (* Cancel cooperatively, give stragglers a moment, then force-fail
       what remains so every accepted session still reaches a terminal
       state. *)
    with_lock t (fun () ->
        Hashtbl.iter
          (fun _ s ->
            if not (Session.is_terminal s) then
              Atomic.set s.Session.cancel true)
          t.sessions);
    let grace = Unix.gettimeofday () +. Float.min 2. timeout_s in
    let rec wait_grace () =
      if in_flight t = 0 || Unix.gettimeofday () > grace then ()
      else begin
        Thread.delay 0.02;
        wait_grace ()
      end
    in
    wait_grace ();
    let notifications = ref [] in
    with_lock t (fun () ->
        Hashtbl.iter
          (fun _ s ->
            if not (Session.is_terminal s) then
              terminal_locked t s
                (Session.Failed "shutdown timeout")
                ~notifications)
          t.sessions;
        t.backoff <- []);
    flush_notifications t notifications
  end;
  let sup = Option.get t.supervisor in
  Supervisor.begin_drain sup;
  Mailbox.close t.mailbox;
  let workers_clean = Supervisor.drain sup ~timeout_s:(Float.max 1. timeout_s) in
  Atomic.set t.ticker_stop true;
  Option.iter Thread.join t.ticker;
  ignore (Monitor.reconcile t.monitor ~in_flight:(in_flight t));
  settled && workers_clean && Monitor.ok t.monitor
