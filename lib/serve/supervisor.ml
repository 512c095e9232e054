(* Worker-domain pool with restart-on-crash and wedge detection.

   OCaml has no [Domain.kill], so a wedged domain cannot be destroyed —
   it can only be *deposed*: marked so that whatever it eventually does
   is ignored, its in-flight session failed over to the pool, and a
   replacement spawned in its slot. The watchdog tells wedged from
   merely slow by heartbeat staleness: workers beat once per simulated
   round, and only a *busy* worker can be stale (an idle worker blocked
   on the mailbox has nothing to beat about). Setup before round 1
   beats nothing, so taking a session arms the heartbeat its setup
   grace ahead.

   Crashes are simpler: the domain body catches everything, so a crash
   leaves [exited] set with [busy] still holding the session — the scan
   reaps the domain (join is instant once exited), fails the session
   over, and respawns if the restart-intensity circuit breaker allows.

   The scan runs on the service's single ticker thread; all pool
   mutation happens under [mutex], so there is exactly one writer to
   the slot table. *)

type config = {
  workers : int;
  heartbeat_timeout_s : float;
  max_restarts : int;  (** restarts allowed inside the sliding window *)
  restart_window_s : float;
}

let config ?(workers = 4) ?(heartbeat_timeout_s = 0.25) ?(max_restarts = 8)
    ?(restart_window_s = 60.) () =
  if workers < 1 then invalid_arg "Supervisor.config: workers < 1";
  if heartbeat_timeout_s <= 0. then
    invalid_arg "Supervisor.config: heartbeat_timeout_s <= 0";
  if max_restarts < 0 then invalid_arg "Supervisor.config: max_restarts < 0";
  if restart_window_s <= 0. then
    invalid_arg "Supervisor.config: restart_window_s <= 0";
  { workers; heartbeat_timeout_s; max_restarts; restart_window_s }

type worker = {
  slot : int;
  gen : int;
  beat_at : float Atomic.t;
  busy : Session.t option Atomic.t;
  deposed : bool Atomic.t;
  exited : bool Atomic.t;
  mutable domain : unit Domain.t option;
}

type t = {
  cfg : config;
  mailbox : Session.t Mailbox.t;
  handle : beat:(unit -> unit) -> Session.t -> unit;
  setup_grace : Session.t -> float;
  on_failover : Session.t -> unit;
  on_restart : unit -> unit;
  on_deposed : unit -> unit;
  slots : worker option array;
  mutable zombies : worker list;  (** deposed workers not yet exited/joined *)
  mutable restart_times : float list;  (** newest first *)
  mutable breaker_open : bool;
  mutable draining : bool;
  mutex : Mutex.t;
}

let worker_body t w () =
  let beat () = Atomic.set w.beat_at (Unix.gettimeofday ()) in
  let rec loop () =
    if not (Atomic.get w.deposed) then
      match Mailbox.take t.mailbox with
      | None -> ()
      | Some s ->
          (* Arm before publishing [busy], so the scan never pairs
             this session with the previous one's last beat. *)
          Atomic.set w.beat_at (Unix.gettimeofday () +. t.setup_grace s);
          Atomic.set w.busy (Some s);
          t.handle ~beat s;
          Atomic.set w.busy None;
          loop ()
  in
  (* A crash (e.g. [Session.Crash_injected]) unwinds past the loop with
     [busy] still set — exactly the state the scan reads as "crashed
     mid-session". *)
  (try loop () with _ -> ());
  Atomic.set w.exited true

(* callers hold t.mutex *)
let spawn_locked t slot gen =
  let w =
    {
      slot;
      gen;
      beat_at = Atomic.make (Unix.gettimeofday ());
      busy = Atomic.make None;
      deposed = Atomic.make false;
      exited = Atomic.make false;
      domain = None;
    }
  in
  t.slots.(slot) <- Some w;
  w.domain <- Some (Domain.spawn (worker_body t w));
  w

let create ~config:cfg ~mailbox ~handle ~setup_grace ~on_failover ~on_restart
    ~on_deposed () =
  let t =
    {
      cfg;
      mailbox;
      handle;
      setup_grace;
      on_failover;
      on_restart;
      on_deposed;
      slots = Array.make cfg.workers None;
      zombies = [];
      restart_times = [];
      breaker_open = false;
      draining = false;
      mutex = Mutex.create ();
    }
  in
  Mutex.lock t.mutex;
  for slot = 0 to cfg.workers - 1 do
    ignore (spawn_locked t slot 0)
  done;
  Mutex.unlock t.mutex;
  t

(* holds t.mutex *)
let breaker_allows t ~now =
  t.restart_times <-
    List.filter (fun ts -> now -. ts <= t.cfg.restart_window_s) t.restart_times;
  if t.breaker_open then false
  else if List.length t.restart_times >= t.cfg.max_restarts then begin
    t.breaker_open <- true;
    false
  end
  else true

(* holds t.mutex *)
let restart_locked t ~now ~slot ~gen =
  if t.draining then t.slots.(slot) <- None
  else if breaker_allows t ~now then begin
    t.restart_times <- now :: t.restart_times;
    t.on_restart ();
    ignore (spawn_locked t slot (gen + 1))
  end
  else t.slots.(slot) <- None

let scan t ~now =
  Mutex.lock t.mutex;
  (* Reap exited zombies: deposed workers that finally unwound. *)
  let live_zombies =
    List.filter
      (fun z ->
        if Atomic.get z.exited then begin
          Option.iter Domain.join z.domain;
          false
        end
        else true)
      t.zombies
  in
  t.zombies <- live_zombies;
  Array.iteri
    (fun slot -> function
      | None -> ()
      | Some w ->
          if Atomic.get w.exited then begin
            (* Crashed (a clean drain exit only happens after [close],
               i.e. with [draining] set and [busy] empty). *)
            Option.iter Domain.join w.domain;
            (match Atomic.exchange w.busy None with
            | Some s -> t.on_failover s
            | None -> ());
            restart_locked t ~now ~slot ~gen:w.gen
          end
          else
            match Atomic.get w.busy with
            | Some _
              when now -. Atomic.get w.beat_at > t.cfg.heartbeat_timeout_s ->
                (* Wedged: depose, fail the session over, replace. The
                   zombie keeps running until its attempt unwinds; its
                   stale attempt token makes anything it reports a
                   no-op. *)
                Atomic.set w.deposed true;
                (match Atomic.exchange w.busy None with
                | Some s -> t.on_failover s
                | None -> ());
                t.zombies <- w :: t.zombies;
                t.on_deposed ();
                restart_locked t ~now ~slot ~gen:w.gen
            | _ -> ())
    t.slots;
  Mutex.unlock t.mutex

let live_workers t =
  Mutex.lock t.mutex;
  let n =
    Array.fold_left (fun acc -> function Some _ -> acc + 1 | None -> acc) 0
      t.slots
  in
  Mutex.unlock t.mutex;
  n

let busy_count t =
  Mutex.lock t.mutex;
  let n =
    Array.fold_left
      (fun acc -> function
        | Some w when Atomic.get w.busy <> None -> acc + 1
        | _ -> acc)
      0 t.slots
  in
  Mutex.unlock t.mutex;
  n

let breaker_open t =
  Mutex.lock t.mutex;
  let b = t.breaker_open in
  Mutex.unlock t.mutex;
  b

let restarts_in_window t ~now =
  Mutex.lock t.mutex;
  let n =
    List.length
      (List.filter
         (fun ts -> now -. ts <= t.cfg.restart_window_s)
         t.restart_times)
  in
  Mutex.unlock t.mutex;
  n

(* Must precede [Mailbox.close]: once the mailbox is closed workers
   exit cleanly, and a scan that still believes the pool is live would
   read those exits as crashes and respawn into a closed mailbox — a
   restart storm. *)
let begin_drain t =
  Mutex.lock t.mutex;
  t.draining <- true;
  Mutex.unlock t.mutex

(* Precondition: [begin_drain] called and the mailbox closed (workers
   drain it and exit). *)
let drain t ~timeout_s =
  begin_drain t;
  let deadline = Unix.gettimeofday () +. timeout_s in
  let all_exited () =
    Mutex.lock t.mutex;
    let slots_done =
      Array.for_all
        (function None -> true | Some w -> Atomic.get w.exited)
        t.slots
    and zombies_done =
      List.for_all (fun z -> Atomic.get z.exited) t.zombies
    in
    Mutex.unlock t.mutex;
    slots_done && zombies_done
  in
  let rec wait () =
    if all_exited () then true
    else if Unix.gettimeofday () > deadline then false
    else begin
      Mailbox.wake t.mailbox;
      Unix.sleepf 0.01;
      wait ()
    end
  in
  let clean = wait () in
  (* Join whatever has exited (instant); leave genuinely wedged domains
     un-joined rather than blocking shutdown on them. *)
  Mutex.lock t.mutex;
  Array.iteri
    (fun slot -> function
      | Some w when Atomic.get w.exited ->
          Option.iter Domain.join w.domain;
          t.slots.(slot) <- None
      | _ -> ())
    t.slots;
  t.zombies <-
    List.filter
      (fun z ->
        if Atomic.get z.exited then begin
          Option.iter Domain.join z.domain;
          false
        end
        else true)
      t.zombies;
  Mutex.unlock t.mutex;
  clean
