module Rng = Rumor_rng.Rng
module Engine = Rumor_sim.Engine
module Scenario = Rumor_cli.Scenario

(* One broadcast session: a client-submitted request to run one rumor
   broadcast — one repetition of a scenario — to completion. The service
   multiplexes many of these over a fixed pool of worker domains, so a
   session carries everything an attempt needs plus the bookkeeping the
   supervisor and monitor reason about.

   Locking contract: every mutable field is guarded by the owning
   service's mutex, except [cancel] (an [Atomic] polled from inside the
   engine loop on a worker domain) and [attempt_token] (written under
   the mutex, read by workers to detect that their attempt went stale
   after a failover — see [Supervisor]). *)

type spec = {
  scenario : Scenario.t;  (** what to run: every scenario key but reps/domains *)
  crash_worker : bool;  (** fault injection: kill the worker domain mid-run *)
  wedge_ms : float;  (** fault injection: stall without heartbeating *)
  deadline_ms : float option;  (** per-attempt wall budget; None = derived *)
  trace : bool;
  client_ref : string option;  (** opaque client correlation tag *)
}

let default_spec =
  {
    scenario = Scenario.default;
    crash_worker = false;
    wedge_ms = 0.;
    deadline_ms = None;
    trace = false;
    client_ref = None;
  }

(* Admission caps: the wire is hostile, so on top of the scenario
   language's own checks every key whose value scales one session's
   memory or work is capped. Materialised graphs stay under 2^20 nodes
   (tens of MB); implicit views never materialise one and packed
   per-node state keeps a run at bytes per node, so their ceiling is
   the simulation frontier (bef completes at n = 10^8). *)

let max_n = 1 lsl 20
let max_implicit_n = 100_000_000


let admit (s : Scenario.t) =
  let err fmt = Format.kasprintf (fun m -> Error m) fmt in
  (* Re-reading the scenario through its own text gives a record built
     in code the range checks a file or a submit gets from set_key. *)
  match Scenario.parse (Scenario.to_text s) with
  | Error _ as e -> e
  | Ok s ->
      let n_cap =
        if Scenario.is_implicit s.topology then max_implicit_n else max_n
      in
      if s.n > n_cap then err "n must be in [4, %d]" n_cap
      else if s.topology = "complete" && s.n > 2048 then
        (* it ignores d: n(n-1)/2 edges *)
        err "complete needs n in [4, 2048]"
      else if s.d > 64 then err "d must be in [1, 64]"
      else if s.alpha > 64. then err "alpha must be in (0, 64]"
      else if s.fanout > 64 then err "fanout must be in [1, 64]"
      else if s.loss > 0.9 then err "loss must be in [0, 0.9]"
      else if s.burst_loss > 0.5 then err "burst_loss must be in [0, 0.5]"
      else if s.burst_len > 64. then err "burst_len must be in [1, 64]"
      else if s.churn_rate > 1. then err "churn_rate must be at most 1"
      else if s.max_epochs > 64 then err "max_epochs must be in [0, 64]"
      else if s.repair_backoff > 1024 then
        err "repair_backoff must be in [1, 1024]"
      else Ok s

let validate_spec s =
  let err fmt = Format.kasprintf (fun m -> Error m) fmt in
  match admit s.scenario with
  | Error _ as e -> e
  | Ok scenario ->
      if not (Float.is_finite s.wedge_ms) || s.wedge_ms < 0. || s.wedge_ms > 10_000.
      then err "wedge_ms must be in [0, 10000]"
      else begin
        match s.deadline_ms with
        | Some ms when (not (Float.is_finite ms)) || ms < 1. || ms > 600_000. ->
            err "deadline_ms must be in [1, 600000]"
        | _ -> Ok { s with scenario }
      end

type outcome =
  | Completed
  | Failed of string
  | Shed
  | Cancelled

type state =
  | Queued
  | Running
  | Backoff  (** waiting out a retry gap; re-queued by the ticker *)
  | Done of outcome

type run_stats = {
  rounds : int;
  informed : int;
  population : int;
  transmissions : int;
}

type t = {
  id : int;
  spec : spec;
  submitted_at : float;
  mutable state : state;
  mutable protocol : string;  (** effective protocol (degradation may downgrade) *)
  mutable degraded : bool;
  mutable trace_enabled : bool;
  mutable attempts : int;  (** attempts started *)
  mutable retries : int;  (** deadline/incomplete re-runs *)
  mutable failovers : int;  (** re-queues after a worker crash/wedge *)
  mutable not_before : float;  (** earliest re-queue time while in [Backoff] *)
  mutable finished_at : float;
  mutable last_error : string option;
  mutable stats : run_stats option;
  attempt_token : int Atomic.t;
      (** bumped when an attempt starts or the session is failed over;
          a worker's completion is discarded unless its token is still
          current, so a deposed worker limping to the finish line cannot
          double-terminate a session that was already re-assigned *)
  cancel : bool Atomic.t;
  notify : bool;  (** push a completion event to the submitting client *)
  conn : int;  (** owning connection id; -1 for in-process use *)
}

let make ~id ~now ~notify ~conn spec =
  {
    id;
    spec;
    submitted_at = now;
    state = Queued;
    protocol = spec.scenario.protocol;
    degraded = false;
    trace_enabled = spec.trace;
    attempts = 0;
    retries = 0;
    failovers = 0;
    not_before = 0.;
    finished_at = 0.;
    last_error = None;
    stats = None;
    attempt_token = Atomic.make 0;
    cancel = Atomic.make false;
    notify;
    conn;
  }

let state_name = function
  | Queued -> "queued"
  | Running -> "running"
  | Backoff -> "backoff"
  | Done Completed -> "completed"
  | Done (Failed _) -> "failed"
  | Done Shed -> "shed"
  | Done Cancelled -> "cancelled"

let is_terminal t = match t.state with Done _ -> true | _ -> false

let latency_s t =
  if is_terminal t then t.finished_at -. t.submitted_at else 0.

(* --- deadline derivation ---

   The paper's algorithms finish in O(log n) rounds w.h.p., so a
   session's wall budget is [factor * ceil_log2 n] rounds at a declared
   per-round wall budget. This turns the theoretical round bound into
   an operational deadline: a run that blows it is not "slow", it is
   outside the regime the bound promises, and gets cancelled and
   retried on a fresh stream. *)

let deadline_s ~deadline_factor ~round_budget_us spec =
  match spec.deadline_ms with
  | Some ms -> ms /. 1e3
  | None ->
      deadline_factor
      *. float_of_int (Rumor_core.Params.ceil_log2 spec.scenario.n)
      *. round_budget_us *. 1e-6

(* Setup (graph, protocol and kernel state) beats nothing before the
   first round; the watchdog gives it 2 s plus 2 us per adjacency slot,
   about 5x the single-core cost measured for regular graphs. *)
let setup_grace_s spec =
  2. +. (2e-6 *. float_of_int (spec.scenario.n * spec.scenario.d))

(* --- attempt execution --- *)

type attempt_outcome =
  | Finished of run_stats * bool  (** stats, success (all live informed) *)
  | Deadline_expired
  | Cancelled_by_client

exception Crash_injected
(** Simulated worker crash: escapes the worker loop so the whole domain
    dies, exercising the supervisor's failover + restart path. *)

exception Stop of attempt_outcome

(* Run one attempt: rep [attempts - 1] of the session's scenario, on
   exactly the stream [Scenario.run] gives that rep, so a retried
   session is a fresh independent run, reproducible from the spec alone.
   The graph is sampled inside the attempt, under the watchdog's setup
   grace rather than its heartbeat, and the derived deadline starts at
   the first round; an explicit [deadline_ms] covers the setup too.
   [observe] is read-only, so the run keeps the kernel's incremental
   census. Fault injection (crash, wedge) fires once, early in the first
   attempt, so the retry path is exercised without livelocking the
   session. *)
let exec ~deadline_factor ~round_budget_us ~beat t =
  let spec = t.spec in
  let attempt = t.attempts in
  let scenario = { spec.scenario with protocol = t.protocol } in
  let budget = deadline_s ~deadline_factor ~round_budget_us spec in
  (* An explicit budget covers the whole attempt; the derived one
     prices rounds, so it starts with the first. *)
  let derived = spec.deadline_ms = None in
  let deadline =
    ref (if derived then Float.infinity else Unix.gettimeofday () +. budget)
  in
  let observe round =
    beat ();
    if round = 1 && derived then deadline := Unix.gettimeofday () +. budget;
    if attempt = 1 && round = 2 then begin
      if spec.wedge_ms > 0. then Unix.sleepf (spec.wedge_ms /. 1e3);
      if spec.crash_worker then raise Crash_injected
    end;
    if Atomic.get t.cancel then raise (Stop Cancelled_by_client);
    if Unix.gettimeofday () > !deadline then raise (Stop Deadline_expired)
  in
  match
    Scenario.run_rep ~collect_trace:t.trace_enabled ~observe scenario
      (Rng.fork (Rng.create scenario.seed) (attempt - 1))
  with
  | r ->
      let stats =
        {
          rounds = r.Engine.rounds;
          informed = r.Engine.informed;
          population = r.Engine.population;
          transmissions = Engine.transmissions r;
        }
      in
      Finished (stats, Engine.success r)
  | exception Stop o -> o
