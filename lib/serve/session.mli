(** A broadcast session: one client request multiplexed onto the worker
    pool.

    Sessions move through [Queued -> Running -> (Backoff -> Queued ->
    Running)* -> Done _]; every accepted session reaches exactly one
    terminal outcome ([Completed | Failed | Shed | Cancelled]) — the
    no-session-lost invariant the {!Monitor} enforces. Deadlines derive
    from the paper's round bound: [factor * ceil_log2 n] rounds at a
    declared per-round wall budget, so an attempt that blows its budget
    is cancelled and retried (randomized exponential backoff, shared
    policy with [Rumor_core.Repair]) rather than allowed to squat on a
    worker.

    Mutable fields are guarded by the owning service's mutex; [cancel]
    and [attempt_token] are atomics read from worker domains. *)

type spec = {
  scenario : Rumor_cli.Scenario.t;
      (** what to run: one repetition of this scenario ([reps] and
          [domains] are ignored) *)
  crash_worker : bool;  (** fault injection: kill the worker domain mid-run *)
  wedge_ms : float;  (** fault injection: stall without heartbeating *)
  deadline_ms : float option;  (** per-attempt wall budget; [None] = derived *)
  trace : bool;  (** collect the per-round trace *)
  client_ref : string option;
}

val default_spec : spec
(** {!Rumor_cli.Scenario.default} with every service field off. *)

val max_n : int
(** Admission ceiling on [n] for materialised topologies ([2^20]) —
    bounds the graph one attempt samples. *)

val max_implicit_n : int
(** Admission ceiling on [n] for [implicit-*] topologies ([10^8]): no
    graph is built and packed per-node state keeps a run at bytes per
    node, so the cap is the simulation frontier. *)

val admit : Rumor_cli.Scenario.t -> (Rumor_cli.Scenario.t, string) result
(** The scenario language's own checks — the scenario re-read through
    {!Rumor_cli.Scenario.to_text}, so a record built in code is
    range-checked like a file — then the service's admission caps on
    every key that scales one session's memory or work: [n] (by
    topology kind; 2048 for [complete]), [d], [alpha], [fanout] and
    [burst_len] at most 64,
    [loss] at most 0.9, [burst_loss] at most 0.5, [churn_rate] at most
    1, [max_epochs] at most 64, [repair_backoff] at most 1024. *)

val validate_spec : spec -> (spec, string) result
(** {!admit} on the scenario plus range checks on the service fields
    (the wire is hostile input). *)

type outcome = Completed | Failed of string | Shed | Cancelled

type state = Queued | Running | Backoff | Done of outcome

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
  mutable protocol : string;
  mutable degraded : bool;
  mutable trace_enabled : bool;
  mutable attempts : int;
  mutable retries : int;
  mutable failovers : int;
  mutable not_before : float;
  mutable finished_at : float;
  mutable last_error : string option;
  mutable stats : run_stats option;
  attempt_token : int Atomic.t;
  cancel : bool Atomic.t;
  notify : bool;
  conn : int;
}

val make : id:int -> now:float -> notify:bool -> conn:int -> spec -> t

val state_name : state -> string
(** [queued|running|backoff|completed|failed|shed|cancelled]. *)

val is_terminal : t -> bool

val latency_s : t -> float
(** Submission-to-terminal wall time; 0 until terminal. *)

val deadline_s :
  deadline_factor:float -> round_budget_us:float -> spec -> float
(** The per-attempt wall budget in seconds: the spec's explicit
    [deadline_ms] if given, else [factor * ceil_log2 n *
    round_budget_us]. An explicit budget runs from the attempt's
    start, the derived one from its first round. *)

val setup_grace_s : spec -> float
(** How long an attempt may take to reach its first round before the
    watchdog deposes its worker: 2 s plus 2 µs per [n * d]. *)

type attempt_outcome =
  | Finished of run_stats * bool  (** stats, success (all live informed) *)
  | Deadline_expired
  | Cancelled_by_client

exception Crash_injected
(** Simulated worker crash (from [crash_worker] specs): deliberately
    escapes the worker loop so the domain dies and the supervisor's
    failover + restart path runs. *)

val exec :
  deadline_factor:float ->
  round_budget_us:float ->
  beat:(unit -> unit) ->
  t ->
  attempt_outcome
(** Run one attempt: exactly [Scenario.run_rep ~observe scenario
    (Rng.fork (Rng.create seed) (k - 1))] for attempt [k] (the
    scenario's protocol replaced by the session's effective one, which
    shedding may have downgraded), so attempt [k] is rep [k - 1] of
    [Scenario.run] and a retried session is a fresh independent run,
    reproducible from the spec alone. The graph is sampled inside the
    attempt. [observe] calls [beat] once per round — the watchdog's
    evidence that the worker is slow, not wedged — and raises to
    cancel or to end an attempt past its deadline.
    @raise Crash_injected when the spec asks for it (first attempt). *)
