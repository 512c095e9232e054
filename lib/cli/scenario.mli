(** Declarative experiment scenarios.

    A scenario is a plain-text [key = value] file (['#'] starts a
    comment) describing one repeated broadcast measurement:

    {v
    # 16k peers, lossy links, the paper's algorithm
    seed     = 7
    n        = 16384
    d        = 8
    topology = regular        # regular|hypercube|torus|complete|gnp|product-k5
                              # |implicit-regular|implicit-hypercube|implicit-chords
    protocol = bef            # bef|bef-seq|push|pull|push-pull|push-pull-age
                              # |quasirandom
    alpha    = 1.0
    fanout   = 4
    loss     = 0.05
    reps     = 5
    domains  = 0          # parallel replication; 0 = auto
    v}

    Lines may end in CRLF and carry trailing whitespace — files written
    on any platform parse identically. {!to_text} renders a scenario
    back into this form.

    Fault-injection keys build a full {!Rumor_sim.Fault.t} plan:
    [burst_loss] / [burst_len] (Gilbert–Elliott bursty loss),
    [crash_rate] / [recover_rate] (crash-stop / crash-recovery),
    [crash_adversary] (none|random|degree|frontier) with [crash_count],
    [crash_round] and [strike_every] (0 = one-shot; [k > 0] re-fires
    the strike every [k] rounds, re-targeting each time — a recurring
    [frontier] strike is an adaptive adversary), [partition_round] /
    [heal_round] / [partition_fraction] (a transient partition window:
    split at [partition_round], heal at [heal_round] — required to be
    later), and [n_error] (the protocol is built with
    [n_estimate = n_error * n], testing the constant-factor-estimate
    claim).

    Churn keys [join_prob] / [leave_prob] run the broadcast on a
    mutable overlay with one {!Rumor_p2p.Churn.session} tick per round;
    joins re-enter uninformed. Either key nonzero enables the churn
    harness (and, with repair on, combines it with self-healing
    epochs). The alternative [churn_rate] key (mutually exclusive with
    [join_prob]/[leave_prob]) instead runs [churn_rate * n] symmetric
    sessions (join and leave both at probability 0.5) per round — the
    churn model of the self-healing frontier (bench E8). [churn_rate =
    0] still engages the overlay harness with zero sessions, which is
    what makes the E8 no-churn column reproducible.

    Self-healing keys enable {!Rumor_core.Repair} epochs after the main
    schedule: [max_epochs] (0, the default, disables repair),
    [repair_timeout] (silent rounds before an uninformed node pulls)
    and [repair_backoff] (randomized-backoff window cap). With repair
    on, runs use recovery amnesia (crash-recovered nodes restart
    uninformed) and the report gains epoch/overhead summaries.

    [source] picks the broadcast source: [random] (the default) draws
    it from the replication stream, [first] pins node 0 without
    consuming randomness. There is no stopping key: the protocol
    decides ([Rumor_sim.Protocol.stop_at_completion]) — the
    open-ended baselines stop at full coverage, bef/bef-seq and
    push-pull-age run their own schedules out.

    The [implicit-*] topologies ({!Rumor_sim.Topology.implicit_regular}
    and friends) compute neighbours on the fly from a per-repetition
    seed instead of materialising a graph, lifting the practical scale
    ceiling from [n ~ 2^20] to [n = 10^7..10^8]. They accept every
    fault key (faults mutate liveness, never edges) and self-healing,
    but reject churn at parse time — churn rewires an overlay, which an
    implicit view has none of. Materialised topologies are capped at
    {!materialise_cap} nodes; beyond that, parsing (and {!make_graph})
    direct you to the implicit alternatives rather than letting the
    build die mid-allocation.

    Unknown keys, duplicate keys, malformed values and out-of-range
    parameters are rejected with a message carrying the offending line
    number {e and} its raw text. The CLI's
    [run] subcommand executes scenario files; the module is also the
    shared home of the topology/protocol factories used across the
    binaries. Sweep grids over these files are the matrix layer
    ({!module:Matrix}). *)

type t = {
  seed : int;
  n : int;
  d : int;
  topology : string;
  protocol : string;
  alpha : float;
  fanout : int;
  loss : float;
  call_failure : float;
  burst_loss : float;  (** stationary bursty-loss rate; 0 disables *)
  burst_len : float;  (** mean burst length in rounds *)
  crash_rate : float;  (** per-node per-round crash probability *)
  recover_rate : float;  (** per-crashed-node per-round recovery probability *)
  crash_adversary : string;  (** none|random|degree|frontier *)
  crash_count : int;  (** nodes killed per strike firing *)
  crash_round : int;  (** round at which the strike (first) lands *)
  strike_every : int;  (** 0 = one-shot; k > 0 re-fires every k rounds *)
  partition_round : int;  (** round the partition opens; 0 = off *)
  heal_round : int;  (** round the partition heals; > [partition_round] *)
  partition_fraction : float;  (** minority-side probability per node *)
  join_prob : float;  (** per-round join probability (churn harness) *)
  leave_prob : float;  (** per-round leave probability (churn harness) *)
  churn_rate : float;
      (** rate-based churn: [churn_rate * n] symmetric sessions per
          round; negative (the default) = unset. [0] still engages the
          overlay harness. Mutually exclusive with
          [join_prob]/[leave_prob]. *)
  n_error : float;  (** n_estimate = n_error * n *)
  repair_timeout : int;
      (** silent rounds before an uninformed node starts pulling *)
  repair_backoff : int;  (** backoff window cap for repair pulls, rounds *)
  max_epochs : int;  (** repair epoch budget; 0 disables self-healing *)
  source : string;
      (** broadcast source: [random] (drawn from the replication
          stream) or [first] (node 0, no draw). *)
  reps : int;
  domains : int;
      (** OCaml domains for parallel replication; 0 (the default) means
          auto ({!Rumor_stats.Experiment.default_domains}). Results are
          bit-identical for every value. *)
  packed : bool;
      (** Store per-node protocol state in packed byte cells where the
          protocol supports it ({!Rumor_sim.Protocol.packed_ops});
          [false] forces the boxed arrays. Trajectories are
          bit-identical either way — the switch exists for memory A/B
          runs and as an escape hatch. Scenario key [packed]. *)
}

val default : t
(** [seed 1, n 16384, d 8, regular, bef, alpha 1.0, fanout 4, no
    faults, exact size estimate, 5 reps, auto domains]. *)

val topologies : string list
(** Accepted [topology] values. *)

val protocols : string list
(** Accepted [protocol] values. *)

val adversaries : string list
(** Accepted [crash_adversary] values. *)

val set_key : t -> key:string -> value:string -> (t, string) result
(** Apply one [key = value] assignment (both already trimmed). This is
    the full scalar surface of the scenario language — range checks
    included, cross-key checks deferred to {!validate}. Errors carry no
    line information; {!parse} adds it, and the matrix layer reuses
    [set_key] to build sweep cells. *)

val validate : t -> (t, string) result
(** Cross-key checks run after the whole file is read: burst
    realisability, partition window ordering, churn vs implicit
    topologies, churn-model exclusivity, matching parity, a size
    estimate [n_error * n] that fits in an int, and the
    materialised-size cap. *)

val parse : string -> (t, string) result
(** Parse scenario text over {!default}: {!set_key} per line with
    duplicate detection, then {!validate}. CRLF line endings and
    trailing whitespace are accepted. *)

val parse_file : string -> (t, string) result
(** Read and {!parse} a file; IO failures map to [Error]. *)

val bindings : t -> (string * string) list
(** Every key of the scenario as the [(key, value)] pair {!set_key}
    accepts, in canonical order, floats in the shortest decimal that
    round-trips. An unset [churn_rate] (negative) is left out, since no
    assignment can express it. Folding the pairs through {!set_key}
    over {!default} rebuilds the scenario. *)

val keys : string list
(** Every key {!set_key} accepts, in {!bindings} order. *)

val to_text : t -> string
(** {!bindings} as [key = value] lines: [parse (to_text s) = Ok s] for
    every valid [s]. The one renderer of a scenario — chaos repro
    artifacts and the service's submit lines both go through it. *)

val is_implicit : string -> bool
(** Whether a topology name denotes a seed-derived implicit view
    (prefix ["implicit-"]) rather than a materialised graph. *)

val materialise_cap : int
(** Maximum [n] for which {!make_graph} will materialise a graph
    ([2^22]); larger runs must use an implicit topology. *)

val make_graph :
  rng:Rumor_rng.Rng.t -> topology:string -> n:int -> d:int ->
  Rumor_graph.Graph.t
(** Topology factory (shared with the CLI).
    @raise Failure on an unknown topology name, on an implicit
    topology (which is never materialised — use {!make_topology}), or
    when [n] exceeds {!materialise_cap}. *)

val make_topology :
  rng:Rumor_rng.Rng.t -> topology:string -> n:int -> d:int ->
  Rumor_sim.Topology.t
(** Like {!make_graph} but returns the kernel's topology view.
    Implicit names build seed-derived views (drawing one seed from
    [rng] for the randomised ones); materialised names delegate to
    {!make_graph} and wrap the result. The view's [capacity] may
    exceed [n] (implicit-hypercube rounds up to a power of two).
    @raise Failure as {!make_graph}.
    @raise Invalid_argument on invalid implicit parameters (odd [n]
    for implicit-regular, [d < 2] for implicit-chords, ...). *)

val make_protocol :
  ?n_estimate:int ->
  protocol:string -> n:int -> d:int -> alpha:float -> fanout:int -> unit ->
  Rumor_core.Algorithm.state Rumor_sim.Protocol.t
(** Protocol factory (shared with the CLI). [n_estimate] (default [n],
    clamped to >= 4) is the network-size estimate handed to the
    protocol's schedule; [n] remains the true size used for horizons.
    @raise Failure on an unknown protocol name. *)

val effective_stop : t -> bool
(** Whether the scenario's runs stop at full coverage: the
    [Rumor_sim.Protocol.stop_at_completion] field of the protocol
    {!make_protocol} builds for it. Every run follows that field
    already; this only reads it. *)

val fault_plan : t -> Rumor_sim.Fault.t
(** Assemble the scenario's fault keys into an engine fault plan. *)

val protocol_name : t -> string
(** The wire/display name of the scenario's protocol (e.g.
    ["bef-parallel-f4"]) — a pure function of the protocol, alpha and
    fanout keys; no RNG is touched. *)

val run_rep :
  ?monitor:Rumor_sim.Invariant.t -> ?collect_trace:bool ->
  ?observe:(int -> unit) -> t -> Rumor_rng.Rng.t -> Rumor_sim.Engine.result
(** One repetition on one pre-forked stream — the unit the matrix
    runner schedules onto its shared domain pool, and the one place a
    scenario becomes an engine run: {!run}, the matrix runner, the
    chaos soak and [rumor broadcast] all call it. The steps are always
    the same: topology ({!make_topology}, or an overlay over
    {!make_graph} when a churn key is set, with the churn tick as the
    round-end hook), protocol, source ([Rng.int rng n] unless
    [source = first]), then {!Rumor_core.Repair.self_heal} when
    [max_epochs > 0] and {!Rumor_sim.Engine.run} otherwise. The draw
    order (graph/view sample, then source, then engine) is a
    compatibility contract: the same stream always yields a
    bit-identical result whichever entry point dispatched it.

    [monitor] (an invariant checker; it draws no randomness),
    [collect_trace] (default [false]) and [observe] (the engine's
    read-only round hook, fired after every round of the main schedule
    and of the repair epochs; it may raise to abort the run) are handed
    to the engine unchanged; none of them moves the trajectory. The
    [rumor serve] sessions use [observe] for their heartbeat,
    cancellation and deadline. *)

type scalars = {
  coverage : float;  (** informed / live population (0 when empty) *)
  rounds : float;
      (** the completion round when every live node was informed, the
          executed rounds otherwise *)
  tx_per_node : float;  (** transmissions per live node *)
  success : float;  (** 1 when every live node was informed, else 0 *)
  epochs : float;  (** repair epochs consumed *)
  repair_tx_per_node : float;
      (** transmissions inside repair epochs, per live node *)
}

val scalars : Rumor_sim.Engine.result -> scalars
(** The per-repetition scalars every entry point reports: {!run}'s
    report and the matrix metrics are means of these. Per-node costs
    divide by [max 1 population], so a run whose every node crashed
    reports 0 rather than nan. *)

type report = {
  scenario : t;
  protocol_name : string;
  success_rate : float;
  coverage : Rumor_stats.Summary.t;
  tx_per_node : Rumor_stats.Summary.t;
  rounds : Rumor_stats.Summary.t;
  epochs : Rumor_stats.Summary.t;
      (** repair epochs consumed per rep (all zero with repair off) *)
  repair_tx_per_node : Rumor_stats.Summary.t;
      (** transmissions spent inside repair epochs, per live node *)
}

val report_of_results : t -> Rumor_sim.Engine.result list -> report
(** Summarise a list of per-repetition results (as produced by
    {!run_rep}): summaries of their {!scalars}. *)

val run : t -> report
(** Execute the scenario: [reps] broadcasts on fresh graphs with forked
    seeds, summarised. *)

val pp_report : Format.formatter -> report -> unit
(** Human-readable rendering of a report. *)
