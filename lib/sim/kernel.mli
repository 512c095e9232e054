(** The shared round kernel behind {!Engine}, {!Multi} and {!Async}.

    The paper's single-message broadcast, its multi-message extension
    (rumors sharing blindly opened channels) and the asynchronous
    Poisson-clock relaxation all execute the same [open; transmit;
    receive; close] schedule. This module is that schedule, implemented
    once: channel selection via {!Selector}, fault gating through a
    {!Fault.runtime} ticked by {!Fault.begin_round}, bitset-backed
    informed state with an incrementally maintained census,
    cached-witness quiescence, clock skew and push/pull/channel
    accounting. The drivers are thin instantiations: {!Engine.run} is
    one table, {!Multi.run} is one table per message, {!Async.run} is
    {!run_async}.

    {2 The driver signature}

    A synchronous driver chooses:
    - the {e tables} — one {!table} per rumor, each with its own
      creation time, per-node protocol state, decision cache and
      transmission accounting, all sharing the round's channel set;
    - the {e hooks} — gate, churn ([on_round_end] / [reset]), recovery
      amnesia, skew, tracing.

    The asynchronous driver ({!run_async}) replaces lockstep rounds
    with Poisson activations; it shares the selection, fault-sampling,
    delivery and quiescence machinery but advances time per activation
    and applies deliveries immediately (decisions are {e not} cached —
    feedback can change a node's mind within a logical round).

    {2 Packed per-node state}

    A protocol that declares {!Protocol.packed} ops stores its per-node
    state as int codes in a flat {!Cells.t} (1–4 bytes per node)
    instead of an ['st array] of boxed records, and its end-of-round
    receipt/feedback staging lives in bitsets instead of capacity-sized
    id queues — together with the {!Cells}-backed decision stamps and
    duplicate tallies this takes a table from ~9 machine words per node
    to a few bytes per node, which is what lets the paper's Algorithms
    1/2 run at n = 10^8. The packed path applies staged receipts and
    feedback in ascending node id order (a word-parallel bitset scan)
    rather than in delivery order; packed ops are rng-pure by contract
    (see {!Protocol.packed_ops}), so results are bit-identical to the
    boxed path — a property the differential suite checks. Pass
    [~packed:false] to force the boxed representation (differential
    testing, debugging). Duplicate tallies are 16-bit: more than 65535
    redundant deliveries to one node in one round raises
    [Invalid_argument] (explicit failure, never a silent wrap), and
    likewise a run whose horizon exceeds [2^32 - 1] rounds.

    {2 Randomness-order contract}

    Simulation results are pinned by golden tests, so the kernel draws
    from [rng] in a fixed, documented order. Synchronous rounds draw:
    fault-runtime tick (burst chains, recoveries, crashes, strike when
    the schedule fires, partition side assignments when the window
    opens) — then per live initiator in id order: neighbour
    selection, then per opened channel: channel establishment, then per
    table: push-delivery loss for deciders, pull-delivery loss for
    answering partners. A call blocked by an open partition window is
    skipped {e before} the channel-establishment draw, exactly like a
    call to a dead node. Hooks, census maintenance, tracing and the
    invariant monitor draw nothing; a plan mode that is off draws
    nothing, so a plan with only communication faults draws exactly
    what the stateless {!Fault.channel_ok} / {!Fault.delivery_ok}
    sampling would. Asynchronous runs draw: inter-activation
    exponential, activated node id, then selection and fault sampling
    as above.

    {2 Census invariant}

    Without [on_round_end] the kernel assumes [topology.alive] is
    stable and maintains the live count and each table's informed count
    incrementally from the only events that move them — source
    injection, receipt, crash, recovery, reset. With [on_round_end]
    installed (churn may mutate liveness arbitrarily) it falls back to
    a full per-round census. Both paths draw no randomness and yield
    identical results; the incremental path also serves the final
    counts without an O(capacity) rescan. Passing [?monitor] makes this
    contract (and the accounting ones) executable: the kernel recounts
    everything from the bitsets at each round boundary and records any
    disagreement — see {!Invariant}.

    {2 Stopping rule}

    A run stops at the shared horizon
    [max over tables (created + protocol.horizon) + max skew], or
    earlier at the end of a round in which every table is quiescent (a
    table is quiescent when its creation round has passed and every
    informed live node's protocol is quiescent at its next logical
    round; an informed {e crashed} node that may still recover keeps
    the system non-quiescent), or — when the protocol is open-ended
    ([Protocol.stop_at_completion]) — at the end of the first round
    in which every table has completed (every live node informed).
    The latter is the {e oracle-stopped} accounting used when
    measuring baseline message complexity: real nodes cannot detect
    global completion, so oracle-stopped transmission counts are lower
    bounds for protocols without a termination rule. The protocol owns
    this choice: of the drivers only {!Engine.run} takes an override. *)

type table = {
  sources : int list;  (** nodes that know this rumor at [created] *)
  created : int;
      (** round at whose end the rumor appears; [0] = present from the
          start, [c > 0] injects at the start of round [c + 1] *)
}
(** One rumor's specification. Tables share every round's channel set;
    each runs the protocol at its own logical round
    [round - created - skew v]. *)

type table_result = {
  completion_round : int option;
      (** first round at whose end every live node knew this rumor *)
  informed : int;  (** informed live nodes at the end of the run *)
  push_tx : int;  (** push transmissions of this rumor *)
  pull_tx : int;  (** pull transmissions of this rumor *)
  knows : Bitset.t;
      (** final informed flag per node id (length = capacity) *)
}

type result = {
  rounds : int;  (** rounds executed *)
  population : int;  (** live (and not crashed) nodes at the end *)
  channels : int;  (** channels opened — shared by all tables *)
  down : int list;
      (** ids crashed and not recovered when the run stopped (ascending);
          [[]] without node faults *)
  trace : Trace.t option;
      (** per-round rows when requested; [informed] / [newly] sum over
          tables *)
  tables : table_result array;  (** indexed like the input *)
}

type gate = informed:bool -> node:int -> round:int -> bool
(** Consulted once per live node per round before the node opens its
    channels; [false] means the node initiates nothing (it still
    answers). With several tables, [informed] means informed in {e all}
    of them. *)

val run :
  ?fault:Fault.t ->
  ?collect_trace:bool ->
  ?gate:gate ->
  ?forget_on_recover:bool ->
  ?reset:(unit -> int list) ->
  ?on_round_end:(int -> unit) ->
  ?observe:(int -> unit) ->
  ?skew:(int -> int) ->
  ?monitor:Invariant.t ->
  ?packed:bool ->
  rng:Rumor_rng.Rng.t ->
  topology:Topology.t ->
  protocol:'st Protocol.t ->
  tables:table array ->
  unit ->
  result
(** Run the synchronous round loop to the stopping rule above.
    [packed] (default [true]) selects the compact {!Cells}-backed state
    representation when the protocol declares packed ops; it has no
    effect otherwise, and results are bit-identical either way.

    [fault] (default {!Fault.none}) drives a fresh {!Fault.runtime},
    ticked at the start of every round: Gilbert–Elliott bursts,
    crash/recovery, strikes and partitions apply. [gate], [skew],
    [forget_on_recover], [reset], [on_round_end] and [observe] behave
    as documented on {!Engine.run}; they apply uniformly to every
    table.
    [reset] ids and recovery amnesia clear {e every} table's flag for
    the node (a wiped node lost all rumors). [monitor] installs the
    runtime invariant monitor ({!Invariant}): every check is recomputed
    from scratch at each round boundary and compared against the
    kernel's incremental answers; it draws nothing and never changes
    the run.

    Sources must be alive and in range — drivers validate and report
    their own error messages; the kernel itself checks only that
    [tables] is non-empty. Empty source lists are allowed (the table
    just starts with nobody informed).
    @raise Invalid_argument if [tables] is empty. *)

(** {1 Repair epochs}

    The self-healing loop of {!Engine.run_epochs}: one rumor, its main
    schedule, then repair epochs. *)

type epoch_stat = {
  epoch : int;  (** 1-based repair epoch index *)
  epoch_rounds : int;  (** rounds the epoch executed *)
  epoch_informed : int;  (** informed live nodes at the epoch's end *)
  epoch_population : int;  (** live nodes at the epoch's end *)
  repair_push_tx : int;  (** push transmissions spent by the epoch *)
  repair_pull_tx : int;  (** pull transmissions spent by the epoch *)
  repair_channels : int;  (** channels the epoch opened *)
}
(** Accounting for one self-healing repair epoch. *)

type 'st epoch_plan = {
  epoch_protocol : 'st Protocol.t;
      (** protocol for one repair epoch (its [horizon] bounds the
          epoch's length) *)
  epoch_gate : gate;
      (** per-round gate for the epoch: silences informed nodes and
          schedules uninformed pulls (timeout + backoff) *)
}
(** One repair epoch's behaviour, built fresh per epoch by the strategy
    callback of {!run_epochs}. *)

val run_epochs :
  ?fault:Fault.t ->
  ?collect_trace:bool ->
  ?forget_on_recover:bool ->
  ?reset:(unit -> int list) ->
  ?on_round_end:(int -> unit) ->
  ?observe:(int -> unit) ->
  ?skew:(int -> int) ->
  ?max_epochs:int ->
  ?monitor:Invariant.t ->
  ?packed:bool ->
  rng:Rumor_rng.Rng.t ->
  topology:Topology.t ->
  protocol:'st Protocol.t ->
  repair:(epoch:int -> knows:Bitset.t -> 'r epoch_plan) ->
  sources:int list ->
  unit ->
  result * epoch_stat list
(** Run the main schedule of one rumor from [sources] once under
    [fault], then — while there is both a live knower and a live
    non-knower, and at most [max_epochs] (default 8) times — ask
    [repair ~epoch ~knows] for a fresh {!epoch_plan} and re-run the
    kernel with every current knower as a source and the plan's gate
    installed. Epochs keep the plan's communication modes but drop
    [crash_rate] / [strike]; see {!Engine.run_epochs} for the
    rationale, churn note and accounting. [observe] fires after every
    round of the main schedule and of every epoch, with one round count
    across the whole run (epoch rounds continue the main schedule's
    numbering). The returned result has one table; it aggregates rounds
    / transmissions / channels across the main run and all epochs, and
    its [completion_round] is the {e main} run's.
    @raise Invalid_argument if [max_epochs < 0]. *)

(** {1 Asynchronous driver} *)

type async_result = {
  activations : int;  (** node activations executed *)
  time : float;  (** continuous time at the end of the run *)
  completion_time : float option;
      (** time at which the last node became informed *)
  informed : int;
  transmissions : int;  (** deliveries, counted as in {!Engine} *)
  trace : Trace.t option;
      (** one row per elapsed unit of continuous time (= logical round)
          when requested, final partial unit included *)
}

val run_async :
  ?fault:Fault.t ->
  ?collect_trace:bool ->
  ?on_round_end:(int -> unit) ->
  ?reset:(unit -> int list) ->
  ?monitor:Invariant.t ->
  ?packed:bool ->
  rng:Rumor_rng.Rng.t ->
  graph:Rumor_graph.Graph.t ->
  protocol:'st Protocol.t ->
  sources:int list ->
  unit ->
  async_result
(** Poisson-clock execution: activations arrive at global rate [n],
    each activating a uniform node that opens its channels and
    transmits as in a synchronous round at logical round
    [floor time + 1]; deliveries apply immediately. The run stops once
    every informed node is quiescent (checked every [4n] activations),
    at continuous time [protocol.horizon], or — for an open-ended
    protocol ([Protocol.stop_at_completion]) — as soon as everyone
    is informed (the oracle-stopped accounting; see the stopping rule
    above). [fault] is sampled statelessly ({!Fault.channel_ok} /
    {!Fault.delivery_ok}): call failure, link loss and asymmetric
    push/pull loss apply, burst and node faults do not. [on_round_end]
    and [reset] fire at each integer time-unit boundary the run crosses
    (the asynchronous analogue of a round end); ids returned by [reset]
    restart uninformed. [monitor] checks the census and monotonicity
    invariants at those same boundaries. Without hooks, tracing or a
    monitor the activation loop is unchanged and draws identically to
    previous releases. Sources are not validated here — drivers do
    that. *)
