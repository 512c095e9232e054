(** The paper's broadcasting algorithm (Section 3, Algorithms 1 and 2).

    Every node opens channels to four distinct random neighbours per
    round and decides from the global time alone whether to push or
    pull — the protocol is strictly oblivious. The state records only
    the round in which the rumor arrived ([0] for the source). *)

type state =
  | Uninformed
  | Informed of { received : int }
      (** [received] is the round of first receipt; sources carry 0. *)

val make :
  ?variant:Phase.variant ->
  ?selector:Rumor_sim.Selector.spec ->
  Params.t ->
  state Rumor_sim.Protocol.t
(** [make params] builds the paper's protocol:

    - [variant] defaults to {!Phase.auto_variant}[ params];
    - [selector] defaults to
      [Uniform {fanout = params.fanout}] (the paper's four distinct
      choices); pass
      [Avoid_recent {fanout = 1; window = 3}] together with
      {!sequentialised} phase lengths for the memory variant of [13].

    The protocol's horizon is the end of the schedule; runs stop
    earlier once every informed node is quiescent, never at mere full
    coverage ([stop_at_completion = false]): Theorems 2/3 count every
    transmission of the schedule. *)

val schedule_of : Params.t -> Phase.variant option -> Phase.schedule
(** The schedule [make] would use — for tests and reporting. *)

val sequentialised : Params.t -> state Rumor_sim.Protocol.t
(** The sequentialised memory variant (footnote 2 of the paper and
    [13]): one call per round avoiding the three most recent choices,
    with every phase stretched by a factor of four so that four rounds
    simulate one round of the 4-choice model. *)
