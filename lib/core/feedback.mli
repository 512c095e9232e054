(** Rumor-mongering variants of Demers et al. [7] — the replicated
    database paper that motivates this work.

    In [7] a node spreads a "hot rumor" until it loses interest; the
    design space is how interest is lost:

    - {!feedback_coin}: on {e hearing the rumor back} from a partner
      that already knew it, stop with probability [1/k];
    - {!feedback_counter}: stop after hearing it back [k] times;
    - {!blind_coin}: after every active round, stop with probability
      [1/k] regardless of feedback;
    - {!blind_counter}: transmit in exactly [k] active rounds.

    All four are adaptive (feedback variants react to duplicate
    deliveries via the engine's [absorb] hook) and none needs an
    estimate of [n] — the trade-off against the paper's oblivious
    schedule is residue (uninformed fraction left when the rumor dies)
    versus traffic. Per [7], counter beats coin and feedback beats
    blind on residue at equal traffic. Interest loss is their own
    termination rule, so none stops at mere full coverage
    ([stop_at_completion = false]). *)

type state
(** Informed/uninformed plus interest bookkeeping. *)

val feedback_coin :
  rng:Rumor_rng.Rng.t -> k:int -> ?fanout:int -> horizon:int -> unit ->
  state Rumor_sim.Protocol.t
(** Lose interest with probability [1/k] per duplicate heard. The coin
    flips consume randomness from [rng] (independent of the engine's).
    @raise Invalid_argument if [k < 1] or [horizon < 1]. *)

val feedback_counter :
  k:int -> ?fanout:int -> horizon:int -> unit -> state Rumor_sim.Protocol.t
(** Lose interest after [k] duplicates heard. *)

val blind_coin :
  rng:Rumor_rng.Rng.t -> k:int -> ?fanout:int -> horizon:int -> unit ->
  state Rumor_sim.Protocol.t
(** Lose interest with probability [1/k] after each active round. *)

val blind_counter :
  k:int -> ?fanout:int -> horizon:int -> unit -> state Rumor_sim.Protocol.t
(** Transmit for exactly [k] rounds after first receipt. *)
