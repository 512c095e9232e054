(** Asynchronous (continuous-time) execution of phone-call protocols.

    The paper's model is synchronous: all nodes act in lockstep rounds
    driven by a global clock. Real P2P systems are only loosely
    synchronised, and the standard asynchronous relaxation gives every
    node an independent rate-1 Poisson clock: when a node's clock
    rings, it opens its channels and transmits exactly as it would in a
    round. One unit of continuous time corresponds to one expected
    activation per node, so a protocol's round-indexed schedule maps
    onto time by [logical round = floor time + 1] — nodes still share
    a clock for {e timestamps} (message age), but not for {e actions}.

    Comparing {!run} against {!Engine.run} measures how much of the
    paper's analysis survives without the synchrony assumption
    (ablation A2 stresses bounded skew; this module removes lockstep
    entirely). The implementation is {!Kernel.run_async}, which shares
    the selection, fault-sampling, delivery and quiescence machinery
    with the synchronous kernel. *)

type result = Kernel.async_result = {
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

val run :
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
  result
(** [run ~protocol ~sources ()] executes activations in Poisson order
    to the kernel's stopping rule (quiescence at the current logical
    round, continuous time [protocol.horizon], or — for an open-ended
    protocol ([Protocol.stop_at_completion]) — the first moment every
    node is informed; see {!Kernel}). Only the [Uniform] selector is
    meaningful per-activation; stateful selectors are accepted and keep
    their per-node state across activations. [fault] is sampled through
    the stateless view ({!Fault.channel_ok}, {!Fault.delivery_ok} with
    the transmission's direction): independent failures and asymmetric
    push/pull loss apply; burst and crash modes need the synchronous
    kernel's fault runtime ({!Engine.run}, {!Multi.run}) and are
    ignored here. [on_round_end] and [reset] fire at each integer
    time-unit boundary the run crosses — the asynchronous analogue of a
    round end; ids returned by [reset] restart uninformed.
    @raise Invalid_argument if [sources] is empty or out of range. *)
