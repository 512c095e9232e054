(** Broadcasting many rumors over shared channels.

    The random phone call model opens channels {e blindly} — every node
    calls whether or not it has something to say. The paper (after
    [25]) argues this is the right model when messages are generated
    frequently, because one round's channels carry every active rumor
    at once and the per-message channel cost vanishes. This runner
    simulates exactly that: [k] rumors with independent creation times
    share one channel set per round, each following its own copy of the
    protocol schedule (ages are per-rumor), with per-rumor transmission
    accounting. It is a thin instantiation of {!Kernel} — one table per
    message — and inherits the kernel's fault runtime, stopping rule,
    hook surface and census machinery. *)

type message = { source : int; created : int }
(** A rumor, injected at [source] at the end of round [created]
    (so it first transmits in round [created + 1]; use [created = 0]
    for a rumor present from the start). *)

type message_result = {
  completion_round : int option;
      (** absolute round at whose end every live node knew this rumor *)
  informed : int;  (** live nodes that ended up knowing it *)
  transmissions : int;  (** copies of this rumor delivered *)
}

type result = {
  rounds : int;  (** rounds executed *)
  channels : int;  (** channels opened — shared by all rumors *)
  population : int;  (** live nodes at the end *)
  messages : message_result array;  (** indexed like the input list *)
  trace : Trace.t option;
      (** per-round rows when requested ([informed] / [newly] sum over
          rumors) *)
}

val total_transmissions : result -> int
(** Sum of per-rumor transmissions. *)

val all_complete : result -> bool
(** Every rumor reached every live node. *)

val run :
  ?fault:Fault.t ->
  ?collect_trace:bool ->
  ?on_round_end:(int -> unit) ->
  ?reset:(unit -> int list) ->
  ?monitor:Invariant.t ->
  ?packed:bool ->
  rng:Rumor_rng.Rng.t ->
  topology:Topology.t ->
  protocol:'st Protocol.t ->
  messages:message list ->
  unit ->
  result
(** [run ~messages ()] drives all rumors to the kernel's stopping rule
    (each rumor [m] runs its protocol with logical round
    [round - m.created]; see {!Kernel} for horizon and quiescence). An
    open-ended protocol ([Protocol.stop_at_completion]) stops at the
    end of the first round in which every rumor has reached every live
    node, exactly like {!Engine.run}. [fault] drives the kernel's fault
    runtime as on {!Engine.run}: independent failures, asymmetric
    push/pull loss, bursts, crashes, strikes and partitions all apply.
    [on_round_end] and [reset] behave as on {!Engine.run} — installing
    [on_round_end] switches the census to the full per-round recount so
    churn stays correct; [reset] ids forget {e every} rumor.
    @raise Invalid_argument if [messages] is empty or a source is dead
    or out of range. *)
