(** Convenience entry points: run a protocol on a static graph. *)

val random_source : Rumor_rng.Rng.t -> Rumor_graph.Graph.t -> int
(** A uniformly random vertex to start the rumor at.
    @raise Invalid_argument on the empty graph. *)

val once :
  ?fault:Rumor_sim.Fault.t ->
  ?collect_trace:bool ->
  ?packed:bool ->
  rng:Rumor_rng.Rng.t ->
  graph:Rumor_graph.Graph.t ->
  protocol:'st Rumor_sim.Protocol.t ->
  source:int ->
  unit ->
  Rumor_sim.Engine.result
(** Broadcast once from [source] on a static graph, to the protocol's
    own stopping rule ([Rumor_sim.Protocol.stop_at_completion]). *)

val repeat :
  ?fault:Rumor_sim.Fault.t ->
  rng:Rumor_rng.Rng.t ->
  graph:Rumor_graph.Graph.t ->
  protocol:(unit -> 'st Rumor_sim.Protocol.t) ->
  times:int ->
  unit ->
  Rumor_sim.Engine.result list
(** [repeat ~times ()] runs [times] independent broadcasts, each from a
    fresh random source with a forked random stream (so runs are
    reproducible individually). The protocol is rebuilt per run because
    stateful selectors carry per-node memory. *)
