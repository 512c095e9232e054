(* The asynchronous Poisson-clock driver: a thin wrapper over
   {!Kernel.run_async} (which shares the selection, fault-sampling,
   delivery and quiescence machinery with the synchronous kernel). *)

module Graph = Rumor_graph.Graph

type result = Kernel.async_result = {
  activations : int;
  time : float;
  completion_time : float option;
  informed : int;
  transmissions : int;
  trace : Trace.t option;
}

let run ?fault ?collect_trace ?on_round_end ?reset ?monitor ?packed ~rng
    ~graph ~protocol ~sources () =
  let n = Graph.n graph in
  if sources = [] then invalid_arg "Async.run: no sources";
  List.iter
    (fun s -> if s < 0 || s >= n then invalid_arg "Async.run: bad source")
    sources;
  Kernel.run_async ?fault ?collect_trace ?on_round_end ?reset ?monitor
    ?packed ~rng ~graph ~protocol ~sources ()
