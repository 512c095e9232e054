module Rng = Rumor_rng.Rng
module Graph = Rumor_graph.Graph
module Engine = Rumor_sim.Engine
module Topology = Rumor_sim.Topology

let random_source rng g =
  if Graph.n g = 0 then invalid_arg "Run.random_source: empty graph";
  Rng.int rng (Graph.n g)

let once ?fault ?collect_trace ?packed ~rng ~graph ~protocol ~source () =
  Engine.run ?fault ?collect_trace ?packed ~rng
    ~topology:(Topology.of_graph graph) ~protocol ~sources:[ source ] ()

let repeat ?fault ~rng ~graph ~protocol ~times () =
  List.init times (fun i ->
      let stream = Rng.fork rng i in
      let source = random_source stream graph in
      once ?fault ~rng:stream ~graph ~protocol:(protocol ()) ~source ())
