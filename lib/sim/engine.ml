(* The synchronous single-rumor driver: one kernel table. All round
   machinery lives in {!Kernel}. *)

type epoch_stat = Kernel.epoch_stat = {
  epoch : int;
  epoch_rounds : int;
  epoch_informed : int;
  epoch_population : int;
  repair_push_tx : int;
  repair_pull_tx : int;
  repair_channels : int;
}

type result = {
  rounds : int;
  completion_round : int option;
  informed : int;
  population : int;
  push_tx : int;
  pull_tx : int;
  channels : int;
  knows : Bitset.t;
  down : int list;
  repair : epoch_stat list;
  trace : Trace.t option;
}

let transmissions r = r.push_tx + r.pull_tx
let success r = r.population > 0 && r.informed = r.population
let epochs_used r = List.length r.repair

let repair_tx r =
  List.fold_left
    (fun acc e -> acc + e.repair_push_tx + e.repair_pull_tx)
    0 r.repair

let coverage r =
  if r.population = 0 then 0.
  else float_of_int r.informed /. float_of_int r.population

let validate ~where ~topology sources =
  let cap = topology.Topology.capacity in
  if sources = [] then invalid_arg (where ^ ": no sources");
  List.iter
    (fun s ->
      if s < 0 || s >= cap || not (topology.Topology.alive s) then
        invalid_arg (where ^ ": bad source"))
    sources

let of_kernel ~repair (k : Kernel.result) =
  let t = k.Kernel.tables.(0) in
  {
    rounds = k.Kernel.rounds;
    completion_round = t.Kernel.completion_round;
    informed = t.Kernel.informed;
    population = k.Kernel.population;
    push_tx = t.Kernel.push_tx;
    pull_tx = t.Kernel.pull_tx;
    channels = k.Kernel.channels;
    knows = t.Kernel.knows;
    down = k.Kernel.down;
    repair;
    trace = k.Kernel.trace;
  }

let run ?(fault = Fault.none) ?collect_trace ?stop_when_complete ?gate
    ?forget_on_recover ?reset ?on_round_end ?observe ?skew ?monitor ?packed
    ~rng ~topology ~protocol ~sources () =
  validate ~where:"Engine.run" ~topology sources;
  let protocol =
    match stop_when_complete with
    | Some stop_at_completion -> { protocol with Protocol.stop_at_completion }
    | None -> protocol
  in
  of_kernel ~repair:[]
    (Kernel.run ~fault ?collect_trace ?gate ?forget_on_recover ?reset
       ?on_round_end ?observe ?skew ?monitor ?packed ~rng ~topology ~protocol
       ~tables:[| { Kernel.sources; created = 0 } |]
       ())

type 'st epoch_plan = 'st Kernel.epoch_plan = {
  epoch_protocol : 'st Protocol.t;
  epoch_gate : informed:bool -> node:int -> round:int -> bool;
}

let run_epochs ?fault ?collect_trace ?forget_on_recover ?reset ?on_round_end
    ?observe ?skew ?max_epochs ?monitor ?packed ~rng ~topology ~protocol
    ~repair ~sources () =
  validate ~where:"Engine.run_epochs" ~topology sources;
  let k, stats =
    Kernel.run_epochs ?fault ?collect_trace ?forget_on_recover ?reset
      ?on_round_end ?observe ?skew ?max_epochs ?monitor ?packed ~rng ~topology
      ~protocol ~repair ~sources ()
  in
  of_kernel ~repair:stats k
