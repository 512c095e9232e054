module Rng = Rumor_rng.Rng
module Engine = Rumor_sim.Engine
module Protocol = Rumor_sim.Protocol
module Selector = Rumor_sim.Selector
module Topology = Rumor_sim.Topology
module Bitset = Rumor_sim.Bitset

type config = {
  timeout : int;
  backoff_base : int;
  backoff_cap : int;
  quiescence : int;
  epoch_rounds : int;
  max_epochs : int;
}

type backoff = { base : int; cap : int }

let backoff ?(base = 1) ?(cap = 8) () =
  if base < 1 then invalid_arg "Repair.backoff: base must be >= 1";
  if cap < base then invalid_arg "Repair.backoff: cap must be >= base";
  { base; cap }

(* The window doubles per attempt, saturating at [cap]; the shift count
   is clamped so attempt counts past 62 cannot overflow the shift. *)
let backoff_window b ~attempt =
  if attempt < 0 then invalid_arg "Repair.backoff_window: attempt < 0";
  min b.cap (b.base lsl min attempt 16)

let backoff_gap b ~rng ~attempt =
  let window = backoff_window b ~attempt in
  1 + Rng.int rng (max window 1)

let backoff_of_config cfg = { base = cfg.backoff_base; cap = cfg.backoff_cap }

let config ?(timeout = 2) ?(backoff_base = 1) ?(backoff_cap = 8) ?quiescence
    ?epoch_rounds ?(max_epochs = 8) ~n () =
  if n < 1 then invalid_arg "Repair.config: n must be >= 1";
  if timeout < 0 then invalid_arg "Repair.config: timeout must be >= 0";
  if backoff_base < 1 then
    invalid_arg "Repair.config: backoff_base must be >= 1";
  if backoff_cap < backoff_base then
    invalid_arg "Repair.config: backoff_cap must be >= backoff_base";
  if max_epochs < 0 then invalid_arg "Repair.config: max_epochs must be >= 0";
  let epoch_rounds =
    match epoch_rounds with
    | Some e ->
        if e < 1 then invalid_arg "Repair.config: epoch_rounds must be >= 1";
        e
    | None -> max 8 (2 * Params.ceil_log2 (max 2 n))
  in
  let quiescence =
    match quiescence with
    | Some q ->
        if q < 1 then invalid_arg "Repair.config: quiescence must be >= 1";
        q
    | None -> epoch_rounds
  in
  { timeout; backoff_base; backoff_cap; quiescence; epoch_rounds; max_epochs }

(* One repair epoch's protocol. Informed nodes never push; they stay
   available to answer pulls until the quiescence budget runs out, then
   age out. Uninformed nodes carry no protocol state — their behaviour
   (when to open a pull channel) lives entirely in the gate. *)
let protocol cfg =
  {
    Protocol.name = "repair-pull";
    selector = Selector.Uniform { fanout = 1 };
    horizon = cfg.epoch_rounds;
    init = (fun ~informed:_ -> ());
    decide =
      (fun () ~round ->
        if round <= cfg.quiescence then Protocol.pull_only else Protocol.silent);
    receive = (fun () ~round:_ -> ());
    feedback = Protocol.no_feedback;
    quiescent = (fun () ~round -> round > cfg.quiescence);
    stop_at_completion = true;
    (* Unit state packs to a single constant code, so repair epochs at
       the 10^7+ scale skip the capacity-sized unit array too. *)
    packed =
      Some
        {
          Protocol.ops =
            {
              Protocol.bits = 8;
              p_init = (fun ~informed:_ -> 0);
              p_decide =
                (fun _ ~round ->
                  if round <= cfg.quiescence then Protocol.pull_only
                  else Protocol.silent);
              p_receive = (fun _ ~round:_ -> 0);
              p_feedback = Protocol.p_no_feedback;
              p_quiescent = (fun _ ~round -> round > cfg.quiescence);
            };
          encode = (fun () -> 0);
          decode = (fun _ -> ());
        };
  }

let strategy cfg ~rng ~capacity ~epoch:_ ~knows =
  let next = Array.make capacity max_int in
  let attempt = Array.make capacity 0 in
  let policy = backoff_of_config cfg in
  for v = 0 to capacity - 1 do
    if not (Bitset.get knows v) then next.(v) <- cfg.timeout + 1
  done;
  let gate ~informed ~node ~round =
    if informed then
      (* Informed nodes initiate nothing during repair: they only answer
         pulls on channels uninformed nodes open towards them. *)
      false
    else if next.(node) = max_int then begin
      (* Became uninformed mid-epoch (recovery amnesia): its silence
         timeout starts now. *)
      next.(node) <- round + cfg.timeout + 1;
      false
    end
    else if round >= next.(node) then begin
      let gap = backoff_gap policy ~rng ~attempt:attempt.(node) in
      attempt.(node) <- attempt.(node) + 1;
      next.(node) <- round + gap;
      true
    end
    else false
  in
  { Engine.epoch_protocol = protocol cfg; epoch_gate = gate }

let self_heal ?fault ?collect_trace ?(forget_on_recover = true) ?reset
    ?on_round_end ?observe ?skew ?monitor ?packed ~config:cfg ~rng ~topology
    ~protocol ~sources () =
  Engine.run_epochs ?fault ?collect_trace ~forget_on_recover ?reset
    ?on_round_end ?observe ?skew ?packed ~max_epochs:cfg.max_epochs ?monitor ~rng ~topology
    ~protocol
    ~repair:(strategy cfg ~rng ~capacity:topology.Topology.capacity)
    ~sources ()

let heal ?fault ?collect_trace ?forget_on_recover ?monitor ?packed ~config ~rng
    ~graph ~protocol ~source () =
  self_heal ?fault ?collect_trace ?forget_on_recover ?monitor ?packed ~config
    ~rng
    ~topology:(Topology.of_graph graph) ~protocol ~sources:[ source ] ()
