module Protocol = Rumor_sim.Protocol
module Selector = Rumor_sim.Selector
module Cells = Rumor_sim.Cells

type state = Algorithm.state

let init ~informed =
  if informed then Algorithm.Informed { received = 0 } else Algorithm.Uninformed

let receive state ~round =
  match state with
  | Algorithm.Uninformed -> Algorithm.Informed { received = round }
  | Algorithm.Informed _ as st -> st

(* Packed codes, shared with {!Algorithm}: 0 = Uninformed, [c > 0] =
   Informed { received = c - 1 }. Baseline decisions depend only on
   informedness and the round, so the packed decide takes the same
   [decide_code] closure each constructor already has. *)
let encode state =
  match state with
  | Algorithm.Uninformed -> 0
  | Algorithm.Informed { received } -> received + 1

let decode c =
  if c = 0 then Algorithm.Uninformed else Algorithm.Informed { received = c - 1 }

let packed_of ~horizon ~decide_code ~quiescent_code =
  if horizon + 1 > 0xFFFFFFFF then None
  else
    let bits = Cells.bits_of_width (Cells.width_for (horizon + 1)) in
    Some
      {
        Protocol.ops =
          {
            Protocol.bits;
            p_init = (fun ~informed -> if informed then 1 else 0);
            p_decide =
              (fun c ~round ->
                if c = 0 then Protocol.silent else decide_code ~round);
            p_receive = (fun c ~round -> if c = 0 then round + 1 else c);
            p_feedback = Protocol.p_no_feedback;
            p_quiescent = (fun _ ~round -> quiescent_code ~round);
          };
        encode;
        decode;
      }

let constant_protocol ~name ~selector ~horizon ~decision =
  Selector.validate selector;
  let decide_code ~round =
    if round <= horizon then decision else Protocol.silent
  in
  {
    Protocol.name;
    selector;
    horizon;
    init;
    decide =
      (fun state ~round ->
        match state with
        | Algorithm.Uninformed -> Protocol.silent
        | Algorithm.Informed _ -> decide_code ~round);
    receive;
    feedback = Protocol.no_feedback;
    quiescent = (fun _ ~round -> round > horizon);
    stop_at_completion = true;
    packed =
      packed_of ~horizon ~decide_code ~quiescent_code:(fun ~round ->
          round > horizon);
  }

let push ?(fanout = 1) ~horizon () =
  constant_protocol ~name:(Printf.sprintf "push-f%d" fanout)
    ~selector:(Selector.Uniform { fanout })
    ~horizon
    ~decision:Protocol.push_only

let pull ?(fanout = 1) ~horizon () =
  constant_protocol ~name:(Printf.sprintf "pull-f%d" fanout)
    ~selector:(Selector.Uniform { fanout })
    ~horizon
    ~decision:Protocol.pull_only

let push_pull ?(fanout = 1) ~horizon () =
  constant_protocol ~name:(Printf.sprintf "push-pull-f%d" fanout)
    ~selector:(Selector.Uniform { fanout })
    ~horizon
    ~decision:Protocol.push_pull

let push_pull_age ?(fanout = 1) ~push_rounds ~total_rounds () =
  if total_rounds < push_rounds then
    invalid_arg "Baselines.push_pull_age: total_rounds < push_rounds";
  let decide_code ~round =
    if round <= push_rounds then Protocol.push_pull
    else if round <= total_rounds then Protocol.pull_only
    else Protocol.silent
  in
  {
    Protocol.name = Printf.sprintf "push-pull-age-f%d" fanout;
    selector = Selector.Uniform { fanout };
    horizon = total_rounds;
    init;
    decide =
      (fun state ~round ->
        match state with
        | Algorithm.Uninformed -> Protocol.silent
        | Algorithm.Informed _ -> decide_code ~round);
    receive;
    feedback = Protocol.no_feedback;
    quiescent = (fun _ ~round -> round > total_rounds);
    stop_at_completion = false;
    packed =
      packed_of ~horizon:total_rounds ~decide_code ~quiescent_code:(fun ~round ->
          round > total_rounds);
  }

let push_then_pull ?(fanout = 1) ~push_rounds ~total_rounds () =
  if total_rounds < push_rounds then
    invalid_arg "Baselines.push_then_pull: total_rounds < push_rounds";
  let decide_code ~round =
    if round <= push_rounds then Protocol.push_only
    else if round <= total_rounds then Protocol.pull_only
    else Protocol.silent
  in
  {
    Protocol.name = Printf.sprintf "push-then-pull-f%d" fanout;
    selector = Selector.Uniform { fanout };
    horizon = total_rounds;
    init;
    decide =
      (fun state ~round ->
        match state with
        | Algorithm.Uninformed -> Protocol.silent
        | Algorithm.Informed _ -> decide_code ~round);
    receive;
    feedback = Protocol.no_feedback;
    quiescent = (fun _ ~round -> round > total_rounds);
    stop_at_completion = false;
    packed =
      packed_of ~horizon:total_rounds ~decide_code ~quiescent_code:(fun ~round ->
          round > total_rounds);
  }

let quasirandom ~fanout ~horizon =
  constant_protocol ~name:(Printf.sprintf "quasirandom-f%d" fanout)
    ~selector:(Selector.Quasirandom { fanout })
    ~horizon
    ~decision:Protocol.push_only
