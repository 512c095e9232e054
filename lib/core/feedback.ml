module Protocol = Rumor_sim.Protocol
module Selector = Rumor_sim.Selector
module Cells = Rumor_sim.Cells
module Rng = Rumor_rng.Rng

type state =
  | Uninformed
  | Active of { received : int; heard_back : int }
  | Removed  (* informed but no longer spreading *)

let check ~k ~horizon =
  if k < 1 then invalid_arg "Feedback: k < 1";
  if horizon < 1 then invalid_arg "Feedback: horizon < 1"

let init ~informed =
  if informed then Active { received = 0; heard_back = 0 } else Uninformed

let receive state ~round =
  match state with
  | Uninformed -> Active { received = round; heard_back = 0 }
  | Active _ | Removed -> state

let decide state ~round =
  ignore round;
  match state with
  | Active _ -> Protocol.push_pull
  | Uninformed | Removed -> Protocol.silent

(* Packed codes: 0 = Uninformed, 1 = Removed, and an Active node packs
   both counters into [2 + heard_back * stride + received] with
   [stride = horizon + 1] (receipt rounds never exceed the horizon).
   Only the counter variants are packable: the coin variants draw from
   [rng] inside [feedback]/[receive], which the packed kernel path —
   applying staged updates in id order, not delivery order — must never
   do (see {!Protocol.packed_ops}). *)

let encode_packed ~stride state =
  match state with
  | Uninformed -> 0
  | Removed -> 1
  | Active { received; heard_back } -> 2 + (heard_back * stride) + received

let decode_packed ~stride c =
  if c = 0 then Uninformed
  else if c = 1 then Removed
  else Active { received = (c - 2) mod stride; heard_back = (c - 2) / stride }

let packed_counter ~k ~horizon ~p_decide ~p_feedback ~p_quiescent =
  let stride = horizon + 1 in
  let max_code = 1 + (k * stride) in
  if max_code > 0xFFFFFFFF then None
  else
    let bits = Cells.bits_of_width (Cells.width_for max_code) in
    Some
      {
        Protocol.ops =
          {
            Protocol.bits;
            p_init = (fun ~informed -> if informed then 2 else 0);
            p_decide;
            p_receive = (fun c ~round -> if c = 0 then 2 + round else c);
            p_feedback;
            p_quiescent;
          };
        encode = encode_packed ~stride;
        decode = decode_packed ~stride;
      }

(* Blind variants advance on every active round; [decide] is called
   exactly once per round per informed node (the engine caches it), but
   mutating state from [decide] is not possible — instead blind
   variants interpret the age [round - received]. *)

let make ~name ~fanout ~horizon ~feedback ~quiescent_active ~packed =
  {
    Protocol.name;
    selector = Selector.Uniform { fanout };
    horizon;
    init;
    decide;
    receive;
    feedback;
    quiescent =
      (fun state ~round ->
        match state with
        | Uninformed | Removed -> true
        | Active _ as st -> round > horizon || quiescent_active st ~round);
    stop_at_completion = false;
    packed;
  }

let feedback_coin ~rng ~k ?(fanout = 1) ~horizon () =
  check ~k ~horizon;
  let p = 1. /. float_of_int k in
  (* [feedback] draws — not packable by contract. *)
  make
    ~name:(Printf.sprintf "demers-feedback-coin-k%d" k)
    ~fanout ~horizon
    ~feedback:(fun state ~round ->
      ignore round;
      match state with
      | Active _ when Rng.bernoulli rng p -> Removed
      | Active _ | Uninformed | Removed -> state)
    ~quiescent_active:(fun _ ~round -> ignore round; false)
    ~packed:None

let feedback_counter ~k ?(fanout = 1) ~horizon () =
  check ~k ~horizon;
  let stride = horizon + 1 in
  make
    ~name:(Printf.sprintf "demers-feedback-counter-k%d" k)
    ~fanout ~horizon
    ~feedback:(fun state ~round ->
      ignore round;
      match state with
      | Active { received; heard_back } ->
          if heard_back + 1 >= k then Removed
          else Active { received; heard_back = heard_back + 1 }
      | Uninformed | Removed -> state)
    ~quiescent_active:(fun _ ~round -> ignore round; false)
    ~packed:
      (packed_counter ~k ~horizon
         ~p_decide:(fun c ~round ->
           ignore round;
           if c >= 2 then Protocol.push_pull else Protocol.silent)
         ~p_feedback:(fun c ~round ->
           ignore round;
           if c < 2 then c
           else if ((c - 2) / stride) + 1 >= k then 1
           else c + stride)
         ~p_quiescent:(fun c ~round -> c < 2 || round > horizon))

let blind_coin ~rng ~k ?(fanout = 1) ~horizon () =
  check ~k ~horizon;
  let p = 1. /. float_of_int k in
  (* Survival of the blind coin is memoryless; sample the death age once
     per node at first receipt by folding the geometric into state via
     absorb-free bookkeeping: simplest honest encoding is to flip when
     the node becomes active and store the age at which it stops. *)
  make
    ~name:(Printf.sprintf "demers-blind-coin-k%d" k)
    ~fanout ~horizon
    ~feedback:Protocol.no_feedback
    ~quiescent_active:(fun _ ~round -> ignore round; false)
    ~packed:None
  |> fun proto ->
  {
    proto with
    Protocol.receive =
      (fun state ~round ->
        match state with
        | Uninformed ->
            (* Age at which interest dies: 1 + Geometric(p) rounds. *)
            let lifetime = 1 + Rumor_rng.Dist.geometric rng ~p in
            Active { received = round; heard_back = lifetime }
        | Active _ | Removed -> state);
    init =
      (fun ~informed ->
        if informed then begin
          let lifetime = 1 + Rumor_rng.Dist.geometric rng ~p in
          Active { received = 0; heard_back = lifetime }
        end
        else Uninformed);
    decide =
      (fun state ~round ->
        match state with
        | Active { received; heard_back = lifetime } ->
            if round - received <= lifetime then Protocol.push_pull
            else Protocol.silent
        | Uninformed | Removed -> Protocol.silent);
    quiescent =
      (fun state ~round ->
        match state with
        | Uninformed | Removed -> true
        | Active { received; heard_back = lifetime } ->
            round - received > lifetime);
    (* [receive]/[init] draw the geometric — keep the boxed path. *)
    packed = None;
  }

let blind_counter ~k ?(fanout = 1) ~horizon () =
  check ~k ~horizon;
  let stride = horizon + 1 in
  let proto =
    make
      ~name:(Printf.sprintf "demers-blind-counter-k%d" k)
      ~fanout ~horizon ~feedback:Protocol.no_feedback
      ~quiescent_active:(fun _ ~round -> ignore round; false)
      ~packed:None
  in
  {
    proto with
    Protocol.decide =
      (fun state ~round ->
        match state with
        | Active { received; _ } ->
            if round - received <= k then Protocol.push_pull
            else Protocol.silent
        | Uninformed | Removed -> Protocol.silent);
    quiescent =
      (fun state ~round ->
        match state with
        | Uninformed | Removed -> true
        | Active { received; _ } -> round - received > k);
    (* The record update replaced [decide]/[quiescent], so the packed
       ops are stated here to match the {e overridden} behaviour. *)
    packed =
      packed_counter ~k ~horizon
        ~p_decide:(fun c ~round ->
          if c < 2 then Protocol.silent
          else if round - ((c - 2) mod stride) <= k then Protocol.push_pull
          else Protocol.silent)
        ~p_feedback:Protocol.p_no_feedback
        ~p_quiescent:(fun c ~round ->
          c < 2 || round - ((c - 2) mod stride) > k);
  }
