module Protocol = Rumor_sim.Protocol
module Selector = Rumor_sim.Selector
module Cells = Rumor_sim.Cells

type state = Uninformed | Informed of { received : int }

(* The decision/quiescence logic on the receipt round alone, shared by
   the boxed and packed representations so they cannot drift apart.
   [push_window] is how many consecutive rounds a phase-1 node pushes
   after first receipt: 1 in the 4-choice model, 4 in the sequentialised
   memory variant (where four 1-call rounds simulate one round). *)
let decide_informed ~push_window (s : Phase.schedule) ~received ~round =
  match Phase.phase_of s ~round with
  | Phase.Phase1 ->
      let age = round - received in
      if age >= 1 && age <= push_window then Protocol.push_only
      else Protocol.silent
  | Phase.Phase2 -> Protocol.push_only
  | Phase.Phase3 -> Protocol.pull_only
  | Phase.Phase4 ->
      (* Only nodes first informed in phase 3 or 4 are active. *)
      if received > s.Phase.p2_end then Protocol.push_only
      else Protocol.silent
  | Phase.Finished -> Protocol.silent

let quiescent_informed (s : Phase.schedule) ~received ~round =
  if round > s.Phase.last then true
  else
    match s.Phase.variant with
    | Phase.Large -> false
    | Phase.Small ->
        (* In phase 4 a node informed before phase 3 never transmits
           again. *)
        round > s.Phase.p3_end && received <= s.Phase.p2_end

let decide_with ~push_window (s : Phase.schedule) state ~round =
  match state with
  | Uninformed -> Protocol.silent
  | Informed { received } -> decide_informed ~push_window s ~received ~round

let quiescent_with (s : Phase.schedule) state ~round =
  match state with
  | Uninformed -> true
  | Informed { received } -> quiescent_informed s ~received ~round

(* Packed codes: 0 = Uninformed, c > 0 = Informed { received = c - 1 }.
   Receipt rounds are bounded by the schedule ([decide] is silent past
   [last], so nothing is ever received later), hence every code fits in
   [width_for (last + 1)] — one byte for the paper's O(log n) schedules
   all the way to n = 10^8. *)
let packed_with ~push_window (s : Phase.schedule) =
  let bits = Cells.bits_of_width (Cells.width_for (s.Phase.last + 1)) in
  Some
    {
      Protocol.ops =
        {
          Protocol.bits;
          p_init = (fun ~informed -> if informed then 1 else 0);
          p_decide =
            (fun c ~round ->
              if c = 0 then Protocol.silent
              else decide_informed ~push_window s ~received:(c - 1) ~round);
          p_receive = (fun c ~round -> if c = 0 then round + 1 else c);
          p_feedback = Protocol.p_no_feedback;
          p_quiescent =
            (fun c ~round ->
              c = 0 || quiescent_informed s ~received:(c - 1) ~round);
        };
      encode =
        (fun state ->
          match state with
          | Uninformed -> 0
          | Informed { received } -> received + 1);
      decode = (fun c -> if c = 0 then Uninformed else Informed { received = c - 1 });
    }

let make_with ~name ~push_window ~selector (s : Phase.schedule) =
  Selector.validate selector;
  {
    Protocol.name;
    selector;
    horizon = s.Phase.last;
    init =
      (fun ~informed -> if informed then Informed { received = 0 } else Uninformed);
    decide = decide_with ~push_window s;
    receive =
      (fun state ~round ->
        match state with
        | Uninformed -> Informed { received = round }
        | Informed _ as st -> st);
    feedback = Protocol.no_feedback;
    quiescent = quiescent_with s;
    stop_at_completion = false;
    packed = packed_with ~push_window s;
  }

let schedule_of params variant =
  let variant =
    match variant with Some v -> v | None -> Phase.auto_variant params
  in
  Phase.schedule params variant

let make ?variant ?selector params =
  let s = schedule_of params variant in
  let selector =
    match selector with
    | Some sel -> sel
    | None -> Selector.Uniform { fanout = params.Params.fanout }
  in
  let name =
    Printf.sprintf "bef-%s-f%d" (Phase.variant_to_string s.Phase.variant)
      (Selector.fanout selector)
  in
  make_with ~name ~push_window:1 ~selector s

let sequentialised params =
  let s = schedule_of params None in
  let stretch x = 4 * x in
  let s =
    {
      s with
      Phase.p1_end = stretch s.Phase.p1_end;
      p2_end = stretch s.Phase.p2_end;
      p3_end = stretch s.Phase.p3_end;
      last = stretch s.Phase.last;
    }
  in
  make_with ~name:"bef-memory-w3" ~push_window:4
    ~selector:(Selector.Avoid_recent { fanout = 1; window = 3 })
    s
