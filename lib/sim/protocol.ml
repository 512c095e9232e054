type decision = { push : bool; pull : bool }

let silent = { push = false; pull = false }
let push_only = { push = true; pull = false }
let pull_only = { push = false; pull = true }
let push_pull = { push = true; pull = true }

type packed_ops = {
  bits : int;
  p_init : informed:bool -> int;
  p_decide : int -> round:int -> decision;
  p_receive : int -> round:int -> int;
  p_feedback : int -> round:int -> int;
  p_quiescent : int -> round:int -> bool;
}

type 'st packed = {
  ops : packed_ops;
  encode : 'st -> int;
  decode : int -> 'st;
}

type 'st t = {
  name : string;
  selector : Selector.spec;
  horizon : int;
  init : informed:bool -> 'st;
  decide : 'st -> round:int -> decision;
  receive : 'st -> round:int -> 'st;
  feedback : 'st -> round:int -> 'st;
  quiescent : 'st -> round:int -> bool;
  stop_at_completion : bool;
  packed : 'st packed option;
}

let no_feedback st ~round =
  ignore round;
  st

let p_no_feedback code ~round =
  ignore round;
  code
