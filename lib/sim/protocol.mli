(** Protocol interface for the random phone call engine.

    A protocol describes, per node and per round, whether to transmit
    the rumor over the channels the node opened ([push]) and over the
    channels opened towards it ([pull]) — exactly the [push(M)] /
    [pull(M)] procedures of Section 3 of the paper. Decisions may
    depend only on local state and the global round number, which makes
    every protocol expressible here {e address-oblivious} by
    construction; protocols whose state depends only on the receipt
    time are additionally {e strictly oblivious} in the sense of the
    lower bound (Section 2). *)

type decision = { push : bool; pull : bool }
(** What a node transmits this round. Only informed nodes are asked. *)

val silent : decision
(** Neither push nor pull. *)

val push_only : decision
val pull_only : decision

val push_pull : decision
(** Shared decision records. [decide] runs once per informed node per
    round, so protocols should return these preallocated constants
    instead of building fresh records — steady-state rounds then
    allocate nothing. *)

type packed_ops = {
  bits : int;  (** declared cell width: 8, 16 or 32 *)
  p_init : informed:bool -> int;
  p_decide : int -> round:int -> decision;
  p_receive : int -> round:int -> int;
  p_feedback : int -> round:int -> int;
  p_quiescent : int -> round:int -> bool;
}
(** Int-coded protocol operations over packed per-node state.

    Each function takes and returns the node's state as a non-negative
    integer code that fits in [bits] bits; the kernel stores the codes
    in a flat [Cells.t] (a few bytes per node) instead of an ['st
    array] of boxed records, which is what lets [bef] run at n = 10^8.
    The hot path works on codes directly — no decode/encode round trip,
    no allocation per decision.

    Contract: packed ops must be {e rng-pure} — they may not draw
    randomness or carry hidden mutable state. The packed kernel path
    applies end-of-round receipts and feedback in ascending node order
    (a word-parallel bitset scan) rather than in delivery order, which
    is only unobservable when the ops are pure. Protocols whose
    [receive]/[feedback] draw (e.g. Demers coin variants) must not
    declare packed ops. *)

type 'st packed = {
  ops : packed_ops;
  encode : 'st -> int;
  decode : int -> 'st;
}
(** Packed ops together with the code ↔ boxed-state bijection.
    [encode]/[decode] are never called on the hot path; they exist so
    differential tests can check that [ops] agrees with the boxed
    functions through the encoding ([decode (p_receive (encode st)
    ~round) = receive st ~round], and likewise for the rest). *)

type 'st t = {
  name : string;  (** for reports and tables *)
  selector : Selector.spec;  (** how nodes choose whom to call *)
  horizon : int;  (** hard cap on rounds (Monte-Carlo time bound) *)
  init : informed:bool -> 'st;  (** per-node state before round 1 *)
  decide : 'st -> round:int -> decision;
      (** transmission decision of an {e informed} node *)
  receive : 'st -> round:int -> 'st;
      (** state update when the rumor is first received in [round];
          visible to [decide] from round [round + 1] on *)
  feedback : 'st -> round:int -> 'st;
      (** state update on a {e transmitting} node each time one of its
          copies reached a partner that already knew the rumor — the
          "recipient says: I know" signal driving the rumor-mongering
          variants of Demers et al. [7]. Most protocols ignore it
          ({!val:no_feedback}). Applied at the end of the round, once
          per redundant delivery; visible to [decide] from the next
          round. *)
  quiescent : 'st -> round:int -> bool;
      (** [true] when an informed node will never transmit at any round
          [>= round]; lets the engine stop early *)
  stop_at_completion : bool;
      (** the stopping rule: [true] for an {e open-ended} protocol (push,
          pull, push-pull, quasirandom, a repair epoch), which has no
          termination rule of its own and is measured {e oracle-stopped}
          — every driver ends the run at the end of the first round in
          which every live node is informed; [false] for a
          {e self-terminating} protocol (bef, bef-seq, the age-out and
          push-then-pull baselines, the Demers variants), whose own
          schedule or counters end the run. Oracle-stopped transmission
          counts are lower bounds: real nodes cannot detect global
          completion. *)
  packed : 'st packed option;
      (** optional compact-state path; [None] keeps the boxed ['st
          array] representation. {b Warning:} a [{ p with decide = … }]
          record update that changes any behaviour field must also
          replace (or drop) [packed], or the packed path will silently
          run the old behaviour. *)
}
(** A broadcast protocol with per-node state ['st]. *)

val no_feedback : 'st -> round:int -> 'st
(** The identity [feedback] for protocols that ignore the signal. *)

val p_no_feedback : int -> round:int -> int
(** The identity packed [p_feedback]. *)
