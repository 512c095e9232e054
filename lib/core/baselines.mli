(** Baseline protocols from the literature the paper compares against.

    All of them live in the standard random phone call model (one
    uniformly random neighbour per round) unless a different selector
    is requested. State is the receipt round, as in {!Algorithm}.

    {!push}, {!pull}, {!push_pull} and {!quasirandom} have no
    termination rule: they set [Rumor_sim.Protocol.stop_at_completion],
    so every driver measures them oracle-stopped at full coverage.
    {!push_pull_age} and {!push_then_pull} end on their own schedule. *)

type state = Algorithm.state

val push : ?fanout:int -> horizon:int -> unit -> state Rumor_sim.Protocol.t
(** The classic push algorithm [7,33]: every informed node pushes in
    every round until [horizon]; runs stop at full coverage, which
    measures its [Theta(n log n)] oracle-stopped transmission count. *)

val pull : ?fanout:int -> horizon:int -> unit -> state Rumor_sim.Protocol.t
(** The pull algorithm: every informed node answers every caller. *)

val push_pull : ?fanout:int -> horizon:int -> unit -> state Rumor_sim.Protocol.t
(** Combined push&pull [25] without termination — both directions every
    round until [horizon]. *)

val push_pull_age :
  ?fanout:int -> push_rounds:int -> total_rounds:int -> unit ->
  state Rumor_sim.Protocol.t
(** Age-based push&pull in the spirit of Karp et al. [25]: push&pull
    while the rumor is young ([round <= push_rounds]), pull-only
    afterwards, everything stops at [total_rounds]. With
    [push_rounds ~ log2 n] and [total_rounds - push_rounds ~ c log2 n]
    this is the strongest strictly oblivious single-choice protocol we
    measure against the lower bound (E3).
    @raise Invalid_argument if [total_rounds < push_rounds]. *)

val push_then_pull :
  ?fanout:int -> push_rounds:int -> total_rounds:int -> unit ->
  state Rumor_sim.Protocol.t
(** Karp-style two-phase schedule: push-only while
    [round <= push_rounds], pull-only afterwards until [total_rounds].
    With [push_rounds ~ log2 n] the pull tail length is the quantity
    the lower bound forces to be [Omega(log n / log d)] in the standard
    model — experiment E3 measures exactly this knob.
    @raise Invalid_argument if [total_rounds < push_rounds]. *)

val quasirandom : fanout:int -> horizon:int -> state Rumor_sim.Protocol.t
(** Quasirandom push of Doerr–Friedrich–Sauerwald [9]: push along the
    adjacency list from a random start position. *)
