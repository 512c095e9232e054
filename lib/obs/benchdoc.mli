(** Writing, validation and regression diffing of [rumor-bench/1]
    documents.

    The bench harness, [rumor matrix] and [rumor load] all build their
    documents with {!experiment} and {!document}. [bench-check] is the
    CLI face of the rest: plain validation plus, with
    [--against BASELINE.json], a cell-by-cell regression diff of matrix
    experiments against a committed [BENCH_*.json] trajectory. *)

val experiment : id:string -> title:string -> Metrics.span -> Json.t -> Json.t
(** One experiment record: [id], [title], the span's fields ([wall_s],
    [cpu_s], [peak_rss_kb], [gc]) and the given [data]. *)

val document :
  ?domains:int -> ?truncated:bool -> quick:bool -> reps:int -> Json.t list ->
  Json.t
(** The top-level document around experiment records: [schema],
    [created_unix], [git] ([git describe --always --dirty] of the
    working directory, [null] when unavailable), [ocaml], [word_size], [argv], [quick],
    [reps], [domains] (when given), [truncated] (default [false]) and
    [experiments]. *)

val write : string -> Json.t -> unit
(** Write a document, pretty-printed, to a file. *)

type error =
  | Empty_experiments
      (** schema-valid but vacuous: an empty [experiments] array would
          silently green a broken matrix run, so it is its own error
          class (CLI exit 1, versus 2 for malformed documents) *)
  | Malformed of string  (** any other schema violation *)

val error_to_string : error -> string

val validate : Json.t -> error list
(** Check a parsed document against the [rumor-bench/1] contract:
    schema tag, required top-level fields, and per-experiment [id],
    non-negative [wall_s]/[cpu_s], [gc] and [data] objects. Empty list
    = valid. *)

val diffable_metrics : string list
(** The metrics {!diff} compares: pure functions of the RNG streams
    ([coverage], [rounds], [tx_per_node], [success_rate], [epochs],
    [repair_tx_per_node]). Timings, allocation and RSS are
    machine-dependent and belong to gates instead. *)

type report = {
  failures : string list;  (** regressions — nonzero CLI exit *)
  notes : string list;  (** informational (new cells, skipped points) *)
}

val diff : baseline:Json.t -> candidate:Json.t -> tolerance_pct:float -> report
(** Compare matrix experiments cell by cell. Experiments are matched
    by [id], points by their [coords] object (order-insensitive, exact
    string values). For every matched cell each of
    {!diffable_metrics} present in both documents must stay within
    [tolerance_pct] percent of the baseline (relative to
    [max (abs baseline) 1e-9]). A baseline cell or experiment missing
    from the candidate is a failure, unless the candidate (or that
    baseline point) is marked [truncated] — then it is a note, so
    interrupted runs diff their completed prefix instead of
    hard-failing. Candidate-only cells are notes. Experiments without
    matrix [points] are skipped with a note. Candidate experiments
    recording [data.gates_failed > 0] fail the diff regardless of
    scalar agreement. *)
