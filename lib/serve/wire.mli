(** NDJSON wire codec for [rumor serve] — one JSON object per line.

    Requests: [submit], [poll]/[cancel] (by [id]), [stats],
    [shutdown], [ping]. A submit is a scenario file in JSON form: the
    service fields [crash_worker], [wedge_ms], [deadline_ms], [trace],
    [ref] and [notify], and every other field a scenario key, assigned
    with {!Rumor_cli.Scenario.set_key} over
    {!Rumor_cli.Scenario.default} — same names, same defaults, same
    range checks. [reps] and [domains] are refused: a session is one
    repetition. A [null] value keeps a field's default; it is still
    refused for a key that does not exist. This is the hostile boundary: parsing caps nesting
    depth, whitelists ops, rejects unknown keys and duplicate fields
    (a misspelled field is an error, not silently ignored), and
    applies the service's admission caps via
    {!Session.validate_spec}. The codec is pure — framing (line
    splitting, length caps) lives in {!Server}. *)

type request =
  | Submit of Session.spec * bool  (** spec, notify *)
  | Poll of int
  | Cancel of int
  | Stats
  | Shutdown
  | Ping

val max_depth : int
(** Nesting bound handed to [Json.of_string] (32; real requests have
    depth 1). *)

val id_to_string : int -> string
(** Session ids travel as ["s-<n>"]. *)

val id_of_string : string -> int option

val parse_request : string -> (request, string) result

val scenario_fields : Rumor_cli.Scenario.t -> (string * Rumor_obs.Json.t) list
(** A scenario as submit fields: {!Rumor_cli.Scenario.bindings} minus
    [reps]/[domains], every value as the JSON string of its file
    rendering. A submit carrying these
    fields parses back to the same scenario, up to [reps]/[domains]. *)

(** {2 Response encoders} *)

val submitted : Session.t -> Rumor_obs.Json.t
val rejected :
  ?client_ref:string -> reason:string -> retry_after_ms:float -> unit ->
  Rumor_obs.Json.t

val status : Session.t -> Rumor_obs.Json.t
(** Poll response: state, attempts/retries/failovers, terminal latency,
    last error, run result when finished. *)

val event : Session.t -> Rumor_obs.Json.t
(** Push notification ([{"event":"session", ...}]) sent on terminal
    transitions of sessions submitted with [notify]. *)

val stats : service:Rumor_obs.Json.t -> Rumor_obs.Json.t
val pong : Rumor_obs.Json.t
val draining : Rumor_obs.Json.t
val error : string -> Rumor_obs.Json.t
val not_found : int -> Rumor_obs.Json.t

val to_line : Rumor_obs.Json.t -> string
(** Minified rendering plus the terminating newline. *)

(** Newline framing over raw reads, with a line-length cap (default
    1 MiB) as input hardening: a peer that never sends a newline
    poisons the buffer ({!Linebuf.overflowed}) instead of growing it
    without bound, and the connection should then be dropped. *)
module Linebuf : sig
  type t

  val create : ?max_line:int -> unit -> t
  val feed : t -> bytes -> int -> int -> string list
  (** Feed a chunk; returns completed lines (terminators stripped,
      CRLF tolerated). Returns [[]] forever once overflowed. *)

  val overflowed : t -> bool
end
