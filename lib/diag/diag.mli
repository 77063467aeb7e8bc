(** Structured diagnostics: the error channel of the analysis pipeline.

    A diagnostic is a typed, carry-able description of something that
    went wrong (or was recovered from) while parsing, registering,
    simulating or analyzing a network — severity, a stable kind, human
    message, and provenance (device, file, line, offending fact).
    Producers push diagnostics into a {!collector} (or any
    [t -> unit] sink) instead of raising, so one malformed stanza,
    unknown hostname or crashing targeted simulation degrades the run
    instead of aborting it; consumers print them as
    [file:line: severity: message] lines or embed their stable JSON
    encoding in partial coverage reports.

    The catalog of kinds, severities, exit codes and the
    partial-report schema lives in [docs/ERRORS.md]. *)

(** Severity, ordered: [Info < Warning < Error]. *)
type severity = Info | Warning | Error

val severity_to_string : severity -> string
(** ["info"], ["warning"], ["error"]. *)

(** What went wrong, as a stable machine-readable classification.
    String forms (used in JSON and metrics labels) are dotted:
    [parse.error], [parse.recovered], [registry.duplicate-host],
    [sim.unknown-host], [sim.no-convergence], [sim.policy-eval],
    [analyze.test-failure], [io.error], [internal]. *)
type kind =
  | Parse_error  (** input rejected outright by a parser *)
  | Parse_recovered
      (** a malformed stanza was skipped; the rest of the file parsed *)
  | Duplicate_host  (** two devices share a hostname; the later one lost *)
  | Unknown_host  (** a hostname that resolves to no known device *)
  | No_convergence
      (** the BGP fixed point hit its round cap with hosts still
          changing; the state is the last round's *)
  | Policy_eval  (** a policy-chain evaluation failed *)
  | Sim_failure  (** a targeted simulation or inference rule crashed *)
  | Test_failure  (** a per-test analysis raised and was excluded *)
  | Io_error  (** file system failure while reading input *)
  | Internal  (** anything that escaped classification *)

val kind_to_string : kind -> string

(** One diagnostic. All provenance fields are optional: parsers fill
    [file]/[line], the simulator fills [device], the coverage core
    fills [fact] (the offending fact's {e key} string). *)
type t = {
  severity : severity;
  kind : kind;
  message : string;
  device : string option;
  file : string option;
  line : int option;
  fact : string option;
}

val make :
  ?device:string ->
  ?file:string ->
  ?line:int ->
  ?fact:string ->
  severity ->
  kind ->
  string ->
  t

(** [error kind msg] = [make Error kind msg]; likewise {!warning} and
    {!info}. *)
val error :
  ?device:string -> ?file:string -> ?line:int -> ?fact:string -> kind -> string -> t

val warning :
  ?device:string -> ?file:string -> ?line:int -> ?fact:string -> kind -> string -> t

val info :
  ?device:string -> ?file:string -> ?line:int -> ?fact:string -> kind -> string -> t

(** GCC-style one-liner: [file:line: severity: message]. Provenance
    degrades left-to-right — without a line: [file: severity: message];
    without a file the device stands in; with neither:
    [severity: message]. *)
val to_string : t -> string

(** Provenance-major ordering (file, line, device, severity
    descending, kind, message) — stable sort key for reports. *)
val compare : t -> t -> int

(** Highest severity present, [None] on the empty list. *)
val max_severity : t list -> severity option

val is_error : t -> bool

(** {2 JSON}

    The encoding is a flat object with the string forms of severity
    and kind; absent provenance fields are omitted. *)

val to_json : t -> string

val list_to_json : t list -> string

(** {2 Collector}

    A mutex-guarded sink, safe to share across the pool's domains
    (per-cone labeling and nested fan-out may emit concurrently). *)

type collector

val collector : unit -> collector

val add : collector -> t -> unit

(** [sink c] is [add c] as a plain function, the shape producers take. *)
val sink : collector -> t -> unit

(** Collected diagnostics in insertion order. *)
val items : collector -> t list

val length : collector -> int
