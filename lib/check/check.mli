(** Property runner: iterate a QCheck2 generator, evaluate a property,
    and on failure walk the shrink tree to a minimal counterexample.

    Every failure report carries the {e reproduction seed} of the
    failing iteration: [run ~seed:failure.seed ~iters:1 ...] replays
    exactly that counterexample (before shrinking), independent of how
    many iterations the original run needed to reach it. Iteration 0
    draws from [Random.State.make [| seed |]], so a seed replays on
    OCaml 5 with the same qcheck-core version. *)

(** Why a property did not hold for one value. *)
type reason =
  | Falsified of string  (** property returned [Error msg] *)
  | Raised of string  (** property raised; the message includes the exn *)

type failure = {
  seed : int;  (** per-iteration reproduction seed *)
  iteration : int;  (** 0-based index within the run *)
  shrink_steps : int;  (** accepted shrinks from original to minimal *)
  original : string;  (** printed value as first generated *)
  minimal : string;  (** printed value after shrinking *)
  reason : reason;  (** verdict on the {e minimal} value *)
}

type outcome = { name : string; iters : int; failure : failure option }

val passed : outcome -> bool

(** Multi-line human report: one line for a pass; name, seeds, both
    counterexamples and the reason for a failure. *)
val report : outcome -> string

(** [run ~name ~seed ~iters ~print gen prop] draws [iters] values and
    stops at the first failure, shrinking it to a local minimum (at
    most [max_shrinks] candidate evaluations, default 1000).

    The property either returns [Ok ()], returns [Error msg], or
    raises — exceptions count as failures, so Alcotest-style check
    functions can be used directly inside [prop]. *)
val run :
  name:string ->
  seed:int ->
  iters:int ->
  ?max_shrinks:int ->
  print:('a -> string) ->
  'a Gen.t ->
  ('a -> (unit, string) result) ->
  outcome

(** [assert_ok] raises [Failure] with the full report when the outcome
    is a failure — the bridge to Alcotest test cases. *)
val assert_ok : outcome -> unit
