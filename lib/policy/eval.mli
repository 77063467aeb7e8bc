(** Route-policy evaluation with clause tracing.

    This is the "targeted simulation" primitive of the paper (§4.2): it
    applies a policy chain to one route and reports the transformed route
    together with the configuration elements exercised — the matched
    policy clauses and the match lists they consulted. *)

open Netcov_types
open Netcov_config

type verdict = Accepted | Rejected

type result = {
  verdict : verdict;
  route : Route.bgp option;  (** transformed route when accepted *)
  exercised : Element.key list;
      (** matched clauses and the lists their conditions consulted, in
          evaluation order, deduplicated *)
}

(** [run_chain device ~chain ~default route] evaluates the named policies
    in order. A clause matches when all its conditions hold; [Accept] and
    [Reject] actions terminate the chain; attribute modifiers apply and
    evaluation falls through to the next clause. A policy name that does
    not resolve on [device] is skipped. [default] applies when no clause
    terminates the chain.

    [protocol] is the source protocol of the route, consulted by
    [Match_protocol] conditions (defaults to [Bgp]). *)
val run_chain :
  Device.t ->
  chain:string list ->
  default:verdict ->
  ?protocol:Route.protocol ->
  Route.bgp ->
  result

(** [run_chain_unrecorded] is {!run_chain} for callers that read only
    the verdict and the route, such as the BGP fixed point: the same
    walk, but it builds no exercised key, and [exercised] is [[]]. Both
    count in the [policy.chain_evals] metric. *)
val run_chain_unrecorded :
  Device.t ->
  chain:string list ->
  default:verdict ->
  ?protocol:Route.protocol ->
  Route.bgp ->
  result

(** The shape of a chain evaluator, as injected into the targeted
    simulations: [run_chain] itself, or a memoizing wrapper around it
    (the coverage core keys such a cache on device, chain, defaults and
    the canonicalized input route — [run_chain] is a pure function of
    exactly these). *)
type chain_eval =
  Device.t ->
  chain:string list ->
  default:verdict ->
  protocol:Route.protocol ->
  Route.bgp ->
  result

(** [apply_actions device route actions] folds attribute modifiers,
    returning the terminator (if any), the transformed route, and keys of
    community lists consulted by delete actions. *)
val apply_actions :
  Device.t ->
  Route.bgp ->
  Policy_ast.action list ->
  [ `Accept | `Reject | `Fallthrough ] * Route.bgp * Element.key list
