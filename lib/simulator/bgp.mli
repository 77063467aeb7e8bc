(** BGP control-plane computation to a stable state, plus the targeted
    per-route simulations that NetCov's inference rules re-run (§4.2).

    The propagation is a synchronous fixed point, evaluated semi-naively:
    a round recomputes a host only where one of its in-senders' best
    entries changed in the previous round. There it swaps that sender's
    entries for fresh imports of the sender's new best entries and
    re-selects best paths; aggregates above a changed prefix are
    checked again, as they are the one coupling across prefixes. Every
    round yields the tables a round over every host and prefix would. A
    scratch run starts from empty tables with every host's round
    function new, and a warm run from a previous state with the edited
    hosts' round functions new. No provenance is recorded — the
    coverage core re-derives contributions afterwards from the stable
    state alone (paper §3.2, observation 2).

    Each edge is resolved once per fixed point into a {!session}: the
    sender's device, neighbor statement, BGP configuration and export
    chain, and the receiver's device, BGP configuration, import chain
    and eBGP local-pref. The per-route pipeline is split in two halves:
    - the {e sender half} ({!sender_half}): exportability (iBGP
      full-mesh rule, no-export community), summary-only suppression and
      the export chain;
    - the {e receiver half} ({!receiver_half}): the session's wire
      rewrite (eBGP prepending, next-hop and CLUSTER_LIST rewriting),
      the AS-loop check, the import chain and the IGP cost.

    The sender half reads only the sender, the export chain, the eBGP
    flag and the route-reflector-client flag, so sessions that agree on
    those four form an {e update group}, as in BGP speakers: each round
    runs the sender half once per group over the sender's changed best
    entries, and each member applies only its receiver half.
    {!export_route} and {!import_route} resolve one side of an edge and
    call the same halves. *)

open Netcov_types
open Netcov_config

type find_device = string -> Device.t

(** [export_route find_device edge entry] simulates the sender-side
    processing of [entry] over [edge]: exportability (iBGP full-mesh
    rule, no-export community), the export policy chain, eBGP AS
    prepending and next-hop rewriting. Returns the wire message and the
    policy elements exercised on the sender.

    [eval] substitutes the policy-chain evaluator (default:
    [Eval.run_chain]). The inference rules inject one that answers
    repeated targeted simulations of the same (device, chain, route)
    from a memo cache; only [Incr] sessions keep such a cache. *)
val export_route :
  ?eval:Netcov_policy.Eval.chain_eval ->
  find_device ->
  Session.edge ->
  Rib.bgp_entry ->
  Route.bgp option * Element.key list

(** [import_route find_device edge msg] simulates receiver-side
    processing: AS-loop rejection, eBGP local-pref reset, peer-group
    preference, the import policy chain. Returns the accepted route and
    the policy elements exercised on the receiver. *)
val import_route :
  ?eval:Netcov_policy.Eval.chain_eval ->
  find_device ->
  Session.edge ->
  Route.bgp ->
  Route.bgp option * Element.key list

(** [redistribute_route find_device host r main_entry] simulates a
    redistribution config pulling a main-RIB entry into BGP. *)
val redistribute_route :
  ?eval:Netcov_policy.Eval.chain_eval ->
  find_device ->
  string ->
  Device.redistribute ->
  Rib.main_entry ->
  Route.bgp option * Element.key list

(** Result of the fixed-point computation. *)
type result = {
  bgp_ribs : (string, Rib.bgp_entry Rib.table) Hashtbl.t;
  main_ribs : (string, Rib.main_entry Rib.table) Hashtbl.t;
  igp_ribs : (string, Rib.igp_entry Rib.table) Hashtbl.t;
  pre_mains : (string, Rib.main_entry Rib.table) Hashtbl.t;
      (** pre-BGP main RIBs (connected + static + IGP), kept so warm
          restarts can diff them without recomputing *)
  edges : Session.edge list;
  rounds : int;  (** rounds to converge *)
}

(** [compute_pre_mains devices igp_ribs] builds each device's pre-BGP
    main RIB (connected, static, IGP entries) — the local inputs to the
    fixed point. *)
val compute_pre_mains :
  Device.t list ->
  (string, Rib.igp_entry Rib.table) Hashtbl.t ->
  (string, Rib.main_entry Rib.table) Hashtbl.t

(** [reach_of pre_mains host ip] is the pre-BGP reachability predicate
    used for session establishment. *)
val reach_of :
  (string, Rib.main_entry Rib.table) Hashtbl.t -> string -> Ipv4.t -> bool

(** Seed for {!fixed_point}: starting tables, the hosts whose round
    function changed against them (their configuration, pre-BGP main
    RIB, or in-edge set differs from the run that produced the tables),
    and main RIBs to reuse for hosts whose best entries the run leaves
    as they were. {!run}'s scratch seed is empty tables with every host
    dirty. *)
type warm = {
  w_tables : (string, Rib.bgp_entry Rib.table) Hashtbl.t;
  w_dirty : (string, unit) Hashtbl.t;
  w_main_reuse : (string, Rib.main_entry Rib.table) Hashtbl.t;
}

(** [fixed_point ~warm devices ~igp_ribs ~pre_mains ~edges] runs the
    synchronous iteration from explicit inputs, starting from [warm]'s
    tables. Round one recomputes the whole table of every host in
    [w_dirty] and, at every prefix of a dirty sender's table, the
    imports of its receivers; later rounds redo only the prefixes where
    an in-sender's best entries changed. From a seed that is a fixed
    point of the network before an edit, the result matches a scratch
    run whenever the iteration's fixed point is unique. [max_rounds] and
    [diags] behave as for {!run}. *)
val fixed_point :
  ?max_rounds:int ->
  ?diags:(Netcov_diag.Diag.t -> unit) ->
  warm:warm ->
  Device.t list ->
  igp_ribs:(string, Rib.igp_entry Rib.table) Hashtbl.t ->
  pre_mains:(string, Rib.main_entry Rib.table) Hashtbl.t ->
  edges:Session.edge list ->
  result

(** [run devices topo] computes the stable state. [max_rounds] caps the
    iteration (default 64); non-convergence logs a warning, emits one
    [No_convergence] warning diagnostic to [diags] naming the cap and
    the number of hosts still changing, and returns the last state.

    Without [diags], referencing an unknown device raises
    [Invalid_argument]. With [diags], each unknown hostname is reported
    once as an [Unknown_host] error diagnostic and replaced by an
    external stub device, so the computation degrades (routes stop at
    the stub) instead of aborting. *)
val run :
  ?max_rounds:int ->
  ?diags:(Netcov_diag.Diag.t -> unit) ->
  Device.t list ->
  Topology.t ->
  result

(** {2 Sessions}

    Exposed so tests can check the fixed point's pipeline against
    {!export_route} and {!import_route}. *)

(** One edge with both sides resolved. *)
type session

(** [resolve_sessions find_device ~pre_mains edges] resolves every edge
    whose two ends configure BGP and name each other, and returns the
    sessions with the number of update groups among them. *)
val resolve_sessions :
  find_device ->
  pre_mains:(string, Rib.main_entry Rib.table) Hashtbl.t ->
  Session.edge list ->
  session list * int

val session_edge : session -> Session.edge

(** The session's update group, numbered from 0 in resolution order. *)
val update_group : session -> int

(** [sender_half s entry] is the sender's post-export-chain route for
    [entry], or [None] when it is not exported. Equal for every session
    of one update group. *)
val sender_half : session -> Rib.bgp_entry -> Route.bgp option

(** [receiver_half ~pre_main s entry r] turns the sender half's result
    [r] for [entry] into the receiver's candidate entry, or [None] when
    the import rejects it. [pre_main] is the receiver's pre-BGP main
    RIB, which prices the next hop. *)
val receiver_half :
  pre_main:Rib.main_entry Rib.table ->
  session ->
  Rib.bgp_entry ->
  Route.bgp ->
  Rib.bgp_entry option

(** Best-path comparison used by selection (smaller is better); exposed
    for tests. Ranks: local origination, local-pref, AS-path length,
    origin, MED, eBGP-over-iBGP, IGP cost, peer id. *)
val preference_compare : Rib.bgp_entry -> Rib.bgp_entry -> int
