(** Inference rules: each maps a materialized IFG fact to the parent
    facts that contribute to it (Table 1), using stable-state lookups
    backward and targeted policy simulations forward (§4.2). *)

open Netcov_config
open Netcov_sim

(** Shared context: the stable state plus an optional memo cache and
    counters for the targeted simulations (reported by Figure 10(a)'s
    breakdown). *)
type ctx

(** Memo cache for targeted policy simulations. Key: (device, policy
    chain, evaluation defaults, canonicalized input route); value: the
    verdict, the transformed route and the exercised clause ids. It is
    the incremental engine's session cache: replaying it against a
    changed device ({!sim_cache_revalidate_hosts}) is that engine's
    fast-path witness. Scratch analyses ([Netcov.analyze]) run without
    one. Reusable across analyses {e of the same stable state} within
    one domain; never share one across domains (the cache never changes
    results, only skips re-runs). *)
type sim_cache

(** A fresh, empty cache. Route attributes the policy chain neither
    reads nor writes are stripped from the cache key — per-chain
    read/write sets are computed once from the device's policy ASTs —
    so simulations that differ only in pass-through attributes share
    one entry. On a hit the pass-through attributes of the cached
    transformed route are restored from the actual input, reproducing a
    fresh evaluation exactly. *)
val create_sim_cache : unit -> sim_cache

(** [sim_cache_revalidate_hosts c state pred] replays every cached
    evaluation whose host satisfies [pred] against the host's device in
    [state] (the {e new} stable state) and keeps it when the result is
    unchanged. Evaluations read nothing but the host's device, so
    entries of other hosts stay valid across a configuration update.
    Entries whose chain now behaves differently — or whose chain's
    read/write attribute mask changed, shifting the canonical key
    space — are dropped, as are entries of hosts absent from [state].
    The selected hosts' memoized attribute masks are replaced by their
    new devices' masks, so a later replay of the same host validates
    the kept entries again without an analysis in between.
    Returns [(checked, dropped)]; [dropped = 0] certifies that every
    cached evaluation of the selected hosts is unaffected by the
    configuration change (the incremental engine's fast-path witness,
    docs/INCREMENTAL.md). *)
val sim_cache_revalidate_hosts :
  sim_cache -> Stable_state.t -> (string -> bool) -> int * int

(** Live entries in the cache. *)
val sim_cache_length : sim_cache -> int

(** [make_ctx ?cache state]: when [cache] is omitted every simulation
    is recomputed, as in every scratch analysis. [diags] installs a
    diagnostic sink: with one, a crashing rule application degrades to
    a [Sim_failure] diagnostic (see {!apply_rule}) instead of aborting
    the analysis. *)
val make_ctx :
  ?cache:sim_cache ->
  ?diags:(Netcov_diag.Diag.t -> unit) ->
  Stable_state.t ->
  ctx

val state : ctx -> Stable_state.t

(** Number of targeted policy simulations run so far. *)
val sim_count : ctx -> int

(** Wall-clock seconds spent inside targeted simulations. *)
val sim_seconds : ctx -> float

(** Sim-cache hits/misses observed through this ctx (zero when no cache
    was supplied). *)
val cache_hits : ctx -> int

val cache_misses : ctx -> int

(** A parent contribution: conjunctive, or a disjunctive group of
    alternatives (any one of which suffices, §4.3). *)
type parent_spec = P of Fact.t | P_disj of Fact.t list

(** Parents inferred for one target fact. A rule may emit inferences for
    intermediate facts it materialized on the fly (e.g. the pre-import
    message in Figure 4). *)
type inference = { target : Fact.t; parents : parent_spec list }

type rule = ctx -> Fact.t -> inference list

(** The rule set, each paired with a stable name (used as the [rule]
    label of the [materialize.inferences] metric — see
    [docs/OBSERVABILITY.md]); applied exhaustively to each dirty node
    by {!Materialize}. *)
val all_rules : (string * rule) list

(** [apply_rule ctx (name, rule) fact] applies one named rule. Without
    a diag sink on [ctx] this is exactly [rule ctx fact]. With one, any
    exception the rule raises (unknown device, policy-eval failure, …)
    is reported as an [Error]-severity [Sim_failure] diagnostic carrying
    the fact's key and host, and the application yields no inferences —
    the offending fact keeps whatever parents other rules find. *)
val apply_rule : ctx -> string * rule -> Fact.t -> inference list

(** [config_fact ctx ~host key] resolves an element key to a config fact,
    [None] when the device is external or the key unknown. *)
val config_fact : ctx -> host:string -> Element.key -> Fact.t option
