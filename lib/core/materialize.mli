(** Lazy IFG materialization — Algorithm 1. Starting from the tested
    facts, repeatedly applies every inference rule to dirty nodes until
    no new facts are derived. Expansion stops at facts on external
    (environment) devices, which become leaves.

    Each run is wrapped in a [materialize] trace span; run totals are
    flushed into the [materialize.*] and [sim.targeted.*]/[sim.cache.*]
    metrics, with per-rule inference counts under
    [materialize.inferences{rule=...}] (see [docs/OBSERVABILITY.md]). *)

(** Per-run volume and timing, returned alongside the graph. *)
type stats = {
  nodes : int;
  edges : int;
  rule_seconds : float;  (** total time in rule application *)
  sim_count : int;
  sim_seconds : float;
  sim_cache_hits : int;
      (** chain evaluations answered by the targeted-simulation memo
          cache (0 when the ctx has no cache, as in every
          [Netcov.analyze]; [Incr] sessions pass theirs) *)
  sim_cache_misses : int;
  iterations : int;  (** worklist passes *)
}

(** [run ctx ~tested] materializes the IFG reachable (backwards) from
    the tested facts and returns the node ids of the tested facts. *)
val run :
  Rules.ctx ->
  tested:Fact.t list ->
  Ifg.t * Ifg.node_id list * stats
