(** Incremental coverage engine: config diff → fast-path witness →
    reuse or re-analysis.

    A {!session} holds what one analyzed network state left behind:
    one merged report, the label sets of one analysis of the union of
    its tests ({!Netcov.union_tested}) and a persistent
    targeted-simulation memo cache. Every pass runs the materialize →
    {!Netcov_core.Label.run} sequence of {!Netcov.analyze} at most
    once, over a union of tests. {!update} moves the session to a new
    configuration version along one of two paths:

    - {b Fast path.} The registries are diffed ({!Registry_diff}), and
      every cached evaluation of a changed device is replayed against
      its new configuration
      ({!Netcov_core.Rules.sim_cache_revalidate_hosts}). When every
      changed element is of a policy class or sits on a device whose
      {!Netcov_config.Device.behaviour} is unchanged, every replay
      reproduced its result and the new stable state's hosts, sessions
      and RIBs equal the old one's
      ({!Netcov_sim.Stable_state.routes_equal}), no behavior moved. If the old tests are a prefix of the
      new list, their labels are kept and only the appended tests (a
      registered suite) are analyzed, as their own union.
    - {b Re-analysis.} Otherwise the whole union is analyzed again,
      over the session's replay-validated sim cache.

    Either way the session's report is byte-identical to a
    from-scratch [Netcov.analyze_suite] merged (asserted by the
    [incremental-scratch] differential oracle; see
    [docs/INCREMENTAL.md]). *)

open Netcov_config
open Netcov_sim
open Netcov_core

type session

(** Volume counters of one {!create} or {!update}, feeding the
    [incr.*] metrics (docs/OBSERVABILITY.md). *)
type stats = {
  s_changed : int;  (** changed elements (old ∩ new, text differs) *)
  s_added : int;
  s_removed : int;
  s_reused : int;  (** distinct tested roots of the kept union *)
  s_relabeled : int;  (** distinct tested roots of the analyzed union *)
  s_evicted_sim : int;
      (** sim-cache entries of changed devices whose replayed result
          (or canonical key space) moved *)
  s_sim_hits : int;  (** sim-cache hits during this pass *)
  s_sim_misses : int;
  s_reuse_ratio : float;
      (** reused / (reused + relabeled), 0 when nothing ran *)
  s_seconds : float;  (** also observed into [incr.{create,update}.seconds] *)
}

(** [create state testeds] analyzes the union of every test from
    scratch and returns the primed session. *)
val create : Stable_state.t -> Netcov.tested list -> session * stats

(** [update s state testeds] moves the session to the new stable
    state. When the fast-path witness holds and the previous tests are
    a prefix of [testeds], only the tests after the prefix are
    analyzed; anything else re-analyzes the union of [testeds]. The
    resulting {!report} is byte-identical (coverage-wise) to
    [Netcov.analyze_suite state testeds] merged. *)
val update : session -> Stable_state.t -> Netcov.tested list -> stats

(** Merged suite report of the session's current state; its timing is
    the last pass's wall time and the volumes of the analysis it ran. *)
val report : session -> Netcov.report

val registry : session -> Registry.t

(** The stable state the session currently holds (the one passed to the
    most recent {!create} or {!update}). Session-table owners — the
    [netcov serve] daemon keeps one warm session per registered network
    — compile newly registered test suites against this state rather
    than recomputing it. *)
val state : session -> Stable_state.t

(** The tested list of the most recent {!create} or {!update}. A
    caller growing a suite should pass [testeds s @ extra] to
    {!update}: then only [extra] is analyzed. *)
val testeds : session -> Netcov.tested list

(** The diff computed by the most recent {!update} ([None] after
    {!create}). *)
val last_diff : session -> Registry_diff.t option

val summary : stats -> string

(** {1 Falsifiability}

    Mutation coverage as ground truth for the session's IFG coverage
    (paper §3.1): mutating a {e covered} element must change some test
    outcome; mutating an {e uncovered} element must change none, modulo
    the competitor class ({!Netcov_core.Mutation.competitor_prone}).
    This is what the [mutation-falsifiability] differential oracle
    checks on random scenarios, and what [netcov_cli fuzz] and the
    nightly soak drive. *)

type falsifiability = {
  fz_strong : Element.id list;
      (** sampled strongly-covered elements; elements strong only by
          decree (control-plane test targets, [cp_elements]) are
          excluded — their coverage asserts no data-plane effect *)
  fz_uncovered : Element.id list;  (** sampled uncovered elements *)
  fz_weak : Element.id list;  (** sampled weakly-covered elements *)
  fz_missed : Element.id list;
      (** violation: strong and not masking-prone, yet every mutant
          survived *)
  fz_divergent : Element.id list;
      (** violation: uncovered and not competitor-prone, yet killed *)
  fz_masked : Element.id list;
      (** informational: strong but survived, of a
          {!Netcov_core.Mutation.masking_prone} kind — chain
          fall-through re-admitted the route (documented divergence) *)
  fz_rerouted : Element.id list;
      (** informational: strong but survived, of a
          {!Netcov_core.Mutation.reroute_prone} kind — the IGP rerouted
          around the deleted interface and the facts self-healed
          (documented divergence on redundant topologies) *)
  fz_weak_killed : Element.id list;
      (** informational: weak elements killed (ECMP alternatives may go
          either way) *)
  fz_mutation : Mutation.result;
}

(** [falsifiability s] runs mutation coverage over the session's
    registry against the session's tested data-plane facts (default
    operators, warm mutant execution) and cross-checks the verdicts against the
    session's coverage map. [max_elements] caps the sample: all strong
    elements first, then uncovered, then weak, deterministically in
    element-id order. The check passes iff [fz_missed] and
    [fz_divergent] are both empty. *)
val falsifiability : ?max_elements:int -> session -> falsifiability

(** Human-readable multi-line summary with element provenance for the
    violating samples. *)
val falsifiability_summary : Registry.t -> falsifiability -> string
