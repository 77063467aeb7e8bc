(** NetCov public entry point: given a stable network state and what a
    test suite tested, compute configuration coverage.

    Every analysis is wrapped in an [analyze] trace span and counted in
    the [analyze.*] metrics of {!Netcov_obs} (catalog in
    [docs/OBSERVABILITY.md]); observability output never changes the
    computed report. *)

open Netcov_config

(** What the test suite tested: data plane facts (RIB entries inspected
    by data plane tests) and configuration elements exercised directly
    by control plane tests. *)
type tested = { dp_facts : Fact.t list; cp_elements : Element.id list }

(** The empty test description: analyzing it yields zero coverage. *)
val no_tests : tested

(** Union of a suite's test descriptions: data plane facts
    deduplicated by fact identity, each kept at its first occurrence in
    list order; element ids sorted and deduplicated. [union_tested []]
    is {!no_tests}. *)
val union_tested : tested list -> tested

(** Wall-clock and volume breakdown of one analysis (the per-run view;
    the cumulative cross-run view lives in the {!Netcov_obs.Metrics}
    registry). *)
type timing = {
  total_s : float;
      (** Elapsed wall-clock time. For a single {!analyze} run this is
          the measured end-to-end time; for a merged suite report it is
          the value passed to [merge_reports ~wall_s], or — when the
          caller did not measure — the max of the per-test wall times,
          a lower bound (per-test analyses may have run concurrently,
          so their wall times must not be summed). *)
  cpu_total_s : float;
      (** Sum of per-analysis wall times: total compute spent. Equals
          [total_s] for a single run; for a suite merged from a
          parallel pool it can exceed [total_s] by up to the domain
          count. *)
  materialize_s : float;  (** IFG walk + stable-state lookups *)
  sim_s : float;  (** targeted simulations (subset of materialize) *)
  label_s : float;  (** BDD strong/weak labeling *)
  sim_count : int;
  sim_cache_hits : int;
      (** policy-chain evaluations answered by the targeted-simulation
          memo cache. Always 0 on a scratch report ({!analyze} runs
          without a cache); on an [Incr] report it counts lookups in the
          session cache. *)
  sim_cache_misses : int;  (** as [sim_cache_hits], for misses *)
  ifg_nodes : int;
  ifg_edges : int;
  bdd_vars : int;
}

(** Everything one analysis produces: the coverage map, its timing
    breakdown and the registry's dead-code report. *)
type report = {
  coverage : Coverage.t;
  timing : timing;
  dead : Deadcode.report;
}

(** [analyze state tested] runs the full pipeline: lazy IFG
    materialization from the tested data plane facts, strong/weak
    labeling, and direct marking of control-plane-tested elements.

    [pool] parallelizes the labeling pass across its domains (default:
    sequential); it never changes the report, only the wall time.
    Targeted policy simulations are not memoized: each one is a single
    in-process chain evaluation (the memo cache, {!Rules.sim_cache},
    serves the incremental engine's sessions).

    [diags] installs a diagnostic sink on the rule context: with one, a
    crashing inference rule (unknown device, policy-eval failure, …)
    degrades to a [Sim_failure] diagnostic attached to the offending
    fact instead of aborting the analysis (see {!Rules.apply_rule}).
    Without it, behaviour — including raising — is unchanged. *)
val analyze :
  ?pool:Netcov_parallel.Pool.t ->
  ?diags:(Diag.t -> unit) ->
  Netcov_sim.Stable_state.t ->
  tested ->
  report

(** [analyze_suite state testeds] analyzes every test of a suite —
    fanning the per-test materialize/label pipelines out across the
    pool's domains — and returns the per-test reports in input order.
    [pool] defaults to sequential, as for {!analyze}.

    The per-test reports are identical at any domain count: per-test
    analyses share only the immutable stable state. *)
val analyze_suite :
  ?pool:Netcov_parallel.Pool.t ->
  Netcov_sim.Stable_state.t ->
  tested list ->
  report list

(** One test whose analysis raised and was excluded from the suite. *)
type test_failure = {
  tf_index : int;  (** position in the input [tested list] *)
  tf_label : string;  (** caller-supplied label, or ["test-<index>"] *)
  tf_error : string;  (** [Printexc.to_string] of the exception *)
  tf_backtrace : string;  (** captured backtrace, possibly empty *)
}

(** Outcome of a fault-isolated suite run: reports of the surviving
    tests (in input order) plus a record per excluded test. *)
type suite_outcome = { ok : report list; failures : test_failure list }

(** Like {!analyze_suite}, but with per-test fault isolation: a test
    whose analysis raises is caught, recorded as a {!test_failure},
    counted in the [analyze.errors] metric, reported as a
    [Test_failure] diagnostic when [diags] is given (logged as a
    warning otherwise) — and excluded. The
    surviving tests' reports are byte-identical to running them alone
    ([Stack_overflow]/[Out_of_memory] still propagate). [labels] names
    the tests for failure records, matched by position. [pool]
    defaults to sequential. *)
val analyze_suite_isolated :
  ?pool:Netcov_parallel.Pool.t ->
  ?diags:(Diag.t -> unit) ->
  ?labels:string list ->
  Netcov_sim.Stable_state.t ->
  tested list ->
  suite_outcome

(** Deterministic left-to-right merge of per-test reports into a suite
    report: per element the stronger coverage status wins (equal to
    analyzing the union of the tests' tested facts); [cpu_total_s],
    stage timings and counters are summed ([bdd_vars] is the max).

    Wall time does not sum across reports that may have run in
    parallel: merged [total_s] is [wall_s] when given (callers that
    timed the whole suite should pass it), otherwise the max of the
    inputs' [total_s] — a lower bound on true elapsed time.

    Invariant: all reports must come from analyses of the same element
    registry. The merged [dead] report is taken from the first input
    (dead-code analysis depends only on the registry), and coverage
    element ids are only comparable within one registry — merging
    reports whose coverages disagree on the registry raises
    [Invalid_argument].

    The empty list raises [Invalid_argument] unless [registry] is
    given, in which case it merges into the documented empty report:
    zero coverage over that registry, zero timing ([total_s] is
    [wall_s] when given), and the registry's dead-code report — so an
    all-failed suite under [--keep-going] still emits a valid report.
    With both [registry] and a non-empty list, the two must agree. *)
val merge_reports :
  ?wall_s:float -> ?registry:Registry.t -> report list -> report

(** Dead-code line share over considered lines, percent. *)
val dead_line_pct : report -> float
