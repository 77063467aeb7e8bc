(** Strong/weak coverage labeling (§4.3).

    Each config element in the materialized IFG is covered. An element is
    {e strongly} covered when some tested fact could not be derived
    without it (necessity, [¬x ⇒ ¬Γ(t)]); otherwise it is {e weakly}
    covered (its contribution routes only through disjunctive choices
    with alternatives).

    Implementation: Boolean predicates over config variables are built
    bottom-up as BDDs — conjunction at normal nodes, disjunction at
    disjunctive nodes — and necessity reduces to a cofactor constancy
    check. Config facts with a disjunction-free path to a tested fact are
    pre-classified strong and their variables replaced by constant true
    (the paper's variable-reduction heuristic).

    The BDD work runs in a {e persistent per-domain arena}: one
    hash-consed node store per worker domain (Domain-local, no locks)
    reused across cones, passes and suites, with a cross-cone gamma
    memo so the shared ancestry of overlapping cones is translated to
    BDD once per domain, and a single bottom-up essential-variables
    pass ([Bdd.essential_vars]) instead of one restrict traversal per
    support variable. Arenas are trimmed automatically at a node-count
    watermark (and explicitly via {!trim_arena}), so warm sessions
    ([lib/incr], [netcov serve]) keep a bounded footprint.

    A cone with more than 8192 config nodes keeps variables only for
    the candidates among its first 8192 config nodes in discovery order
    (reverse DFS from the tested fact); the rest stay weak, which is
    the sound default. Pre-strong config nodes count toward the 8192
    too, so a cone labels the same alone and inside a larger (union)
    graph.

    Each pass is wrapped in a [label] trace span with one [label.cone]
    child span per labeled cone; volumes land in the [label.*] and
    [bdd.*] metrics — including [bdd.gamma.hits]/[bdd.gamma.misses] and
    [bdd.arena.nodes]/[bdd.arena.trims] ([docs/OBSERVABILITY.md]). *)

open Netcov_config

(** Outcome of one labeling pass over a materialized IFG. *)
type result = {
  covered : Element.Id_set.t;  (** all config elements in the IFG *)
  strong : Element.Id_set.t;
  weak : Element.Id_set.t;
  vars : int;  (** BDD variables after the heuristic *)
  bdd_nodes : int;
      (** max BDD node count observed after labeling a cone (the
          per-domain arena's size) *)
  seconds : float;
}

(** [disjfree_heuristic] (default true) controls the paper's
    variable-reduction heuristic; disabling it is exposed for the
    ablation benchmark only — results are identical.

    [pool] fans the per-tested-fact cone predicates out across domains
    (each domain owns a private arena); results are identical at any
    domain count because per-cone strong sets merge by set union.
    Default: sequential. *)
val run :
  ?disjfree_heuristic:bool ->
  ?pool:Netcov_parallel.Pool.t ->
  Ifg.t ->
  tested:Ifg.node_id list ->
  result

(** Trim the calling domain's BDD arena now: drop all nodes, the gamma
    memo and the apply cache, shrinking back to the creation footprint.
    Safe whenever no labeling call is active on this domain. Arenas
    also self-trim at the watermark on entry to any labeling task. *)
val trim_arena : unit -> unit

(** Node count of the calling domain's arena (tests, diagnostics). *)
val arena_node_count : unit -> int

(** Override the per-domain auto-trim watermark (nodes; default
    [1 lsl 20]). Raises [Invalid_argument] on values < 2. *)
val set_arena_watermark : int -> unit
