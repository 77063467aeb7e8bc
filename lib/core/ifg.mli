(** The information flow graph: a DAG whose vertices are facts (plus
    disjunctive nodes for non-deterministic contributions, §4.3) and
    whose edges point from contributor to derived fact.

    Fact identity is interned ({!Intern}) to dense ids on entry: adding
    a fact costs one structural hash, never a key-string construction.
    Node attributes and adjacency live in flat int arrays; traversals
    should prefer the [iter_*]/[fold_*] forms, which walk adjacency
    without allocating lists.

    Single writer: {!add_fact}, {!add_disj}, {!add_edge} and
    {!mark_expanded} must not run concurrently with any other operation
    on the same graph (in the pipeline only {!Materialize.run} builds
    graphs). Once built, a graph may be read from any number of
    domains, as labeling does. *)

type node_id = int

type node_kind =
  | N_fact of Fact.t
  | N_disj  (** contribution holds if any parent holds *)

type t

(** [create ()] is an empty graph with a fresh interner. *)
val create : unit -> t

(** The graph's fact interner (export/debug: reverse id lookup). *)
val interner : t -> Intern.t

(** [add_fact g f] returns the node for [f], creating it if new; the
    boolean is [true] when the node is new. *)
val add_fact : t -> Fact.t -> node_id * bool

(** [find g f] is the node of [f] if materialized. *)
val find : t -> Fact.t -> node_id option

(** [add_disj g ~target parents] creates (or reuses) the disjunctive
    node grouping [parents] under [target], wiring parent and target
    edges. Parents are created as needed. *)
val add_disj : t -> target:node_id -> Fact.t list -> node_id

(** [add_edge g ~parent ~child] records that [parent] contributes to
    [child] (idempotent). *)
val add_edge : t -> parent:node_id -> child:node_id -> unit

val kind : t -> node_id -> node_kind

(** [is_disj g id] without materializing a {!node_kind} (hot paths). *)
val is_disj : t -> node_id -> bool

(** Element id when the node is a config fact (hot-path equivalent of
    matching {!kind} against [N_fact] + {!Fact.is_config}). *)
val config_eid : t -> node_id -> Netcov_config.Element.id option

(** Contributors of a node, in reverse insertion order. *)
val parents : t -> node_id -> node_id list

(** Facts this node contributes to, in reverse insertion order. *)
val children : t -> node_id -> node_id list

(** Allocation-free adjacency walks, same order as {!parents} /
    {!children}. *)
val iter_parents : t -> node_id -> (node_id -> unit) -> unit

val iter_children : t -> node_id -> (node_id -> unit) -> unit
val fold_parents : t -> node_id -> ('a -> node_id -> 'a) -> 'a -> 'a
val n_nodes : t -> int
val n_edges : t -> int

(** Iterate all nodes. *)
val iter_nodes : t -> (node_id -> node_kind -> unit) -> unit

(** Config-element nodes present in the graph, ascending node id. *)
val config_nodes : t -> (node_id * Netcov_config.Element.id) list

(** Expansion bookkeeping for the materialization loop. *)
val mark_expanded : t -> node_id -> unit

val is_expanded : t -> node_id -> bool
