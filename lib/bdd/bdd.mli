(** Reduced ordered binary decision diagrams with hash-consing and an
    apply cache — the CUDD stand-in used by the strong/weak coverage
    labeling (§4.3). Variables are non-negative integers ordered by
    index.

    Managers are built to live long: the labeling engine keeps one
    arena per worker domain across cones and suites (see
    [lib/core/label.ml]), sized once at {!create} and cut back with
    {!reset}. *)

type manager

(** A node handle, valid only with the manager that created it, and
    only until the next {!reset} of that manager. *)
type node

(** [create ()] makes a fresh manager. [cache_size] is the apply-cache
    entry count (default 1 shl 12; rounded up to a power of two, at
    least 256), fixed for the manager's lifetime. The cache is two-way
    set-associative with single-int packed keys: a colliding insert
    evicts only the older entry of its set. *)
val create : ?cache_size:int -> unit -> manager

(** Apply-cache effectiveness counters, cumulative for the manager's
    lifetime (they survive {!reset}). [slots] is the entry count. *)
type cache_stats = { hits : int; misses : int; slots : int }

val cache_stats : manager -> cache_stats

val bdd_true : manager -> node
val bdd_false : manager -> node

(** [var m i] is the BDD of variable [i]. *)
val var : manager -> int -> node

val bdd_not : manager -> node -> node
val bdd_and : manager -> node -> node -> node
val bdd_or : manager -> node -> node -> node
val bdd_xor : manager -> node -> node -> node

(** n-ary forms, convenient for predicate construction. *)
val conj : manager -> node list -> node

val disj : manager -> node list -> node

(** [restrict m n ~var ~value] is the cofactor of [n] with [var] fixed
    to [value]. *)
val restrict : manager -> node -> var:int -> value:bool -> node

val is_true : node -> bool
val is_false : node -> bool
val equal : node -> node -> bool

(** [is_necessary m n ~var] is true iff setting [var] to false forces
    [n] to false — [¬var ⇒ ¬n], the necessity test of §4.3. Kept as
    the differential reference for {!essential_vars}. *)
val is_necessary : manager -> node -> var:int -> bool

(** Variables appearing in the BDD (the support). *)
val support : manager -> node -> int list

(** [essential_vars m n] is every variable [v] with
    [is_necessary m n ~var:v], in ascending order, computed in a single
    bottom-up pass linear in the nodes reachable from [n] (bitset per
    node over [n]'s support) instead of one restrict traversal per
    support variable. Terminals yield [[]] — matching the restrict
    loop over their empty support, even though every variable is
    vacuously necessary for FALSE. *)
val essential_vars : manager -> node -> int list

(** [eval m n assignment] evaluates under a total assignment function. *)
val eval : manager -> node -> (int -> bool) -> bool

(** Number of unique nodes allocated so far, terminals included
    (diagnostics, perf reporting). Decreases only at {!reset}. *)
val node_count : manager -> int

(** [reset m] drops every node, shrinking the node store back to its
    creation size, and empties the apply cache in place (node ids
    recycle, so cached results would name the wrong nodes). Every
    handle is invalidated; the cache size and counters stay. *)
val reset : manager -> unit

(** [any_sat m n] is a satisfying partial assignment as
    [(var, value)] pairs, or [None] when unsatisfiable. *)
val any_sat : manager -> node -> (int * bool) list option
