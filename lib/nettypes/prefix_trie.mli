(** A path-compressed binary trie (a Patricia trie) keyed by IPv4
    prefixes, supporting exact lookup, longest-prefix match and subtree
    queries. This is the storage used by the simulator's RIBs and the
    stable-state lookups of the coverage core.

    Node invariant: every node carries a prefix and is either a binding
    or a branch with two non-empty children; a child's prefix lies
    strictly inside its parent's, on the side named by the next bit.
    So n bindings take fewer than 2n nodes, a lookup visits at most one
    node per bound prefix or branch point on its path (never more than
    33), and the shape depends only on the set of bound prefixes. *)

type 'a t

val empty : 'a t
val is_empty : 'a t -> bool

(** Number of prefixes with a binding. *)
val cardinal : 'a t -> int

(** [add p v t] binds prefix [p] to [v], replacing any previous
    binding. *)
val add : Prefix.t -> 'a -> 'a t -> 'a t

(** [update p f t] rebinds [p] to [f (find_opt p t)]; removing the
    binding when [f] returns [None]. *)
val update : Prefix.t -> ('a option -> 'a option) -> 'a t -> 'a t

val remove : Prefix.t -> 'a t -> 'a t
val find_opt : Prefix.t -> 'a t -> 'a option
val mem : Prefix.t -> 'a t -> bool

(** [longest_match addr t] is the most specific prefix in [t] containing
    [addr], with its value. *)
val longest_match : Ipv4.t -> 'a t -> (Prefix.t * 'a) option

(** [all_matches addr t] is every binding whose prefix contains [addr],
    most specific first. *)
val all_matches : Ipv4.t -> 'a t -> (Prefix.t * 'a) list

(** [subsumed p t] is every binding whose prefix is equal to or more
    specific than [p]. *)
val subsumed : Prefix.t -> 'a t -> (Prefix.t * 'a) list

val fold : (Prefix.t -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b
val iter : (Prefix.t -> 'a -> unit) -> 'a t -> unit
val to_list : 'a t -> (Prefix.t * 'a) list
val of_list : (Prefix.t * 'a) list -> 'a t
val map : ('a -> 'b) -> 'a t -> 'b t

(** [diff eq a b] is every prefix bound in only one of [a] and [b], or
    bound in both to values [eq] calls different, in {!to_list} order.
    Physically shared subtrees are skipped, so comparing a table with
    a few bindings replaced against its original walks only the
    replaced paths. *)
val diff : ('a -> 'a -> bool) -> 'a t -> 'a t -> Prefix.t list

(** [iter_common f a b] calls [f p va vb] for every prefix [p] bound in
    both [a] (to [va]) and [b] (to [vb]), in {!to_list} order. It walks
    only the paths the two tries share, so intersecting a small trie
    with a large one visits about the small one's nodes. *)
val iter_common : (Prefix.t -> 'a -> 'b -> unit) -> 'a t -> 'b t -> unit

val equal : ('a -> 'a -> bool) -> 'a t -> 'a t -> bool
