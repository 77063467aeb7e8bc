(** Fact interning: a table assigning dense [int] identities to
    {!Fact.t} values, so the IFG core, dedup tables and rule firing
    never build or hash key strings. Ids are dense ([0 .. length-1], in
    first-intern order) and stable for the lifetime of the table; the
    reverse direction ({!fact}) serves labeling and the export/debug
    boundary.

    Single writer: one forward hash table plus a growable reverse
    array, with no locks. {!intern} must only be called by one domain
    at a time — in the pipeline, {!Materialize.run}'s sequential
    worklist. Reads ({!find}, {!fact}, {!iter}, {!length}) from other
    domains are safe once the writer is done and the readers were
    started after it (as labeling's pool tasks are). See
    docs/PERFORMANCE.md. *)

(** How facts are identified.

    - [Structural]: hash/compare the variant itself
      ({!Fact.hash}/{!Fact.equal}); the production mode, allocation-free
      per lookup.
    - [By_key]: identify by the {!Fact.key} string, reproducing the
      historical string-keyed pipeline byte for byte. Reference side of
      the [intern-reference] differential oracle and of the
      [BENCH_intern.json] before/after benchmark; never use it on a hot
      path. *)
type mode = Structural | By_key

type t

(** [create ()] is an empty interner (default [Structural]). *)
val create : ?mode:mode -> unit -> t

val mode : t -> mode

(** [intern t f] is the id of [f], assigning the next dense id on first
    sight: a given fact identity always maps to exactly one id. Not
    safe to call concurrently with any other operation on [t]. *)
val intern : t -> Fact.t -> int

(** [find t f] is [f]'s id if already interned. *)
val find : t -> Fact.t -> int option

(** [fact t id] is the fact with identity [id].
    @raise Invalid_argument when [id] was never assigned. *)
val fact : t -> int -> Fact.t

(** Number of distinct facts interned so far. *)
val length : t -> int

(** [iter t f] applies [f id fact] to a snapshot of the table (facts
    interned after the snapshot are not visited). *)
val iter : t -> (int -> Fact.t -> unit) -> unit
