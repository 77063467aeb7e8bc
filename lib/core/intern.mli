(** Fact interning: a table assigning dense [int] identities to
    {!Fact.t} values, so the IFG core, dedup tables and rule firing
    never build or hash key strings. Ids are dense ([0 .. length-1], in
    first-intern order) and stable for the lifetime of the table; the
    reverse direction ({!fact}) serves labeling and the export/debug
    boundary.

    The forward index is an open-addressed, linearly probed array of
    ids, beside a growable reverse array of facts and one of their
    finalized hashes: a lookup hashes the fact once, compares it
    ({!Fact.equal}) only against ids whose stored hash matches, and
    growth re-slots ids from their stored hashes.

    Single writer, with no locks. {!intern} must only be called by one
    domain at a time — in the pipeline, {!Materialize.run}'s sequential
    worklist. Reads ({!find}, {!fact}, {!iter}, {!length}) from other
    domains are safe once the writer is done and the readers were
    started after it (as labeling's pool tasks are). See
    docs/PERFORMANCE.md. *)

type t

(** [create ()] is an empty interner. Facts are identified
    structurally ({!Fact.hash}/{!Fact.equal}, allocation-free per
    lookup), which agrees with {!Fact.key} equality. *)
val create : unit -> t

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
