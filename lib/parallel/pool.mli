(** A fixed-size domain work pool (OCaml 5 [Domain]s) scheduling at
    task granularity. One mutex and one condition variable guard two
    task lists: the running [map] calls, newest first, each handing out
    its items in input order through an atomic index, and a FIFO queue
    of [submit]ted tasks. There is no per-domain task state: every
    domain takes work from the same two lists.

    Properties:

    - {b Ordered results}: [map] returns results positionally, in input
      order, regardless of execution interleaving.
    - {b Exception propagation}: the first exception raised by a worker
      is re-raised (with its backtrace) in the calling domain once the
      map has drained. Later failures never mask the first, and once a
      failure is recorded the map's remaining queued items are cancelled
      — drained without running the task function.
    - {b Help-first scheduling}: the caller of [map] runs map items
      itself until its own items are done — its own first, then any
      map's — so a task may itself call [map] on the same pool (nested
      fan-out) without deadlock or extra domains. Newer maps come
      first, so a nested map's items run before the older outer items.
      The caller never runs submitted tasks.
    - {b Sequential fallback}: a pool with [domains <= 1] spawns no
      domains and [map] degenerates to [List.map]. Setting the
      [NETCOV_DOMAINS] environment variable overrides the default
      domain count ([NETCOV_DOMAINS=1] forces sequential execution
      everywhere a default-sized pool is used).

    Parallel [map] calls are wrapped in a [pool.map] trace span and
    counted in the [pool.*] metrics: per-executor task counts under
    [pool.tasks.executed{executor=...}], blocking under [pool.sleeps],
    and submit failures under [pool.tasks.failed] — the data behind the
    scheduling analysis in [docs/OBSERVABILITY.md]. A sequential pool
    records only submit failures. *)

type t

(** Domain count used by [create] when [?domains] is omitted: the
    [NETCOV_DOMAINS] environment variable when set to a positive
    integer, otherwise [Domain.recommended_domain_count ()] — the full
    hardware parallelism, uncapped. The chosen count and its source
    are logged at debug level on the [netcov.pool] source. A
    set-but-invalid [NETCOV_DOMAINS] falls back to the default and
    warns once on stderr, naming the rejected value. *)
val default_domains : unit -> int

(** [create ~domains ()] spawns [domains - 1] worker domains (the
    caller of [map] is the last participant).
    [domains] is clamped to at least 1; when omitted it is
    [default_domains ()]. *)
val create : ?domains:int -> unit -> t

(** Number of domains participating in [map] (workers + caller). *)
val domains : t -> int

(** The shared sequential pool: no domains, [map] is [List.map]. *)
val sequential : t

(** [map pool f xs] applies [f] to every element of [xs], distributing
    the applications over the pool's domains, and returns the results
    in input order. *)
val map : t -> ('a -> 'b) -> 'a list -> 'b list

(** [submit pool task] enqueues a fire-and-forget task on the pool's
    shared submit queue: some worker domain eventually runs it. Unlike
    [map] there is no result and no completion signal. An exception
    escaping [task] must not kill the worker: it is counted in
    [pool.tasks.failed] and routed to the handler installed with
    {!set_failure_handler} as a [Diag.Internal] error diagnostic (or
    printed to stderr when no handler is installed). On a sequential
    pool the task runs synchronously in the caller, with the same
    failure containment.

    This is what [netcov serve] uses to fan connection handling out
    over the pool: each accepted connection becomes one long-lived
    task, so at most [domains t - 1] connections (one per worker) are
    served concurrently and the rest queue. Submitted tasks live on a
    separate queue from [map] items: a concurrent [map]'s help-first
    drain never picks one up (so a mapping caller cannot block behind
    a long-lived connection), and workers prefer map items, so they
    jump ahead of queued submits. [teardown] drains already-queued
    submitted tasks before returning. *)
val submit : t -> (unit -> unit) -> unit

(** [set_failure_handler pool h] routes subsequent {!submit} task
    failures to [h] instead of stderr. [h] runs on the domain where
    the task failed and must be domain-safe; an exception escaping [h]
    is swallowed (with a stderr note). Intended for hosts like
    [netcov serve] that surface pool failures through their own
    diagnostics channel. *)
val set_failure_handler : t -> (Netcov_diag.Diag.t -> unit) -> unit

(** Signals workers to exit once the map stack and the submit queue
    are empty, then joins them. Idempotent; [map] must not be called
    afterwards. *)
val teardown : t -> unit

(** [with_pool ~domains f] runs [f] with a fresh pool and guarantees
    teardown. *)
val with_pool : ?domains:int -> (t -> 'a) -> 'a
