(** The long-running daemon: socket lifecycle, connection fan-out and
    graceful shutdown around {!Api.handle}.

    Architecture (one paragraph; the operator view is
    [docs/SERVE.md]): {!create} binds and listens; {!serve} runs the
    accept loop on the calling domain and {!Netcov_parallel.Pool.submit}s
    each accepted connection to a handler pool, so up to [handlers]
    connections are served concurrently — each on its own worker domain
    (with [handlers = 1], one at a time on the accept loop's), with
    keep-alive, a per-read idle timeout, and parse-size limits from
    {!Http.default_limits}. All handlers share one mutex-guarded
    {!Session_table.t}; requests against different networks run in
    parallel, requests against one network serialize on its entry lock.
    {!shutdown} is signal-safe: the CLI installs it as the SIGINT/SIGTERM
    handler. It stops the accept loop via a self-pipe, half-closes every
    live connection so blocked reads wake, and {!serve} then drains the
    handler pool before returning — in-flight requests finish, new ones
    are refused.

    Observability: every request is logged on the [netcov.serve] Logs
    source ([remote= method= path= route= status= bytes= dur_ms=] pairs)
    and counted in the [http.*] / [serve.*] metrics
    ([docs/OBSERVABILITY.md]). *)

type t

(** [create ()] binds [host]:[port] (default [127.0.0.1]:8080) and
    listens. [port = 0] picks an ephemeral port — read it back with
    {!port} (how the loopback tests run). [max_networks] caps the
    session table (default 64); [handlers] is how many connections are
    served at once (default {!Netcov_parallel.Pool.default_domains}):
    for [handlers >= 2] the pool spawns that many worker domains, and
    [handlers = 1] runs each connection inline on the accept loop.
    [idle_timeout_s] is the per-read socket timeout after which an idle
    keep-alive connection is dropped (default 30). Raises [Unix.Unix_error] when
    the address is unavailable ([EADDRINUSE], …). *)
val create :
  ?host:string ->
  ?port:int ->
  ?max_networks:int ->
  ?handlers:int ->
  ?idle_timeout_s:float ->
  unit ->
  t

(** The port actually bound (resolves [port = 0]). *)
val port : t -> int

val api : t -> Api.t

(** [serve t] runs the accept loop until {!shutdown}, then tears the
    handler pool down (draining in-flight connections) and closes the
    listening socket. Call at most once. *)
val serve : t -> unit

(** [shutdown t] requests a graceful stop; safe to call from any
    domain or from a signal handler. Idempotent. Returns immediately —
    {!serve} returning is the completion signal. *)
val shutdown : t -> unit
