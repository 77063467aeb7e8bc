module Pool = Netcov_parallel.Pool
module M = Netcov_obs.Metrics
module J = Netcov_core.Json_export

let src = Logs.Src.create "netcov.serve" ~doc:"coverage-as-a-service daemon"

module Log = (val Logs.src_log src : Logs.LOG)

let m_conns =
  M.counter M.default ~help:"TCP connections accepted" ~unit_:"connections"
    "serve.connections"

let m_bytes_out =
  M.counter M.default ~help:"HTTP response bytes written" ~unit_:"bytes"
    "http.response_bytes"

type t = {
  listen_fd : Unix.file_descr;
  bound_port : int;
  api : Api.t;
  handlers : int;
  pool : Pool.t;
  idle_timeout_s : float;
  stop : bool Atomic.t;
  pipe_r : Unix.file_descr;
  pipe_w : Unix.file_descr;
  conns : (Unix.file_descr, unit) Hashtbl.t;
  conns_mu : Mutex.t;
  log_mu : Mutex.t;
}

let create ?(host = "127.0.0.1") ?(port = 8080) ?(max_networks = 64) ?handlers
    ?(idle_timeout_s = 30.) () =
  let addr =
    try Unix.inet_addr_of_string host
    with _ -> (
      try (Unix.gethostbyname host).Unix.h_addr_list.(0)
      with Not_found ->
        invalid_arg (Printf.sprintf "Server.create: unknown host %S" host))
  in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt fd Unix.SO_REUSEADDR true;
     Unix.bind fd (Unix.ADDR_INET (addr, port));
     Unix.listen fd 128
   with e ->
     (try Unix.close fd with _ -> ());
     raise e);
  let bound_port =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> port
  in
  let pipe_r, pipe_w = Unix.pipe () in
  let table = Session_table.create ~max_networks () in
  let handlers =
    max 1 (match handlers with Some n -> n | None -> Pool.default_domains ())
  in
  let t =
    {
      listen_fd = fd;
      bound_port;
      api = Api.create ~table ();
      handlers;
      (* Submitted connections run only on spawned workers, so N
         handlers need N workers: a pool of N + 1 domains. One handler
         is the sequential pool, whose submit runs each connection
         inline on the accept loop. *)
      pool = Pool.create ~domains:(if handlers = 1 then 1 else handlers + 1) ();
      idle_timeout_s;
      stop = Atomic.make false;
      pipe_r;
      pipe_w;
      conns = Hashtbl.create 64;
      conns_mu = Mutex.create ();
      log_mu = Mutex.create ();
    }
  in
  (* A connection task that escapes [handle_conn]'s own containment
     must surface in the daemon's log stream (and the
     pool.tasks.failed metric), not a bare stderr line. *)
  Pool.set_failure_handler t.pool (fun d ->
      Mutex.lock t.log_mu;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock t.log_mu)
        (fun () ->
          Log.err (fun m -> m "%s" (Netcov_core.Diag.to_string d))));
  t

let port t = t.bound_port
let api t = t.api

(* The Logs machinery is not domain-safe; every log call from a handler
   domain funnels through one mutex so lines never interleave. *)
let log_info t f =
  Mutex.lock t.log_mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.log_mu) (fun () ->
      Log.info f)

let register_conn t fd =
  Mutex.lock t.conns_mu;
  Hashtbl.replace t.conns fd ();
  Mutex.unlock t.conns_mu

let unregister_conn t fd =
  Mutex.lock t.conns_mu;
  Hashtbl.remove t.conns fd;
  Mutex.unlock t.conns_mu

let peer_string = function
  | Unix.ADDR_INET (a, p) ->
      Printf.sprintf "%s:%d" (Unix.string_of_inet_addr a) p
  | Unix.ADDR_UNIX s -> s

let transport_error_body message =
  J.to_string
    (J.J_obj
       [
         ( "error",
           J.J_obj
             [
               ("code", J.J_str "bad-request");
               ("message", J.J_str message);
               ("diagnostics", J.J_raw "[]");
             ] );
       ])

(* One connection: keep-alive request loop until the peer closes, a
   parse error, the idle timeout, or shutdown. Runs on a pool domain. *)
let handle_conn t fd peer =
  let finally () =
    unregister_conn t fd;
    (try Unix.close fd with Unix.Unix_error _ -> ())
  in
  Fun.protect ~finally @@ fun () ->
  (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO t.idle_timeout_s
   with Unix.Unix_error _ -> ());
  let reader = Http.of_fd fd in
  let write ?content_type ~status ~keep_alive body =
    Http.write_response fd ?content_type ~status ~keep_alive body;
    M.inc m_bytes_out (String.length body)
  in
  let rec loop () =
    match Http.read_request reader with
    | Error (Http.Eof | Http.Timeout) -> ()
    | Error (Http.Too_large what) ->
        (* request line / header overflows are 431, body overflows 413 *)
        let status = if what = "body" then 413 else 431 in
        write ~status ~keep_alive:false
          (transport_error_body (Printf.sprintf "%s too large" what))
    | Error (Http.Bad_request msg) ->
        write ~status:400 ~keep_alive:false (transport_error_body msg)
    | Ok req ->
        let t0 = Unix.gettimeofday () in
        let resp = Api.handle t.api req in
        let keep_alive = Http.keep_alive req && not (Atomic.get t.stop) in
        write ~content_type:resp.Api.content_type ~status:resp.Api.status
          ~keep_alive resp.Api.body;
        log_info t (fun m ->
            m "remote=%s method=%s path=%s route=%s status=%d bytes=%d \
               dur_ms=%.2f"
              (peer_string peer) req.Http.meth req.Http.path resp.Api.route
              resp.Api.status
              (String.length resp.Api.body)
              (1000. *. (Unix.gettimeofday () -. t0)));
        if keep_alive then loop ()
  in
  try loop () with
  | Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ()
  | e ->
      (* A handler bug must not take the worker domain down; log and
         drop the connection. Api.handle already catches its own
         exceptions, so this is transport-layer only. *)
      log_info t (fun m ->
          m "remote=%s error=%S" (peer_string peer) (Printexc.to_string e))

let shutdown t =
  if not (Atomic.exchange t.stop true) then
    try ignore (Unix.write t.pipe_w (Bytes.make 1 'x') 0 1)
    with Unix.Unix_error _ -> ()

let serve t =
  log_info t (fun m ->
      m "listening port=%d handlers=%d max_networks=%d" t.bound_port
        t.handlers
        (Session_table.max_networks (Api.table t.api)));
  let rec loop () =
    if not (Atomic.get t.stop) then begin
      match Unix.select [ t.listen_fd; t.pipe_r ] [] [] (-1.) with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      | ready, _, _ ->
          if List.mem t.pipe_r ready then () (* shutdown requested *)
          else begin
            (match Unix.accept t.listen_fd with
            | exception
                Unix.Unix_error
                  ( ( Unix.EINTR | Unix.ECONNABORTED | Unix.EAGAIN
                    | Unix.EWOULDBLOCK ),
                    _,
                    _ ) ->
                ()
            | fd, peer ->
                M.inc m_conns 1;
                register_conn t fd;
                Pool.submit t.pool (fun () -> handle_conn t fd peer));
            loop ()
          end
    end
  in
  loop ();
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  (* Wake handlers blocked in a read so the pool can drain: half-close
     every live connection's receive side; in-flight responses still
     write out. *)
  Mutex.lock t.conns_mu;
  Hashtbl.iter
    (fun fd () ->
      try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE with Unix.Unix_error _ -> ())
    t.conns;
  Mutex.unlock t.conns_mu;
  Pool.teardown t.pool;
  (try Unix.close t.pipe_r with Unix.Unix_error _ -> ());
  (try Unix.close t.pipe_w with Unix.Unix_error _ -> ());
  log_info t (fun m -> m "shutdown complete")
