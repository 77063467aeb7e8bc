module M = Netcov_obs.Metrics
module T = Netcov_obs.Trace
module Diag = Netcov_diag.Diag

let src = Logs.Src.create "netcov.pool" ~doc:"domain work pool"

module Log = (val Logs.src_log src : Logs.LOG)

(* Pool scheduling metrics (docs/OBSERVABILITY.md). Sequential pools
   bypass the scheduler entirely and record only submit failures. *)
let m_maps =
  M.counter M.default ~help:"parallel Pool.map calls" ~unit_:"calls" "pool.maps"

let m_queued =
  M.counter M.default ~help:"tasks pushed to the pool (map items + submits)"
    ~unit_:"tasks" "pool.tasks.queued"

let m_sleeps =
  M.counter M.default
    ~help:"times a domain found no runnable task and blocked"
    ~unit_:"sleeps" "pool.sleeps"

let m_failed =
  M.counter M.default ~help:"Pool.submit tasks that raised" ~unit_:"tasks"
    "pool.tasks.failed"

(* The caller of [map] draining tasks itself is the help-first path;
   worker counters are registered per worker index at spawn. *)
let m_exec_caller =
  M.counter M.default ~help:"tasks executed by the calling domain (help-first)"
    ~unit_:"tasks"
    ~labels:[ ("executor", "caller") ]
    "pool.tasks.executed"

let exec_worker_counter i =
  M.counter M.default ~help:"tasks executed by a spawned worker domain"
    ~unit_:"tasks"
    ~labels:[ ("executor", "worker-" ^ string_of_int i) ]
    "pool.tasks.executed"

(* Shared pool state: one mutex guards both task lists and [closing],
   and one condition variable carries every wake-up (new tasks, a map's
   last item finishing, teardown). [batches] holds one claim function
   per running map, newest first, so a nested map's items run before the
   older outer items that spawned it; a call hands out the map's next
   unclaimed item, or [None]. [submit_q] holds fire-and-forget submits
   (serve's connections) in FIFO order; only workers pop it, and only
   when no map item is left. *)
type shared = {
  mutex : Mutex.t;
  activity : Condition.t;
  mutable batches : (unit -> (unit -> unit) option) list;
  submit_q : (unit -> unit) Queue.t;
  mutable closing : bool;
}

type t = {
  n_domains : int;
  shared : shared option;  (* [None]: sequential pool *)
  workers : unit Domain.t list;
  on_failure : (Diag.t -> unit) option Atomic.t;
}

(* An invalid NETCOV_DOMAINS would otherwise be indistinguishable from
   an unset one — the user asked for a domain count and silently got
   the default. Warn once per process, not per pool. *)
let warned_bad_env = Atomic.make false

let env_domains () =
  match Sys.getenv_opt "NETCOV_DOMAINS" with
  | None -> None
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> Some n
      | Some _ | None ->
          if not (Atomic.exchange warned_bad_env true) then
            Printf.eprintf
              "netcov: ignoring invalid NETCOV_DOMAINS=%S (want a positive \
               integer); using the default domain count\n%!"
              s;
          None)

let default_domains () =
  match env_domains () with
  | Some n ->
      Log.debug (fun m -> m "domain count %d (NETCOV_DOMAINS)" n);
      n
  | None ->
      let n = max 1 (Domain.recommended_domain_count ()) in
      Log.debug (fun m ->
          m "domain count %d (Domain.recommended_domain_count)" n);
      n

let domains t = t.n_domains

let sequential =
  { n_domains = 1; shared = None; workers = []; on_failure = Atomic.make None }

let set_failure_handler t handler =
  Atomic.set t.on_failure (Some handler)

let report_submit_failure t exn bt =
  M.inc m_failed 1;
  let message =
    Printf.sprintf "Pool.submit task raised %s" (Printexc.to_string exn)
  in
  match Atomic.get t.on_failure with
  | Some handler -> (
      let diag = Diag.error Diag.Internal message in
      try handler diag
      with _ ->
        (* a crashing handler must not take the worker down either *)
        Printf.eprintf "netcov: %s (and the failure handler raised)\n%!"
          message)
  | None ->
      Printf.eprintf "netcov: %s\n%s%!" message
        (Printexc.raw_backtrace_to_string bt)

(* Run [task] outside the lock; called and returns with [mutex] held. *)
let run_unlocked shared counter task =
  Mutex.unlock shared.mutex;
  task ();
  M.inc counter 1;
  Mutex.lock shared.mutex

(* Claim an item of the first batch that has one, with [mutex] held;
   exhausted batches stay until their own map's caller removes them. *)
let rec pop = function
  | [] -> None
  | claim :: rest -> ( match claim () with None -> pop rest | task -> task)

let worker_loop ~index shared =
  let executed = exec_worker_counter index in
  let rec loop () =
    match pop shared.batches with
    | Some task ->
        run_unlocked shared executed task;
        loop ()
    | None when not (Queue.is_empty shared.submit_q) ->
        run_unlocked shared executed (Queue.pop shared.submit_q);
        loop ()
    | None when not shared.closing ->
        (* spurious wake-ups are fine: the loop re-examines everything *)
        M.inc m_sleeps 1;
        Condition.wait shared.activity shared.mutex;
        loop ()
    | None -> ()
  in
  Mutex.lock shared.mutex;
  loop ();
  Mutex.unlock shared.mutex

let create ?domains () =
  let n =
    max 1 (match domains with Some n -> n | None -> default_domains ())
  in
  if n <= 1 then { sequential with on_failure = Atomic.make None }
  else begin
    let shared =
      {
        mutex = Mutex.create ();
        activity = Condition.create ();
        batches = [];
        submit_q = Queue.create ();
        closing = false;
      }
    in
    let workers =
      List.init (n - 1) (fun i ->
          Domain.spawn (fun () -> worker_loop ~index:i shared))
    in
    let on_failure = Atomic.make None in
    { n_domains = n; shared = Some shared; workers; on_failure }
  end

let map t f xs =
  match t.shared with
  | None -> List.map f xs
  | Some shared ->
      let items = Array.of_list xs in
      let n = Array.length items in
      if n = 0 then []
      else if n = 1 then [ f items.(0) ]
      else
        T.with_span "pool.map" ~args:[ ("items", T.I n) ]
        @@ fun () ->
        M.inc m_maps 1;
        M.inc m_queued n;
        let results = Array.make n None in
        let remaining = Atomic.make n in
        let failure = Atomic.make None in
        let run_item i =
          (* Cancel cleanly: once a task has failed this map's result
             can only be the re-raised exception, so queued items are
             drained without running [f] — the first failure wins and
             is never masked by later ones. *)
          (if Atomic.get failure = None then
             match f items.(i) with
             | r -> results.(i) <- Some r
             | exception e ->
                 let bt = Printexc.get_raw_backtrace () in
                 ignore (Atomic.compare_and_set failure None (Some (e, bt))));
          (* The decrement publishes results.(i) to the caller, which
             reads results only after it sees 0. The last item wakes the
             caller under the mutex, under which the caller tests
             [remaining] before it waits: the wake-up is never lost. *)
          if Atomic.fetch_and_add remaining (-1) = 1 then begin
            Mutex.lock shared.mutex;
            Condition.broadcast shared.activity;
            Mutex.unlock shared.mutex
          end
        in
        (* Help until every item of THIS map has finished: its own
           items first, so a task that fans out gets back to its outer
           work (say, a suite's next test) before newer maps' items,
           then items of any map, which makes nested [map] deadlock-free.
           Submitted tasks are never run here: they may block for good
           (serve's connection handlers) and belong to the workers. *)
        let next = Atomic.make 0 in
        let batch () =
          let i = Atomic.fetch_and_add next 1 in
          if i < n then Some (fun () -> run_item i) else None
        in
        let rec drain () =
          if Atomic.get remaining > 0 then
            match pop (batch :: shared.batches) with
            | Some task ->
                run_unlocked shared m_exec_caller task;
                drain ()
            | None ->
                M.inc m_sleeps 1;
                Condition.wait shared.activity shared.mutex;
                drain ()
        in
        Mutex.lock shared.mutex;
        shared.batches <- batch :: shared.batches;
        Condition.broadcast shared.activity;
        drain ();
        shared.batches <- List.filter (fun b -> b != batch) shared.batches;
        Mutex.unlock shared.mutex;
        (match Atomic.get failure with
        | Some (e, bt) -> Printexc.raise_with_backtrace e bt
        | None -> ());
        (* [remaining] hit zero with no recorded failure, so every slot
           was filled *)
        Array.to_list (Array.map Option.get results)

let submit t task =
  let guarded () =
    try task ()
    with e ->
      (* Fire-and-forget tasks have no caller to re-raise into; a
         crash must not take the worker domain (or, on a sequential
         pool, the submitting caller) down with it. *)
      let bt = Printexc.get_raw_backtrace () in
      report_submit_failure t e bt
  in
  match t.shared with
  | None -> guarded ()
  | Some shared ->
      M.inc m_queued 1;
      Mutex.lock shared.mutex;
      Queue.add guarded shared.submit_q;
      Condition.broadcast shared.activity;
      Mutex.unlock shared.mutex

let teardown t =
  match t.shared with
  | None -> ()
  | Some shared ->
      Mutex.lock shared.mutex;
      let first = not shared.closing in
      shared.closing <- true;
      Condition.broadcast shared.activity;
      Mutex.unlock shared.mutex;
      if first then List.iter Domain.join t.workers

let with_pool ?domains f =
  let pool = create ?domains () in
  Fun.protect ~finally:(fun () -> teardown pool) (fun () -> f pool)
