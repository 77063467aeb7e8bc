(* Tests for the domain work pool and the parallel coverage pipeline:
   pool semantics (ordering, exceptions, nesting) and the determinism
   guarantee — reports are byte-identical at any domain count, and an
   incremental session's cached analysis equals the uncached scratch
   one. *)
open Netcov_config
open Netcov_core
open Netcov_sim
open Netcov_nettest
open Netcov_workloads
module Pool = Netcov_parallel.Pool

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_ints = Alcotest.(check (list int))
let check_str = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Pool semantics                                                      *)
(* ------------------------------------------------------------------ *)

let test_map_order () =
  Pool.with_pool ~domains:4 (fun pool ->
      let xs = List.init 100 Fun.id in
      check_ints "results in input order" (List.map (fun x -> x * x) xs)
        (Pool.map pool (fun x -> x * x) xs));
  check_ints "empty input" [] (Pool.with_pool ~domains:4 (fun p -> Pool.map p Fun.id []))

let test_sequential_equivalence () =
  let xs = List.init 37 (fun i -> i - 5) in
  let f x = (x * 7) mod 11 in
  check_ints "sequential pool = List.map" (List.map f xs)
    (Pool.map Pool.sequential f xs);
  check_int "sequential has one domain" 1 (Pool.domains Pool.sequential)

exception Boom of int

let test_exception_propagation () =
  Pool.with_pool ~domains:4 (fun pool ->
      (try
         ignore
           (Pool.map pool
              (fun x -> if x = 13 then raise (Boom x) else x)
              (List.init 40 Fun.id));
         Alcotest.fail "expected Boom"
       with Boom 13 -> ());
      (* the pool survives a failed map *)
      check_ints "pool usable after failure" [ 2; 4 ]
        (Pool.map pool (fun x -> 2 * x) [ 1; 2 ]))

(* Regression: a raising task must surface its own exception. The
   cancellation path used to leave un-run items' result slots empty and
   trip an [assert false] during collection, masking the real error
   with [Assert_failure]. Many raising tasks over several rounds make
   the cancelled-slot interleaving all but certain on 4 domains. *)
let test_failure_reports_original_exception () =
  Pool.with_pool ~domains:4 (fun pool ->
      for _round = 1 to 10 do
        match
          Pool.map pool
            (fun x -> if x mod 3 = 0 then raise (Boom x) else x)
            (List.init 60 Fun.id)
        with
        | _ -> Alcotest.fail "expected a Boom to propagate"
        | exception Boom i ->
            check_bool "a raising task's own exception" true (i mod 3 = 0)
        | exception e ->
            Alcotest.failf "original exception masked by %s"
              (Printexc.to_string e)
      done;
      check_ints "pool usable after repeated failures" [ 1; 2 ]
        (Pool.map pool Fun.id [ 1; 2 ]))

let test_nested_map () =
  Pool.with_pool ~domains:4 (fun pool ->
      let rows = List.init 8 (fun i -> List.init 8 (fun j -> (8 * i) + j)) in
      let summed =
        Pool.map pool
          (fun row -> List.fold_left ( + ) 0 (Pool.map pool (fun x -> x + 1) row))
          rows
      in
      check_int "nested maps on one pool" (((64 * 63) / 2) + 64)
        (List.fold_left ( + ) 0 summed))

(* Deque scheduler stress: every outer task nests its own inner map
   while all domains are saturated, so inner items land on busy
   domains' own deques and finish via owner pops and steals in some
   interleaving. Results must still come back complete and in order. *)
let test_nested_map_under_contention () =
  Pool.with_pool ~domains:4 (fun pool ->
      for _round = 1 to 5 do
        let expected = ref [] in
        let rows =
          List.init 32 (fun i -> List.init (1 + (i mod 7)) (fun j -> i + j))
        in
        List.iter
          (fun row ->
            expected := List.fold_left ( + ) 0 (List.map (fun x -> x * x) row)
                        :: !expected)
          rows;
        let got =
          Pool.map pool
            (fun row ->
              (* a little real work, then a nested fan-out *)
              let spin = ref 0 in
              for i = 1 to 1000 do spin := !spin + i done;
              ignore (Sys.opaque_identity !spin);
              List.fold_left ( + ) 0 (Pool.map pool (fun x -> x * x) row))
            rows
        in
        check_ints "contended nested maps complete in order"
          (List.rev !expected) got
      done)

(* The steal path must never change results: the same map on 1, 2 and
   4 domains, repeated, is byte-identical (work stealing only reorders
   execution, never placement of results). *)
let test_steal_determinism () =
  let xs = List.init 500 (fun i -> i * 13 mod 271) in
  let f x = (x * x * 7) mod 1009 in
  let reference = List.map f xs in
  List.iter
    (fun domains ->
      Pool.with_pool ~domains (fun pool ->
          for run = 1 to 3 do
            check_ints
              (Printf.sprintf "domains=%d run %d matches List.map" domains run)
              reference
              (Pool.map pool f xs)
          done))
    [ 1; 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Submit: failure routing and teardown draining                       *)
(* ------------------------------------------------------------------ *)

let failed_count () =
  match Netcov_obs.Metrics.value Netcov_obs.Metrics.default "pool.tasks.failed" with
  | Some (Netcov_obs.Metrics.Counter n) -> n
  | _ -> 0

let await ?(timeout_s = 5.) cond =
  let t0 = Unix.gettimeofday () in
  while (not (cond ())) && Unix.gettimeofday () -. t0 < timeout_s do
    Domain.cpu_relax ()
  done;
  cond ()

(* A submit task that raises must not vanish: the failure lands in
   pool.tasks.failed and in the installed handler as an [Internal]
   diagnostic, on parallel and sequential pools alike. *)
let test_submit_failure_routing () =
  let check_on pool =
    let seen = Atomic.make [] in
    Pool.set_failure_handler pool (fun d ->
        let rec push () =
          let cur = Atomic.get seen in
          if not (Atomic.compare_and_set seen cur (d :: cur)) then push ()
        in
        push ());
    let before = failed_count () in
    Pool.submit pool (fun () -> raise (Boom 7));
    Pool.submit pool (fun () -> failwith "second failure");
    check_bool "both failures counted" true
      (await (fun () -> failed_count () - before >= 2));
    check_bool "handler saw both diagnostics" true
      (await (fun () -> List.length (Atomic.get seen) >= 2));
    let contains ~needle hay =
      let nh = String.length hay and nn = String.length needle in
      let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
      nn = 0 || go 0
    in
    List.iter
      (fun d ->
        let s = Netcov_core.Diag.to_string d in
        check_bool "diagnostic mentions the submit task" true
          (contains ~needle:"Pool.submit task raised" s))
      (Atomic.get seen)
  in
  let pool = Pool.create ~domains:2 () in
  Fun.protect ~finally:(fun () -> Pool.teardown pool) (fun () -> check_on pool);
  check_on Pool.sequential

(* Teardown's contract: tasks already submitted run to completion, even
   when they are still queued (or sleeping) when teardown starts. *)
let test_teardown_drains_in_flight_submits () =
  let ran = Atomic.make 0 in
  let pool = Pool.create ~domains:2 () in
  for _i = 1 to 20 do
    Pool.submit pool (fun () ->
        Unix.sleepf 0.005;
        Atomic.incr ran)
  done;
  Pool.teardown pool;
  check_int "every queued submit ran before teardown returned" 20
    (Atomic.get ran);
  (* teardown is idempotent *)
  Pool.teardown pool

(* ------------------------------------------------------------------ *)
(* Determinism of the coverage pipeline                                *)
(* ------------------------------------------------------------------ *)

let report_fingerprint (r : Netcov.report) =
  Json_export.coverage r.Netcov.coverage

let ft_state_and_testeds =
  lazy
    (let ft = Fattree.generate ~k:4 () in
     let state = Stable_state.compute (Registry.build ft.Fattree.devices) in
     let testeds =
       List.map
         (fun (t : Nettest.t) -> (t.Nettest.run state).Nettest.tested)
         (Datacenter.suite ft)
     in
     (state, testeds))

let test_suite_domain_determinism () =
  let state, testeds = Lazy.force ft_state_and_testeds in
  let at domains =
    Pool.with_pool ~domains (fun pool ->
        Netcov.analyze_suite ~pool state testeds)
  in
  let seq = at 1 and par = at 4 in
  check_int "one report per test" (List.length testeds) (List.length par);
  List.iteri
    (fun i (a, b) ->
      check_str
        (Printf.sprintf "per-test report %d identical" i)
        (report_fingerprint a) (report_fingerprint b))
    (List.combine seq par);
  check_str "merged suite report identical"
    (report_fingerprint (Netcov.merge_reports seq))
    (report_fingerprint (Netcov.merge_reports par))

let test_merge_equals_union_analysis () =
  let state, testeds = Lazy.force ft_state_and_testeds in
  let merged =
    Netcov.merge_reports (Netcov.analyze_suite ~pool:Pool.sequential state testeds)
  in
  let union =
    Netcov.analyze state (Netcov.union_tested testeds)
  in
  check_str "merged per-test = union analysis" (report_fingerprint union)
    (report_fingerprint merged)

let i2_state_and_testeds =
  lazy
    (let net = Internet2.generate Internet2.paper_params in
     let state = Stable_state.compute (Registry.build net.Internet2.devices) in
     let testeds =
       List.map
         (fun (t : Nettest.t) -> (t.Nettest.run state).Nettest.tested)
         (Iterations.improved_suite net)
     in
     (state, testeds))

let test_i2_domain_determinism () =
  let state, testeds = Lazy.force i2_state_and_testeds in
  let at domains =
    Pool.with_pool ~domains (fun pool ->
        Netcov.merge_reports (Netcov.analyze_suite ~pool state testeds))
  in
  check_str "internet2 merged report identical 1 vs 4 domains"
    (report_fingerprint (at 1))
    (report_fingerprint (at 4))

(* Only incremental sessions memoize policy evaluations: the internet2
   suite's [Incr.create] report answers lookups from the session cache
   and must equal the merged scratch reports, which run uncached. *)
let test_sim_cache_transparent () =
  let state, testeds = Lazy.force i2_state_and_testeds in
  let scratch =
    Netcov.merge_reports (Netcov.analyze_suite ~pool:Pool.sequential state testeds)
  in
  let session, (_ : Netcov_incr.Incr.stats) =
    Netcov_incr.Incr.create state testeds
  in
  let cached = Netcov_incr.Incr.report session in
  check_str "session cache = scratch" (report_fingerprint scratch)
    (report_fingerprint cached);
  check_bool "session cache sees hits" true
    (cached.Netcov.timing.Netcov.sim_cache_hits > 0);
  check_int "scratch has no cache traffic" 0
    (scratch.Netcov.timing.Netcov.sim_cache_hits
    + scratch.Netcov.timing.Netcov.sim_cache_misses)

(* ------------------------------------------------------------------ *)
(* Merged timing semantics and registry validation                     *)
(* ------------------------------------------------------------------ *)

let test_merge_timing_semantics () =
  let state, testeds = Lazy.force ft_state_and_testeds in
  let reports = Netcov.analyze_suite ~pool:Pool.sequential state testeds in
  let per_test_total = List.map (fun r -> r.Netcov.timing.Netcov.total_s) reports in
  let merged = Netcov.merge_reports reports in
  let tm = merged.Netcov.timing in
  check_bool "cpu_total_s sums the per-test wall times" true
    (Float.abs (tm.Netcov.cpu_total_s -. List.fold_left ( +. ) 0. per_test_total)
    < 1e-9);
  check_bool "default total_s is the max, not the sum" true
    (tm.Netcov.total_s = List.fold_left Float.max 0. per_test_total);
  let timed = Netcov.merge_reports ~wall_s:12.5 reports in
  check_bool "wall_s overrides merged total_s" true
    (timed.Netcov.timing.Netcov.total_s = 12.5);
  check_bool "wall_s leaves cpu_total_s alone" true
    (timed.Netcov.timing.Netcov.cpu_total_s = tm.Netcov.cpu_total_s)

let test_merge_rejects_foreign_registry () =
  let state, testeds = Lazy.force ft_state_and_testeds in
  let r = Netcov.analyze state (List.hd testeds) in
  let other_state = Stable_state.compute (Registry.build (Testnet.chain ())) in
  let other = Netcov.analyze other_state Netcov.no_tests in
  check_bool "merging across registries raises" true
    (match Netcov.merge_reports [ r; other ] with
    | _ -> false
    | exception Invalid_argument _ -> true);
  check_bool "empty list raises" true
    (match Netcov.merge_reports [] with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* NETCOV_DOMAINS parsing                                              *)
(* ------------------------------------------------------------------ *)

let test_env_domains () =
  (* Unix.putenv cannot unset, so probe the fallback with a value that
     is valid-but-ignored afterwards. *)
  Unix.putenv "NETCOV_DOMAINS" "3";
  check_int "valid value is honoured" 3 (Pool.default_domains ());
  (* no cap: the default is whatever the hardware recommends *)
  let fallback = max 1 (Domain.recommended_domain_count ()) in
  List.iter
    (fun bad ->
      Unix.putenv "NETCOV_DOMAINS" bad;
      check_int
        (Printf.sprintf "invalid %S falls back to the default" bad)
        fallback (Pool.default_domains ()))
    [ "abc"; "0"; "-2"; "" ];
  Unix.putenv "NETCOV_DOMAINS" "1"

(* ------------------------------------------------------------------ *)
(* BDD apply-cache counters                                            *)
(* ------------------------------------------------------------------ *)

let test_bdd_cache_stats () =
  let open Netcov_bdd in
  let m = Bdd.create ~cache_size:1024 () in
  let st0 = Bdd.cache_stats m in
  check_int "slots rounded to pow2" 1024 st0.Bdd.slots;
  check_int "fresh cache: no hits" 0 st0.Bdd.hits;
  let vars = List.init 16 (Bdd.var m) in
  let a = Bdd.conj m vars in
  let st1 = Bdd.cache_stats m in
  check_bool "building records misses" true (st1.Bdd.misses > 0);
  let b = Bdd.conj m vars in
  let st2 = Bdd.cache_stats m in
  check_bool "rebuild hits the cache" true (st2.Bdd.hits > st1.Bdd.hits);
  check_bool "identical result" true (Bdd.equal a b)

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "map order" `Quick test_map_order;
          Alcotest.test_case "sequential equivalence" `Quick
            test_sequential_equivalence;
          Alcotest.test_case "exception propagation" `Quick
            test_exception_propagation;
          Alcotest.test_case "failure reports original exception" `Quick
            test_failure_reports_original_exception;
          Alcotest.test_case "nested map" `Quick test_nested_map;
          Alcotest.test_case "nested map under contention" `Quick
            test_nested_map_under_contention;
          Alcotest.test_case "steal-path determinism" `Quick
            test_steal_determinism;
        ] );
      ( "submit",
        [
          Alcotest.test_case "failure routing" `Quick
            test_submit_failure_routing;
          Alcotest.test_case "teardown drains in-flight submits" `Quick
            test_teardown_drains_in_flight_submits;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "suite 1 vs 4 domains" `Quick
            test_suite_domain_determinism;
          Alcotest.test_case "internet2 1 vs 4 domains" `Quick
            test_i2_domain_determinism;
          Alcotest.test_case "merge = union analysis" `Quick
            test_merge_equals_union_analysis;
          Alcotest.test_case "sim cache transparent" `Quick
            test_sim_cache_transparent;
        ] );
      ( "merge",
        [
          Alcotest.test_case "timing: cpu sums, wall does not" `Quick
            test_merge_timing_semantics;
          Alcotest.test_case "foreign registry rejected" `Quick
            test_merge_rejects_foreign_registry;
        ] );
      ( "env",
        [ Alcotest.test_case "NETCOV_DOMAINS parsing" `Quick test_env_domains ] );
      ( "bdd-cache",
        [ Alcotest.test_case "stats counters" `Quick test_bdd_cache_stats ] );
    ]
