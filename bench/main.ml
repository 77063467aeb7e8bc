(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (sections 6-8). Run with no argument for everything, or pass
   one of: fig6b fig7 fig8 fig9 fig10a fig10b fig11a fig11b table2
   ablation mutation whatif rr scaling incr kernels.

   Flags: --smoke shrinks workloads to a seconds-scale budget (CI),
   --oversubscribe re-enables scaling rows with more domains than
   hardware cores, --trace FILE / --metrics FILE export observability.

   Absolute numbers differ from the paper (synthetic workload, different
   machine); the printed "paper" annotations give the reference values so
   the qualitative shape can be compared directly. *)

open Netcov_config
open Netcov_sim
open Netcov_core
open Netcov_nettest
open Netcov_workloads
module Pool = Netcov_parallel.Pool
module Registry_diff = Netcov_incr.Registry_diff

let section title = Printf.printf "\n=== %s ===\n%!" title
let timed = Timing.time
let pct = Printf.sprintf "%.1f%%"
let smoke = ref false
let oversubscribe = ref false

(* ------------------------------------------------------------------ *)
(* Shared environments                                                 *)
(* ------------------------------------------------------------------ *)

type tested_test = {
  test : Nettest.t;
  result : Nettest.result;
  exec_s : float;
  report : Netcov.report;
}

let run_tests state tests =
  (* Fan the per-test execute+analyze pipelines out across a domain
     pool; tests share only the immutable stable state, and results
     come back in input order. *)
  Pool.with_pool (fun pool ->
      Pool.map pool
        (fun (t : Nettest.t) ->
          let result, exec_s = timed (fun () -> t.run state) in
          let report = Netcov.analyze ~pool state result.Nettest.tested in
          { test = t; result; exec_s; report })
        tests)

type i2_env = {
  net : Internet2.t;
  state : Stable_state.t;
  tests : tested_test list;
  sim_s : float;
}

let i2_env =
  lazy
    (let net = Internet2.generate Internet2.paper_params in
     let reg = Registry.build net.Internet2.devices in
     let state, sim_s = timed (fun () -> Stable_state.compute reg) in
     let tests = run_tests state (Iterations.improved_suite net) in
     { net; state; tests; sim_s })

type ft_env = {
  ft : Fattree.t;
  ft_state : Stable_state.t;
  ft_tests : tested_test list;
  ft_sim_s : float;
}

let make_ft_env k =
  let ft = Fattree.generate ~k () in
  let reg = Registry.build ft.Fattree.devices in
  let ft_state, ft_sim_s = timed (fun () -> Stable_state.compute reg) in
  let ft_tests = run_tests ft_state (Datacenter.suite ft) in
  { ft; ft_state; ft_tests; ft_sim_s }

let ft_env = lazy (make_ft_env 8)

let suite_report state tests =
  Netcov.analyze state
    (Netcov.union_tested (List.map (fun t -> t.result.Nettest.tested) tests))

let coverage_pct report = Coverage.pct (Coverage.line_stats report.Netcov.coverage)
let bagpipe_of env = List.filteri (fun i _ -> i < 3) env.tests

(* ------------------------------------------------------------------ *)
(* Figure 6(b): file-level aggregate coverage                          *)
(* ------------------------------------------------------------------ *)

let fig6b () =
  section "Figure 6(b): Internet2 file-level coverage (Bagpipe suite)";
  let env = Lazy.force i2_env in
  let report = suite_report env.state (bagpipe_of env) in
  print_string (Lcov.file_table report.Netcov.coverage);
  Printf.printf "(paper: overall 26.1%%, per-device range 11.8%%..40.5%%)\n"

(* ------------------------------------------------------------------ *)
(* Figure 7 + section 6.1.1: coverage by configuration type per test   *)
(* ------------------------------------------------------------------ *)

let bucket_row cov =
  List.map
    (fun (b, (s : Coverage.type_stats)) ->
      let covered = s.lines_strong + s.lines_weak in
      ( Element.bucket_to_string b,
        if s.lines_total = 0 then 0.
        else 100. *. float_of_int covered /. float_of_int s.lines_total ))
    (Coverage.bucket_stats cov)

let print_bucket_header () =
  Printf.printf "%-24s %8s | %-10s %-10s %-10s %-10s\n" "test" "total"
    "Interface" "BGP" "Policy" "MatchList"

let print_bucket_row name total cov =
  let find b = try List.assoc b (bucket_row cov) with Not_found -> 0. in
  Printf.printf "%-24s %8s | %-10s %-10s %-10s %-10s\n" name (pct total)
    (pct (find "Interfaces"))
    (pct (find "BGP"))
    (pct (find "Routing policies"))
    (pct (find "Match lists"))

let fig7 () =
  section "Figure 7: Internet2 coverage by test and configuration type";
  let env = Lazy.force i2_env in
  print_bucket_header ();
  List.iter
    (fun t ->
      print_bucket_row t.test.Nettest.name (coverage_pct t.report)
        t.report.Netcov.coverage)
    (bagpipe_of env);
  let suite = suite_report env.state (bagpipe_of env) in
  print_bucket_row "Test Suite" (coverage_pct suite) suite.Netcov.coverage;
  let stats = Coverage.line_stats suite.Netcov.coverage in
  Printf.printf
    "suite: %d/%d considered lines covered; weak share %.1f%%; dead code %.1f%%\n"
    (Coverage.covered_lines stats) stats.Coverage.considered
    (100.
    *. float_of_int stats.Coverage.weak_lines
    /. float_of_int (max 1 stats.Coverage.considered))
    (Netcov.dead_line_pct suite);
  Printf.printf
    "(paper: BlockToExternal 0.6%%, NoMartian 0.9%%, RoutePreference 24.7%%, \
     suite 26.1%%, weak 0.5%%, dead 27.9%%)\n"

(* ------------------------------------------------------------------ *)
(* Figure 8: coverage growth over test-development iterations          *)
(* ------------------------------------------------------------------ *)

let fig8 () =
  section "Figure 8: Internet2 coverage across test iterations";
  let env = Lazy.force i2_env in
  let paper = [ 26.1; 26.7; 33.0; 43.0 ] in
  let stages =
    [
      ("Bagpipe suite", 3);
      ("+ SanityIn", 4);
      ("+ PeerSpecificRoute", 5);
      ("+ InterfaceReachability", 6);
    ]
  in
  Printf.printf "%-26s %10s %10s\n" "suite" "measured" "paper";
  List.iteri
    (fun i (name, n) ->
      let tests = List.filteri (fun j _ -> j < n) env.tests in
      let report = suite_report env.state tests in
      Printf.printf "%-26s %10s %10s\n" name
        (pct (coverage_pct report))
        (pct (List.nth paper i)))
    stages

(* ------------------------------------------------------------------ *)
(* Figure 9: datacenter coverage with strong/weak split                *)
(* ------------------------------------------------------------------ *)

let fig9 () =
  section "Figure 9: fat-tree (k=8, 80 routers) coverage by test";
  let env = Lazy.force ft_env in
  Printf.printf "%-20s %10s %10s %10s\n" "test" "covered" "strong" "weak";
  let row name cov =
    let s = Coverage.line_stats cov in
    let f n = 100. *. float_of_int n /. float_of_int (max 1 s.Coverage.considered) in
    Printf.printf "%-20s %10s %10s %10s\n" name
      (pct (Coverage.pct s))
      (pct (f s.Coverage.strong_lines))
      (pct (f s.Coverage.weak_lines))
  in
  List.iter (fun t -> row t.test.Nettest.name t.report.Netcov.coverage) env.ft_tests;
  let suite = suite_report env.ft_state env.ft_tests in
  row "Test Suite" suite.Netcov.coverage;
  Printf.printf
    "(paper: DefaultRouteCheck 81.5%%, ToRPingmesh 82.1%%, ExportAggregate \
     80.7%% with a large weak share, suite 85.3%%)\n"

(* ------------------------------------------------------------------ *)
(* Figure 10(a): per-test times on Internet2                           *)
(* ------------------------------------------------------------------ *)

let fig10a () =
  section "Figure 10(a): Internet2 test execution vs coverage computation time";
  let env = Lazy.force i2_env in
  Printf.printf "%-24s %10s %12s %10s %10s\n" "test" "exec(s)" "coverage(s)"
    "sims(s)" "label(s)";
  let bagpipe = bagpipe_of env in
  List.iter
    (fun t ->
      let tm = t.report.Netcov.timing in
      Printf.printf "%-24s %10.3f %12.3f %10.3f %10.3f\n" t.test.Nettest.name
        t.exec_s tm.Netcov.total_s tm.Netcov.sim_s tm.Netcov.label_s)
    bagpipe;
  let exec_total = List.fold_left (fun a t -> a +. t.exec_s) 0. bagpipe in
  let suite, cov_s = timed (fun () -> suite_report env.state bagpipe) in
  let tm = suite.Netcov.timing in
  Printf.printf "%-24s %10.3f %12.3f %10.3f %10.3f\n" "Full suite" exec_total
    cov_s tm.Netcov.sim_s tm.Netcov.label_s;
  Printf.printf
    "test execution including the control-plane computation the tests run \
     against: %.2fs (the paper's 2358s includes Batfish's data plane \
     generation)\n"
    (env.sim_s +. exec_total);
  Printf.printf
    "(paper: full suite coverage 99.4s vs execution 2358s; simulations and \
     labeling are minority components; suite < sum of individual runs)\n"

(* ------------------------------------------------------------------ *)
(* Figure 10(b): scaling with fat-tree size                            *)
(* ------------------------------------------------------------------ *)

let fig10b () =
  section "Figure 10(b): fat-tree scaling (suite execution vs coverage time)";
  Printf.printf "%-6s %8s %10s %10s %12s %10s\n" "k" "routers" "RIB" "exec(s)"
    "coverage(s)" "cov/exec";
  List.iter
    (fun k ->
      let env = make_ft_env k in
      let rib = Stable_state.total_main_entries env.ft_state in
      let exec_total =
        (* like the paper's, test execution includes producing the data
           plane state the tests inspect *)
        env.ft_sim_s
        +. List.fold_left (fun a t -> a +. t.exec_s) 0. env.ft_tests
      in
      let _, cov_s = timed (fun () -> suite_report env.ft_state env.ft_tests) in
      Printf.printf "%-6d %8d %10d %10.2f %12.2f %9.1f%%\n" k
        (Fattree.router_count k) rib exec_total cov_s
        (100. *. cov_s /. max 1e-9 exec_total))
    [ 4; 6; 8; 10; 12 ];
  Printf.printf
    "(paper: coverage 4413s on the largest network [2,040,624 RIB entries], \
     under 9%% of test execution; both grow superlinearly with size)\n"

(* ------------------------------------------------------------------ *)
(* Figure 11: control-plane vs data-plane coverage                     *)
(* ------------------------------------------------------------------ *)

let fig11_rows state tests =
  List.iter
    (fun t ->
      let dp = Netcov_dpcov.Dpcov.of_tested state t.result.Nettest.tested in
      Printf.printf "%-24s %14s %14s\n" t.test.Nettest.name
        (pct (coverage_pct t.report))
        (pct (Netcov_dpcov.Dpcov.pct dp)))
    tests

let fig11a () =
  section "Figure 11(a): Internet2 -- configuration vs data plane coverage";
  let env = Lazy.force i2_env in
  Printf.printf "%-24s %14s %14s\n" "test" "config-cov" "dataplane-cov";
  fig11_rows env.state env.tests;
  let all = Netcov_dpcov.Dpcov.all_data_plane_tested env.state in
  let report = Netcov.analyze env.state all in
  let dp = Netcov_dpcov.Dpcov.of_tested env.state all in
  Printf.printf "%-24s %14s %14s\n" "All data plane"
    (pct (coverage_pct report))
    (pct (Netcov_dpcov.Dpcov.pct dp));
  Printf.printf
    "(paper: control-plane tests show 0%% data plane coverage; testing 100%% \
     of the data plane still covers only 41%% of configuration)\n"

let fig11b () =
  section "Figure 11(b): fat-tree -- configuration vs data plane coverage";
  let env = Lazy.force ft_env in
  Printf.printf "%-24s %14s %14s\n" "test" "config-cov" "dataplane-cov";
  fig11_rows env.ft_state env.ft_tests;
  Printf.printf
    "(paper: DefaultRouteCheck pairs 1.8%% data plane coverage with ~87%% \
     configuration coverage; ToRPingmesh covers 88%% of the data plane but \
     adds little configuration coverage on top)\n"

(* ------------------------------------------------------------------ *)
(* Table 2: element inventory                                          *)
(* ------------------------------------------------------------------ *)

let table2 () =
  section "Table 2: configuration element types (instances per workload)";
  let env = Lazy.force i2_env in
  let ft = Lazy.force ft_env in
  let count reg =
    let tbl = Hashtbl.create 16 in
    Registry.iter_elements reg (fun e ->
        let k = Element.etype_of e in
        Hashtbl.replace tbl k (1 + Option.value (Hashtbl.find_opt tbl k) ~default:0));
    tbl
  in
  let i2_counts = count (Stable_state.registry env.state) in
  let ft_counts = count (Stable_state.registry ft.ft_state) in
  Printf.printf "%-24s %10s %10s\n" "element type" "internet2" "fattree-8";
  List.iter
    (fun et ->
      let get tbl = Option.value (Hashtbl.find_opt tbl et) ~default:0 in
      Printf.printf "%-24s %10d %10d\n" (Element.etype_to_string et)
        (get i2_counts) (get ft_counts))
    Element.all_etypes

(* ------------------------------------------------------------------ *)
(* Ablations (DESIGN.md)                                               *)
(* ------------------------------------------------------------------ *)

let ablation () =
  section "Ablation: lazy IFG and the disjunction-free variable heuristic";
  let env = Lazy.force ft_env in
  let t =
    List.find (fun t -> t.test.Nettest.name = "ExportAggregate") env.ft_tests
  in
  let ctx = Rules.make_ctx env.ft_state in
  let g, tested_ids, mstats =
    Materialize.run ctx ~tested:t.result.Nettest.tested.Netcov.dp_facts
  in
  let with_h, t_with = timed (fun () -> Label.run g ~tested:tested_ids) in
  let without_h, t_without =
    timed (fun () -> Label.run ~disjfree_heuristic:false g ~tested:tested_ids)
  in
  Printf.printf "labeling with heuristic:    %.3fs, %d BDD vars\n" t_with
    with_h.Label.vars;
  Printf.printf "labeling without heuristic: %.3fs, %d BDD vars\n" t_without
    without_h.Label.vars;
  Printf.printf "identical results: %b\n"
    (Element.Id_set.equal with_h.Label.strong without_h.Label.strong
    && Element.Id_set.equal with_h.Label.weak without_h.Label.weak);
  let ctx_all = Rules.make_ctx env.ft_state in
  let all = Netcov_dpcov.Dpcov.all_data_plane_tested env.ft_state in
  let _, _, eager_stats = Materialize.run ctx_all ~tested:all.Netcov.dp_facts in
  Printf.printf
    "lazy IFG for ExportAggregate: %d nodes (%.3fs); eager over the full \
     data plane: %d nodes (%.3fs)\n"
    mstats.Materialize.nodes mstats.Materialize.rule_seconds
    eager_stats.Materialize.nodes eager_stats.Materialize.rule_seconds

(* ------------------------------------------------------------------ *)
(* Mutation coverage comparison (paper section 3.1)                    *)
(* ------------------------------------------------------------------ *)

let float_median xs =
  match List.sort Float.compare xs with
  | [] -> 0.
  | s -> List.nth s (List.length s / 2)

(* Stratified element sample: every (total/n)-th element id, so all
   element kinds and devices are represented without running the full
   per-element sweep. *)
let mutation_sample reg n =
  let total = Registry.n_elements reg in
  if total <= n then List.init total Fun.id
  else
    let step = total / n in
    List.init n (fun i -> i * step)

(* Warm and scratch generate mutants in identical deterministic order,
   so per-mutant times pair positionally. *)
let mutation_speedups (warm : Mutation.result) (scratch : Mutation.result) =
  if List.length warm.Mutation.outcomes <> List.length scratch.Mutation.outcomes
  then []
  else
    List.filter_map
      (fun ((w : Mutation.outcome), (s : Mutation.outcome)) ->
        if
          w.Mutation.o_element = s.Mutation.o_element
          && w.Mutation.o_op = s.Mutation.o_op
          && w.Mutation.o_seconds > 0.
        then Some (s.Mutation.o_seconds /. w.Mutation.o_seconds)
        else None)
      (List.combine warm.Mutation.outcomes scratch.Mutation.outcomes)

let mutation_verdicts_identical (a : Mutation.result) (b : Mutation.result) =
  Element.Id_set.equal a.Mutation.killed b.Mutation.killed
  && Element.Id_set.equal a.Mutation.survived b.Mutation.survived
  && Element.Id_set.equal a.Mutation.skipped b.Mutation.skipped

type mut_row = {
  mm_name : string;
  mm_elements : int;
  mm_mutants : int;
  mm_warm : Mutation.result;
  mm_scratch : Mutation.result;
  mm_median_speedup : float;
  mm_identical : bool;
}

let run_mutation_row name reg facts sample =
  let oracle = Mutation.facts_oracle facts in
  let warm = Mutation.run reg ~oracle ~elements:sample ~mode:Mutation.Warm () in
  let scratch =
    Mutation.run reg ~oracle ~elements:sample ~mode:Mutation.Scratch ()
  in
  {
    mm_name = name;
    mm_elements = List.length sample;
    mm_mutants = warm.Mutation.mutants_run;
    mm_warm = warm;
    mm_scratch = scratch;
    mm_median_speedup = float_median (mutation_speedups warm scratch);
    mm_identical = mutation_verdicts_identical warm scratch;
  }

let print_mut_row r =
  Printf.printf
    "%-12s %4d elements %4d mutants | warm %6.2fs scratch %6.2fs | median \
     per-mutant speedup %6.2fx | verdicts %s | killed/survived/skipped \
     %d/%d/%d\n"
    r.mm_name r.mm_elements r.mm_mutants r.mm_warm.Mutation.seconds
    r.mm_scratch.Mutation.seconds r.mm_median_speedup
    (if r.mm_identical then "identical" else "DIVERGED")
    (Element.Id_set.cardinal r.mm_warm.Mutation.killed)
    (Element.Id_set.cardinal r.mm_warm.Mutation.survived)
    (Element.Id_set.cardinal r.mm_warm.Mutation.skipped)

(* Seconds-scale gate (@mutation-smoke): warm (incremental) mutant
   execution must produce verdicts identical to the scratch reference
   on a sampled k=4 fat-tree, with a median per-mutant speedup of at
   least 2x, and every sampled mutant must be a single-device edit
   under Registry_diff. *)
let mutation_smoke () =
  section "Mutation smoke: warm vs scratch verdict identity + speedup gate";
  let ft = Fattree.generate ~k:4 () in
  let reg = Registry.build ft.Fattree.devices in
  let state = Stable_state.compute reg in
  let t = Datacenter.default_route_check ft in
  let r = t.Nettest.run state in
  let facts = r.Nettest.tested.Netcov.dp_facts in
  let sample = mutation_sample reg 24 in
  let row = run_mutation_row "fattree-k4" reg facts sample in
  print_mut_row row;
  let failures = ref [] in
  if not row.mm_identical then
    failures := "warm and scratch mutant verdicts diverge" :: !failures;
  if row.mm_median_speedup < 2. then
    failures :=
      Printf.sprintf "median per-mutant speedup %.2fx < 2x"
        row.mm_median_speedup
      :: !failures;
  (* Registry_diff single-device sanity on a few mutants. *)
  List.iteri
    (fun i id ->
      if i < 3 then
        match Mutation.mutants_of reg id with
        | Some (m :: _) ->
            let d =
              Registry_diff.diff ~old:reg (Mutation.mutant_registry reg m)
            in
            if
              d.Registry_diff.devices_changed
              <> [ m.Mutation.mu_element.Element.device ]
            then
              failures :=
                Printf.sprintf
                  "mutant of element %d is not a single-device edit" id
                :: !failures
        | _ -> ())
    sample;
  if !failures <> [] then begin
    List.iter (Printf.eprintf "mutation smoke failure: %s\n") !failures;
    exit 1
  end;
  Printf.printf "mutation smoke ok (median per-mutant speedup %.2fx)\n"
    row.mm_median_speedup

(* Full run: fattree-k8 sampled sweep, writes BENCH_mutation.json
   (docs/MUTATION.md, bench methodology). *)
let mutation_full () =
  section
    "Mutation coverage: warm (incremental) vs scratch mutant execution, \
     and vs IFG coverage (paper section 3.1)";
  let ft = Lazy.force ft_env in
  let reg = Stable_state.registry ft.ft_state in
  (* The oracle re-checks its facts once per mutant, so its cost scales
     the whole sweep: use the default-route suite (one fact per leaf
     pair end-point) rather than the merged full suite's tens of
     thousands of facts, matching the per-mutant cost profile a user
     validating one property would see. *)
  let t = Datacenter.default_route_check ft.ft in
  let r = t.Nettest.run ft.ft_state in
  let facts = r.Nettest.tested.Netcov.dp_facts in
  let sample = mutation_sample reg 48 in
  let row = run_mutation_row "fattree-k8" reg facts sample in
  print_mut_row row;
  (* IFG agreement on the same sample, for the section 3.1 comparison. *)
  let report = suite_report ft.ft_state ft.ft_tests in
  let covered = Coverage.covered_elements report.Netcov.coverage in
  let sample_covered =
    List.filter (fun id -> Element.Id_set.mem id covered) sample
  in
  let killed = row.mm_warm.Mutation.killed in
  let only_ifg =
    List.filter (fun id -> not (Element.Id_set.mem id killed)) sample_covered
  in
  let only_mut =
    List.filter
      (fun id ->
        Element.Id_set.mem id killed
        && not (Element.Id_set.mem id covered))
      sample
  in
  Printf.printf
    "IFG agreement on sample: %d covered, %d only-IFG (fall-through \
     masking), %d only-mutation (competitor suppression)\n"
    (List.length sample_covered) (List.length only_ifg)
    (List.length only_mut);
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf
    "  \"description\": \"warm (Stable_state.update_devices seeded from \
     the baseline fixed point) vs scratch (Registry.build + \
     Stable_state.compute) mutant execution on a sampled fattree-k8 \
     element sweep; identical must stay true and the median per-mutant \
     speedup is the headline number (target >= 5x)\",\n";
  Buffer.add_string buf
    (Printf.sprintf
       "  \"workload\": \"%s\", \"elements\": %d, \"mutants\": %d,\n"
       row.mm_name row.mm_elements row.mm_mutants);
  Buffer.add_string buf
    (Printf.sprintf
       "  \"warm_wall_s\": %.4f, \"scratch_wall_s\": %.4f,\n"
       row.mm_warm.Mutation.seconds row.mm_scratch.Mutation.seconds);
  let speedups = mutation_speedups row.mm_warm row.mm_scratch in
  let mean =
    if speedups = [] then 0.
    else List.fold_left ( +. ) 0. speedups /. float_of_int (List.length speedups)
  in
  Buffer.add_string buf
    (Printf.sprintf
       "  \"median_per_mutant_speedup\": %.3f, \
        \"mean_per_mutant_speedup\": %.3f, \"identical\": %b,\n"
       row.mm_median_speedup mean row.mm_identical);
  Buffer.add_string buf
    (Printf.sprintf
       "  \"killed\": %d, \"survived\": %d, \"skipped\": %d,\n"
       (Element.Id_set.cardinal killed)
       (Element.Id_set.cardinal row.mm_warm.Mutation.survived)
       (Element.Id_set.cardinal row.mm_warm.Mutation.skipped));
  Buffer.add_string buf
    (Printf.sprintf
       "  \"sample_ifg_covered\": %d, \"only_ifg\": %d, \"only_mutation\": \
        %d\n"
       (List.length sample_covered) (List.length only_ifg)
       (List.length only_mut));
  Buffer.add_string buf "}\n";
  let oc = open_out "BENCH_mutation.json" in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "wrote BENCH_mutation.json\n"

let mutation () = if !smoke then mutation_smoke () else mutation_full ()

(* ------------------------------------------------------------------ *)
(* What-if: coverage under failures (section 8 discussion)             *)
(* ------------------------------------------------------------------ *)

let whatif () =
  section
    "What-if extension: single-path fat-tree coverage under single link \
     failures (elements only exercised in failure environments)";
  (* a single-path (no-ECMP) fat-tree: the fault-free run exercises only
     the selected uplinks; failures shift traffic onto the backups *)
  let ft = Fattree.generate ~k:4 ~multipath:1 () in
  let reg = Registry.build ft.Fattree.devices in
  let state = Stable_state.compute reg in
  (* ExportAggregate weakly covers every contributor even without ECMP,
     masking the effect; use the two reachability tests *)
  let suite = [ Datacenter.default_route_check ft; Datacenter.tor_pingmesh ft ] in
  let result, secs = timed (fun () -> Whatif.run state suite) in
  let stats cov = Coverage.pct (Coverage.line_stats cov) in
  Printf.printf "baseline suite coverage:        %s\n" (pct (stats result.Whatif.baseline));
  Printf.printf "union over %2d failure scenarios: %s (%.1fs)\n"
    (List.length result.Whatif.scenarios)
    (pct (stats result.Whatif.union))
    secs;
  Printf.printf "elements covered only under failures: %d\n"
    (Element.Id_set.cardinal (Whatif.failure_only result));
  Printf.printf
    "(paper section 8: some configuration lines are only exercised under \
     specific environments such as failures)\n"

(* ------------------------------------------------------------------ *)
(* iBGP design comparison (extension)                                  *)
(* ------------------------------------------------------------------ *)

let rr () =
  section
    "Extension: coverage under full-mesh vs route-reflector iBGP design \
     (Internet2, improved suite)";
  let run design name =
    let params =
      { Internet2.default_params with Internet2.ibgp = design; n_peers = 60 }
    in
    let net = Internet2.generate params in
    let state = Stable_state.compute (Registry.build net.Internet2.devices) in
    let results = Nettest.run_suite state (Iterations.improved_suite net) in
    let report = Netcov.analyze state (Nettest.suite_tested results) in
    let stats = Coverage.line_stats report.Netcov.coverage in
    Printf.printf "%-28s coverage %s (%d edges, %d rounds)\n" name
      (pct (Coverage.pct stats))
      (List.length (Stable_state.edges state))
      (Stable_state.rounds state)
  in
  run Internet2.Full_mesh "iBGP full mesh";
  run (Internet2.Route_reflectors 2) "2 route reflectors";
  Printf.printf
    "(the reflector design concentrates iBGP edges: fewer sessions exist, \
     and the reflectors' configuration becomes a non-local contributor to \
     every tested remote route)\n"

(* ------------------------------------------------------------------ *)
(* Bechamel micro-kernels                                              *)
(* ------------------------------------------------------------------ *)

let kernels () =
  section "Micro-kernels (Bechamel, ns/op)";
  let open Bechamel in
  let open Toolkit in
  let bdd_test =
    Test.make ~name:"bdd-conj-32"
      (Staged.stage (fun () ->
           let m = Netcov_bdd.Bdd.create () in
           let vars = List.init 32 (Netcov_bdd.Bdd.var m) in
           ignore (Netcov_bdd.Bdd.conj m vars)))
  in
  let trie =
    let open Netcov_types in
    List.init 1024 (fun i ->
        (Prefix.make (Ipv4.of_octets (i mod 224) (i / 8 mod 250) 0 0) 16, i))
    |> Netcov_types.Prefix_trie.of_list
  in
  let trie_test =
    Test.make ~name:"trie-lpm"
      (Staged.stage (fun () ->
           ignore
             (Netcov_types.Prefix_trie.longest_match
                (Netcov_types.Ipv4.of_octets 100 50 1 1)
                trie)))
  in
  let env = Lazy.force i2_env in
  let d = Stable_state.find_device env.state (List.hd env.net.Internet2.routers) in
  let route =
    Netcov_types.Route.originate
      (Netcov_types.Prefix.of_string "100.0.1.0/24")
      ~next_hop:Netcov_types.Ipv4.zero
  in
  let chain =
    match d.Device.bgp with
    | Some b -> (
        match
          List.find_opt (fun (nb : Device.neighbor) -> nb.nb_import <> []) b.neighbors
        with
        | Some nb -> Device.neighbor_import d nb
        | None -> [])
    | None -> []
  in
  let policy_test =
    Test.make ~name:"policy-chain-eval"
      (Staged.stage (fun () ->
           ignore
             (Netcov_policy.Eval.run_chain d ~chain
                ~default:Netcov_policy.Eval.Accepted route)))
  in
  let re = Netcov_types.As_regex.compile "_(64512|65000|65534)_" in
  let path = Netcov_types.As_path.of_list [ 3356; 1299; 65000; 44; 3 ] in
  let regex_test =
    Test.make ~name:"as-regex-match"
      (Staged.stage (fun () -> ignore (Netcov_types.As_regex.matches re path)))
  in
  let mat_state = env.state in
  let tested_fact =
    let host = List.hd env.net.Internet2.routers in
    match Netcov_sim.Rib.table_entries (Stable_state.main_rib mat_state host) with
    | (_, entry) :: _ -> [ Fact.F_main_rib { host; entry } ]
    | [] -> []
  in
  let ifg_test =
    Test.make ~name:"ifg-materialize-1-fact"
      (Staged.stage (fun () ->
           let ctx = Rules.make_ctx mat_state in
           ignore (Materialize.run ctx ~tested:tested_fact)))
  in
  let grouped =
    Test.make_grouped ~name:"netcov"
      [ bdd_test; trie_test; policy_test; regex_test; ifg_test ]
  in
  let cfg =
    Benchmark.cfg ~limit:500 ~quota:(Time.second 0.5) ~kde:None ~stabilize:false ()
  in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] grouped in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Hashtbl.iter
    (fun name ols_result ->
      let est =
        match Analyze.OLS.estimates ols_result with
        | Some (x :: _) -> Printf.sprintf "%12.1f ns/op" x
        | Some [] | None -> "n/a"
      in
      Printf.printf "%-36s %s\n" name est)
    results;
  (* Apply-cache effectiveness on a representative predicate build:
     cone predicates rebuild the same conjunction/disjunction shapes
     repeatedly, so the second pass should be answered by the cache. *)
  let m = Netcov_bdd.Bdd.create ~cache_size:(1 lsl 16) () in
  let vars = List.init 64 (Netcov_bdd.Bdd.var m) in
  for _ = 1 to 2 do
    let c = Netcov_bdd.Bdd.conj m vars in
    let d = Netcov_bdd.Bdd.disj m vars in
    ignore (Netcov_bdd.Bdd.bdd_xor m c d);
    List.iter
      (fun v -> ignore (Netcov_bdd.Bdd.bdd_and m (Netcov_bdd.Bdd.bdd_not m v) d))
      vars
  done;
  let st = Netcov_bdd.Bdd.cache_stats m in
  Printf.printf
    "bdd apply cache: %d hits / %d misses over %d slots (%.1f%% hit rate)\n"
    st.Netcov_bdd.Bdd.hits st.Netcov_bdd.Bdd.misses st.Netcov_bdd.Bdd.slots
    (100.
    *. float_of_int st.Netcov_bdd.Bdd.hits
    /. float_of_int (max 1 (st.Netcov_bdd.Bdd.hits + st.Netcov_bdd.Bdd.misses)))

(* ------------------------------------------------------------------ *)
(* Multicore scaling + simulation memo cache (BENCH_parallel.json)     *)
(* ------------------------------------------------------------------ *)

let counter_value name =
  match Netcov_obs.Metrics.value Netcov_obs.Metrics.default name with
  | Some (Netcov_obs.Metrics.Counter n) -> n
  | _ -> 0

(* Process-wide allocation high-water mark. [top_heap_words] is
   monotone over the process lifetime and never reset (not even by
   [Gc.compact]), so an absolute per-row reading is only an upper
   bound: a row that runs after a bigger workload inherits its
   watermark. Rows therefore also report the *delta* — how much the
   row itself raised the watermark; 0 means the row fit in heap the
   process had already grown. *)
let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. (1024. *. 1024.)

type scaling_row = {
  sr_domains : int;
  sr_wall : float;
  sr_speedup : float;
  sr_identical : bool;
  sr_oversubscribed : bool;
  sr_stolen : int;  (** pool.tasks.stolen delta over the run *)
  sr_sleeps : int;  (** pool.sleeps delta over the run *)
  sr_peak_mb : float;  (** process-wide watermark after the run *)
  sr_peak_delta_mb : float;  (** how much this row raised it *)
}

(* One workload at each domain count, with scheduler counter deltas
   around each run. [domain_counts] must contain 1:
   speedups and report identity are both relative to the 1-domain
   run. *)
let run_scaling_rows ~cores ~domain_counts state testeds =
  let cov_of (reports, wall) =
    Json_export.coverage
      (Netcov.merge_reports ~wall_s:wall reports).Netcov.coverage
  in
  let run_at domains =
    let st0 = counter_value "pool.tasks.stolen" in
    let sl0 = counter_value "pool.sleeps" in
    let p0 = peak_heap_mb () in
    let r =
      Pool.with_pool ~domains (fun pool ->
          timed (fun () -> Netcov.analyze_suite ~pool state testeds))
    in
    let peak = peak_heap_mb () in
    ( r,
      counter_value "pool.tasks.stolen" - st0,
      counter_value "pool.sleeps" - sl0,
      peak,
      peak -. p0 )
  in
  let runs = List.map (fun d -> (d, run_at d)) domain_counts in
  let base, _, _, _, _ = List.assoc 1 runs in
  let reference = cov_of base in
  let base_wall = snd base in
  List.map
    (fun (d, (((_, wall) as r), stolen, sleeps, peak, delta)) ->
      {
        sr_domains = d;
        sr_wall = wall;
        sr_speedup = base_wall /. max 1e-9 wall;
        sr_identical = String.equal reference (cov_of r);
        sr_oversubscribed = d > cores;
        sr_stolen = stolen;
        sr_sleeps = sleeps;
        sr_peak_mb = peak;
        sr_peak_delta_mb = delta;
      })
    runs

let print_scaling_row r =
  Printf.printf
    "  domains=%d  wall %7.3fs  speedup %5.2fx  identical-report %b  \
     stolen=%d sleeps=%d  peak %.0fMB (+%.0fMB)%s\n"
    r.sr_domains r.sr_wall r.sr_speedup r.sr_identical r.sr_stolen r.sr_sleeps
    r.sr_peak_mb r.sr_peak_delta_mb
    (if r.sr_oversubscribed then "  [oversubscribed: > hardware cores]" else "")

let row_json r =
  Printf.sprintf
    "{\"domains\": %d, \"wall_s\": %.4f, \"speedup\": %.3f, \"identical\": \
     %b, \"oversubscribed\": %b, \"tasks_stolen\": %d, \"sleeps\": %d, \
     \"peak_heap_mb\": %.1f, \"peak_heap_delta_mb\": %.1f}"
    r.sr_domains r.sr_wall r.sr_speedup r.sr_identical r.sr_oversubscribed
    r.sr_stolen r.sr_sleeps r.sr_peak_mb r.sr_peak_delta_mb

(* CI gate (@bench-scaling-smoke): identical coverage across domain
   counts is always asserted; the 2-domain speedup only where the
   hardware can actually run two domains in parallel. Wall times are
   best-of-two to keep the assertion robust on noisy shared runners. *)
let scaling_smoke () =
  section "Scaling smoke: 1 vs 2 domains, identical coverage + speedup gate";
  let cores = Domain.recommended_domain_count () in
  let ft = Fattree.generate ~k:4 () in
  let state = Stable_state.compute (Registry.build ft.Fattree.devices) in
  let testeds =
    List.map
      (fun (_, r) -> r.Nettest.tested)
      (Nettest.run_suite state (Datacenter.suite ft))
  in
  let cov_of (reports, wall) =
    Json_export.coverage
      (Netcov.merge_reports ~wall_s:wall reports).Netcov.coverage
  in
  let run domains =
    Pool.with_pool ~domains (fun pool ->
        timed (fun () -> Netcov.analyze_suite ~pool state testeds))
  in
  let best_of_two domains =
    let a = run domains and b = run domains in
    if snd a <= snd b then a else b
  in
  let r1 = best_of_two 1 in
  let r2 = best_of_two 2 in
  let speedup = snd r1 /. max 1e-9 (snd r2) in
  Printf.printf
    "  fat-tree k=4 suite (%d tests), %d hardware cores: domains=1 %.3fs, \
     domains=2 %.3fs, speedup %.2fx\n"
    (List.length testeds) cores (snd r1) (snd r2) speedup;
  let failures = ref [] in
  if not (String.equal (cov_of r1) (cov_of r2)) then
    failures := "coverage differs between 1 and 2 domains" :: !failures;
  if cores >= 2 then begin
    if speedup <= 1.0 then
      failures :=
        Printf.sprintf
          "no parallel speedup on %d cores: 2 domains ran %.2fx vs 1 domain"
          cores speedup
        :: !failures
  end
  else
    Printf.printf
      "  (1 hardware core: speedup assertion skipped — 2 domains can only \
       time-slice here; identical-coverage still asserted)\n";
  if !failures <> [] then begin
    List.iter (Printf.eprintf "scaling smoke failure: %s\n") !failures;
    exit 1
  end;
  Printf.printf "scaling smoke ok\n"

let scaling_full () =
  section "Scaling: suite coverage across domain counts";
  let env = Lazy.force ft_env in
  let testeds = List.map (fun t -> t.result.Nettest.tested) env.ft_tests in
  (* Honesty: [cores] is what this host can actually run in parallel.
     Domain counts beyond it measure scheduling overhead, not scaling,
     so they are skipped by default and only run (flagged) under
     --oversubscribe. *)
  let cores = Domain.recommended_domain_count () in
  let filter_counts all =
    if !oversubscribe then all
    else 1 :: List.filter (fun d -> d > 1 && d <= cores) all
  in
  let all_counts = [ 1; 2; 4; 8 ] in
  let domain_counts = filter_counts all_counts in
  let skipped =
    List.filter (fun d -> not (List.mem d domain_counts)) all_counts
  in
  if skipped <> [] then
    Printf.printf
      "  (skipping domain counts %s: above the %d hardware cores; pass \
       --oversubscribe to measure them)\n"
      (String.concat ", " (List.map string_of_int skipped))
      cores;
  Printf.printf "fat-tree k=8 suite (%d tests), %d hardware cores:\n"
    (List.length testeds) cores;
  let rows = run_scaling_rows ~cores ~domain_counts env.ft_state testeds in
  List.iter print_scaling_row rows;
  (* Mega-workloads: deep-cone networks an order of magnitude past the
     primary workload, at a reduced domain grid (their simulations
     dominate; the analyze phase is what scales). *)
  let mega_counts = filter_counts [ 1; 2; 4 ] in
  let mega_specs =
    [
      ( "fattree-k16",
        fun () ->
          let e = make_ft_env 16 in
          ( List.length e.ft.Fattree.devices,
            e.ft_sim_s,
            e.ft_state,
            List.map (fun t -> t.result.Nettest.tested) e.ft_tests ) );
      ( "rr-wan",
        fun () ->
          let w = Wan.generate () in
          let reg = Registry.build w.Wan.devices in
          let state, sim_s = timed (fun () -> Stable_state.compute reg) in
          let testeds =
            List.map
              (fun (_, r) -> r.Nettest.tested)
              (Nettest.run_suite state (Wan_suite.suite w))
          in
          (List.length w.Wan.devices, sim_s, state, testeds) );
      ( "netgen-1000",
        fun () ->
          let net = Netcov_check.Netgen.balanced ~fanout:4 1000 in
          let devices = Netcov_check.Netgen.devices_of net in
          let state, sim_s =
            timed (fun () -> Stable_state.compute (Registry.build devices))
          in
          let testeds =
            List.map
              (Netcov_check.Netgen.tested_of state)
              (Netcov_check.Netgen.balanced_specs net)
          in
          (List.length devices, sim_s, state, testeds) );
    ]
  in
  let mega =
    List.map
      (fun (name, make) ->
        let n_devices, sim_s, state, testeds = make () in
        Printf.printf "%s (%d devices, %d tests, sim %.2fs):\n" name n_devices
          (List.length testeds) sim_s;
        let rows =
          run_scaling_rows ~cores ~domain_counts:mega_counts state testeds
        in
        List.iter print_scaling_row rows;
        (name, n_devices, List.length testeds, sim_s, rows))
      mega_specs
  in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf "  \"workload\": \"fattree-k8-suite\",\n";
  Printf.bprintf buf "  \"cores\": %d,\n" cores;
  Buffer.add_string buf
    "  \"scheduler\": \"per-domain deques, cone-granularity tasks, \
     help-first work stealing (lib/parallel/pool.ml)\",\n";
  Buffer.add_string buf
    "  \"note\": \"domain counts above hardware cores are skipped unless \
     --oversubscribe is passed; rows with oversubscribed=true measure \
     scheduling overhead, not scaling. peak_heap_mb is the process-wide \
     GC high-water mark at the end of the row — monotone over the whole \
     run, so later rows inherit earlier rows' watermark and the absolute \
     value is only an upper bound; peak_heap_delta_mb is how much the row \
     itself raised the watermark (0 = the row fit in heap the process had \
     already grown)\",\n";
  let emit_rows indent to_json rows =
    List.iteri
      (fun i r ->
        Printf.bprintf buf "%s%s%s\n" indent (to_json r)
          (if i < List.length rows - 1 then "," else ""))
      rows
  in
  Buffer.add_string buf "  \"domain_runs\": [\n";
  emit_rows "    " row_json rows;
  Buffer.add_string buf "  ],\n";
  Buffer.add_string buf "  \"mega_workloads\": [\n";
  List.iteri
    (fun i (name, n_devices, n_tests, sim_s, mrows) ->
      Printf.bprintf buf
        "    {\"name\": %S, \"devices\": %d, \"tests\": %d, \"sim_s\": \
         %.2f, \"rows\": [\n"
        name n_devices n_tests sim_s;
      emit_rows "      " row_json mrows;
      Printf.bprintf buf "    ]}%s\n"
        (if i < List.length mega - 1 then "," else ""))
    mega;
  Buffer.add_string buf "  ]\n}\n";
  let oc = open_out "BENCH_parallel.json" in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "wrote BENCH_parallel.json\n"

let scaling () = if !smoke then scaling_smoke () else scaling_full ()

(* ------------------------------------------------------------------ *)
(* Incremental re-analysis (BENCH_incr.json)                           *)
(* ------------------------------------------------------------------ *)

module Incr = Netcov_incr.Incr

(* Candidate one-line value tweaks: bump the numeric argument of one
   existing [set local-preference] / [set metric] action of one policy
   term, leaving everything else untouched. *)
let value_tweaks devs =
  let out = ref [] in
  List.iteri
    (fun di (d : Device.t) ->
      if not d.Device.is_external then
        List.iteri
          (fun pi (p : Policy_ast.policy) ->
            List.iteri
              (fun ti (t : Policy_ast.term) ->
                List.iteri
                  (fun ai a ->
                    let tweak =
                      match a with
                      | Policy_ast.Set_local_pref v ->
                          Some
                            ( Policy_ast.Set_local_pref (v + 5),
                              Printf.sprintf
                                "policy %s/%s term %s: local-pref %d -> %d"
                                d.Device.hostname p.Policy_ast.pol_name
                                t.Policy_ast.term_name v (v + 5) )
                      | Policy_ast.Set_med v ->
                          Some
                            ( Policy_ast.Set_med (v + 7),
                              Printf.sprintf
                                "policy %s/%s term %s: metric %d -> %d"
                                d.Device.hostname p.Policy_ast.pol_name
                                t.Policy_ast.term_name v (v + 7) )
                      | _ -> None
                    in
                    match tweak with
                    | None -> ()
                    | Some (a', desc) ->
                        let devs' =
                          List.mapi
                            (fun dj (dd : Device.t) ->
                              if dj <> di then dd
                              else
                                {
                                  dd with
                                  Device.policies =
                                    List.mapi
                                      (fun pj (pp : Policy_ast.policy) ->
                                        if pj <> pi then pp
                                        else
                                          {
                                            pp with
                                            Policy_ast.terms =
                                              List.mapi
                                                (fun tj (tt : Policy_ast.term) ->
                                                  if tj <> ti then tt
                                                  else
                                                    {
                                                      tt with
                                                      Policy_ast.actions =
                                                        List.mapi
                                                          (fun aj aa ->
                                                            if aj = ai then a'
                                                            else aa)
                                                          tt.Policy_ast.actions;
                                                    })
                                                pp.Policy_ast.terms;
                                          })
                                      dd.Device.policies;
                                })
                            devs
                        in
                        out := (desc, devs') :: !out)
                  t.Policy_ast.actions)
              p.Policy_ast.terms)
          d.Device.policies)
    devs;
  List.rev !out

let ribs_equal st_old st_new =
  Stable_state.all_hosts st_old = Stable_state.all_hosts st_new
  && Stable_state.edges st_old = Stable_state.edges st_new
  && List.for_all
       (fun h ->
         Rib.table_entries (Stable_state.main_rib st_old h)
         = Rib.table_entries (Stable_state.main_rib st_new h)
         && Rib.table_entries (Stable_state.bgp_rib st_old h)
            = Rib.table_entries (Stable_state.bgp_rib st_new h)
         && Rib.table_entries (Stable_state.igp_rib st_old h)
            = Rib.table_entries (Stable_state.igp_rib st_new h))
       (Stable_state.internal_hosts st_old)

(* Interface-description edit on the first internal device with an
   interface: behavior-free, but outside the fast path's element
   classes, so the update re-analyzes. Returns the edited devices and
   a description, or [None] when no internal device has an interface. *)
let description_edit devs =
  let edited = ref None in
  let devs' =
    List.map
      (fun (d : Device.t) ->
        match d.Device.interfaces with
        | i :: rest when !edited = None && not d.Device.is_external ->
            edited :=
              Some
                (Printf.sprintf "interface description on %s"
                   d.Device.hostname);
            {
              d with
              Device.interfaces =
                { i with Device.description = Some "edited" } :: rest;
            }
        | _ -> d)
      devs
  in
  Option.map (fun desc -> (devs', desc)) !edited

(* One-line live edit. Preferred: a behavior-preserving value tweak —
   the everyday case the incremental fast path targets — hunted by
   recomputing the stable state for candidate tweaks until one leaves
   every RIB unchanged. Networks without such a tweak get an impactful
   edit instead: prepend [set metric 77] to the first policy term of
   the first internal device (falling back to an interface-description
   edit), which perturbs routes and exercises the re-analysis path.
   Returns the edited devices and a description. *)
let one_line_edit state_old devs =
  let max_tries = 24 in
  let rec hunt n = function
    | (desc, devs') :: rest when n < max_tries -> (
        let st' = Stable_state.compute (Registry.build devs') in
        if ribs_equal state_old st' then Some (devs', desc)
        else hunt (n + 1) rest)
    | _ -> None
  in
  match hunt 0 (value_tweaks devs) with
  | Some r -> r
  | None -> (
      let edited = ref None in
      let devs' =
        List.map
          (fun (d : Device.t) ->
            match d.Device.policies with
            | ({ Policy_ast.terms = t :: ts; _ } as p) :: rest
              when !edited = None && not d.Device.is_external ->
                edited :=
                  Some
                    (Printf.sprintf "policy %s/%s: set metric 77"
                       d.Device.hostname p.Policy_ast.pol_name);
                let t =
                  {
                    t with
                    Policy_ast.actions =
                      Policy_ast.Set_med 77 :: t.Policy_ast.actions;
                  }
                in
                {
                  d with
                  Device.policies = { p with Policy_ast.terms = t :: ts } :: rest;
                }
            | _ -> d)
          devs
      in
      match !edited with
      | Some desc -> (devs', desc)
      | None ->
          Option.value (description_edit devs)
            ~default:(devs, "no edit applied"))

(* serve-edits' rib suite: the default route on every router, then
   every leaf subnet on every leaf (369 tests at k=6). *)
let rib_suite (ft : Fattree.t) state =
  let rib host p =
    { Netcov.dp_facts = Nettest.main_facts state host p; cp_elements = [] }
  in
  let default_route = Netcov_types.Prefix.of_string "0.0.0.0/0" in
  List.map
    (fun r -> rib r default_route)
    (ft.Fattree.leaves @ ft.Fattree.aggs @ ft.Fattree.spines)
  @ List.concat_map
      (fun leaf -> List.map (fun (_, p) -> rib leaf p) ft.Fattree.leaf_subnets)
      ft.Fattree.leaves

(* The headline measurement of lib/incr, against the fastest correct
   scratch path — one [Netcov.analyze] of the suite's union: the
   session build beside a scratch analysis of the same state, and the
   update after a one-line configuration edit beside a scratch
   analysis of the edited state. Everything is timed after one untimed
   warm-up analysis, so first-run set-up lands on neither side.
   Every row must give coverage byte-identical to the merged per-test
   [Netcov.analyze_suite] (the [incremental-scratch] oracle asserts
   the identity on random networks; here it is checked on the paper's
   workloads), and a row marked [fast] must take the fast path: its
   edit is a behavior-preserving policy tweak the witness covers. *)
let incr_bench () =
  section "Incremental re-analysis: session build and one-line edit vs scratch";
  let suite tests state =
    List.map (fun (_, r) -> r.Nettest.tested) (Nettest.run_suite state tests)
  in
  let datacenter k =
    let ft = Fattree.generate ~k () in
    (ft.Fattree.devices, suite (Datacenter.suite ft), `One_line)
  in
  let internet2 () =
    let net = Internet2.generate Internet2.paper_params in
    (net.Internet2.devices, suite (Iterations.improved_suite net), `One_line)
  in
  let ribs k =
    let ft = Fattree.generate ~k () in
    (ft.Fattree.devices, rib_suite ft, `Description)
  in
  let workloads =
    if !smoke then
      [ ("fattree-k4", (fun () -> datacenter 4), false);
        ("internet2", internet2, true) ]
    else
      [ ("internet2", internet2, true);
        ("fattree-k8", (fun () -> datacenter 8), false);
        ("fattree-k6-ribs", (fun () -> ribs 6), false) ]
  in
  let reps = if !smoke then 1 else 5 in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  let rows =
    List.map
      (fun (name, make, fast) ->
        let devices, testeds_of, edit_kind = make () in
        let state_old = Stable_state.compute (Registry.build devices) in
        let testeds_old = testeds_of state_old in
        let scratch state testeds =
          Netcov.analyze ~pool:Pool.sequential state
            (Netcov.union_tested testeds)
        in
        (* Each side is the median of [reps] runs, alternating which
           side runs first: single runs of either spread by ~20% on a
           2-vCPU VM. [f] and [g] return the seconds they measured. *)
        let paired f g =
          let runs =
            List.init reps (fun i ->
                if i mod 2 = 0 then
                  let a = f () in
                  (a, g ())
                else
                  let b = g () in
                  (f (), b))
          in
          (float_median (List.map fst runs), float_median (List.map snd runs))
        in
        let time f () = snd (timed f) in
        ignore (scratch state_old testeds_old);
        let scratch_create_s, create_s =
          paired
            (time (fun () -> scratch state_old testeds_old))
            (time (fun () -> Incr.create state_old testeds_old))
        in
        let devices', edit =
          match edit_kind with
          | `One_line -> one_line_edit state_old devices
          | `Description -> Option.get (description_edit devices)
        in
        let state_new = Stable_state.compute (Registry.build devices') in
        let testeds_new = testeds_of state_new in
        let last = ref None in
        let scratch_s, incr_s =
          paired
            (time (fun () -> scratch state_new testeds_new))
            (fun () ->
              let session, _ = Incr.create state_old testeds_old in
              let st, t =
                timed (fun () -> Incr.update session state_new testeds_new)
              in
              last := Some (session, st);
              t)
        in
        let session, st = Option.get !last in
        let merged =
          Netcov.merge_reports
            ~registry:(Stable_state.registry state_new)
            (Netcov.analyze_suite ~pool:Pool.sequential state_new testeds_new)
        in
        let identical =
          String.equal
            (Json_export.coverage (Incr.report session).Netcov.coverage)
            (Json_export.coverage merged.Netcov.coverage)
        in
        if not identical then
          fail "%s: incremental coverage differs from scratch" name;
        if fast && (st.Incr.s_reuse_ratio < 1.0 || st.Incr.s_relabeled > 0)
        then
          fail "%s: the edit missed the fast path (reuse ratio %.2f, %d \
                relabeled)"
            name st.Incr.s_reuse_ratio st.Incr.s_relabeled;
        Printf.printf "  %-15s edit: %s\n" name edit;
        Printf.printf
          "    create %7.3fs vs scratch %7.3fs (%.2fx)  update %7.3fs vs \
           scratch %7.3fs (%.2fx faster)\n"
          create_s scratch_create_s
          (create_s /. max 1e-9 scratch_create_s)
          incr_s scratch_s
          (scratch_s /. max 1e-9 incr_s);
        Printf.printf "    %s\n" (Incr.summary st);
        Printf.printf "    identical-coverage %b\n" identical;
        ( name,
          List.length testeds_new,
          edit,
          (scratch_create_s, create_s, scratch_s, incr_s),
          st,
          identical ))
      workloads
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf "  \"bench\": \"incr\",\n";
  Printf.bprintf buf "  \"smoke\": %b,\n" !smoke;
  Printf.bprintf buf
    "  \"note\": \"timed after one untimed warm-up analysis, each \
     figure the median of %d runs alternating with its scratch \
     counterpart. Scratch is one Netcov.analyze of the union of the \
     suite's tested facts, the fastest correct from-scratch analysis: \
     scratch_create_s analyzes the original state and create_s is the \
     session build over it; scratch_s analyzes the state after a \
     one-line edit and incr_s is the incremental update (fast path when \
     its witness holds, otherwise one union re-analysis over the \
     replay-validated sim cache). Coverage is byte-identical to the \
     merged per-test Netcov.analyze_suite in every row\",\n"
    reps;
  Buffer.add_string buf "  \"workloads\": [\n";
  List.iteri
    (fun i (name, tests, edit, times, st, identical) ->
      let scratch_create_s, create_s, scratch_s, incr_s = times in
      Printf.bprintf buf
        "    {\"name\": %S, \"tests\": %d, \"edit\": %S,\n\
        \     \"scratch_create_s\": %.4f, \"create_s\": %.4f, \
         \"create_vs_scratch\": %.2f,\n\
        \     \"scratch_s\": %.4f, \"incr_s\": %.4f, \"speedup_vs_scratch\": \
         %.2f,\n\
        \     \"changed\": %d, \"added\": %d, \"removed\": %d, \"reused\": \
         %d, \"relabeled\": %d,\n\
        \     \"evicted_sim\": %d, \"sim_hits\": %d, \"sim_misses\": %d,\n\
        \     \"reuse_ratio\": %.4f, \"identical_coverage\": %b}%s\n"
        name tests edit scratch_create_s create_s
        (create_s /. max 1e-9 scratch_create_s)
        scratch_s incr_s
        (scratch_s /. max 1e-9 incr_s)
        st.Incr.s_changed st.Incr.s_added st.Incr.s_removed st.Incr.s_reused
        st.Incr.s_relabeled st.Incr.s_evicted_sim st.Incr.s_sim_hits
        st.Incr.s_sim_misses st.Incr.s_reuse_ratio identical
        (if i < List.length rows - 1 then "," else ""))
    rows;
  Buffer.add_string buf "  ]\n}\n";
  let oc = open_out "BENCH_incr.json" in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "wrote BENCH_incr.json\n";
  if !failures <> [] then (
    List.iter (Printf.eprintf "incr bench failure: %s\n") !failures;
    exit 1)

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("fig6b", fig6b);
    ("fig7", fig7);
    ("fig8", fig8);
    ("fig9", fig9);
    ("fig10a", fig10a);
    ("fig10b", fig10b);
    ("fig11a", fig11a);
    ("fig11b", fig11b);
    ("table2", table2);
    ("ablation", ablation);
    ("mutation", mutation);
    ("whatif", whatif);
    ("rr", rr);
    ("scaling", scaling);
    ("incr", incr_bench);
    ("kernels", kernels);
  ]

let () =
  (* Pull --trace FILE / --metrics FILE out of the argument list; the
     rest are experiment names. Exports happen after all experiments
     finish (docs/OBSERVABILITY.md). *)
  let rec split_obs trace metrics acc = function
    | [] -> (trace, metrics, List.rev acc)
    | "--trace" :: file :: rest -> split_obs (Some file) metrics acc rest
    | "--metrics" :: file :: rest -> split_obs trace (Some file) acc rest
    | "--smoke" :: rest ->
        smoke := true;
        split_obs trace metrics acc rest
    | "--oversubscribe" :: rest ->
        oversubscribe := true;
        split_obs trace metrics acc rest
    | a :: rest -> split_obs trace metrics (a :: acc) rest
  in
  let trace, metrics, args =
    split_obs None None [] (Array.to_list Sys.argv |> List.tl)
  in
  if trace <> None then Netcov_obs.Trace.enable ();
  at_exit (fun () ->
      Option.iter
        (fun file ->
          Netcov_obs.Trace.write file;
          Printf.printf "wrote trace to %s\n" file)
        trace;
      Option.iter
        (fun file ->
          Netcov_obs.Metrics.write Netcov_obs.Metrics.default file;
          Printf.printf "wrote metrics to %s\n" file)
        metrics);
  match args with
  | [] ->
      List.iter (fun (_, f) -> f ()) experiments;
      let env = Lazy.force i2_env in
      Printf.printf "\n(internet2 control-plane simulation: %.2fs; %d peers)\n"
        env.sim_s
        (List.length env.net.Internet2.peers);
      let ft = Lazy.force ft_env in
      Printf.printf "(fat-tree k=8 simulation: %.2fs)\n" ft.ft_sim_s
  | names ->
      List.iter
        (fun name ->
          match List.assoc_opt name experiments with
          | Some f -> f ()
          | None ->
              Printf.eprintf "unknown experiment %S; available: %s\n" name
                (String.concat " " (List.map fst experiments));
              exit 1)
        names
