open Netcov_config
open Netcov_sim
module Pool = Netcov_parallel.Pool

type tested = { dp_facts : Fact.t list; cp_elements : Element.id list }

let no_tests = { dp_facts = []; cp_elements = [] }

let union_tested testeds =
  (* One identity table for the whole suite (structural identity,
     equivalent to the historical key-string dedup — see Fact.equal):
     each fact keeps its first occurrence, in suite order. *)
  let seen = Fact.Tbl.create 256 in
  let fresh f =
    if Fact.Tbl.mem seen f then false
    else begin
      Fact.Tbl.add seen f ();
      true
    end
  in
  {
    dp_facts = List.concat_map (fun t -> List.filter fresh t.dp_facts) testeds;
    cp_elements =
      List.sort_uniq Int.compare
        (List.concat_map (fun t -> t.cp_elements) testeds);
  }

type timing = {
  total_s : float;
  cpu_total_s : float;
  materialize_s : float;
  sim_s : float;
  label_s : float;
  sim_count : int;
  sim_cache_hits : int;
  sim_cache_misses : int;
  ifg_nodes : int;
  ifg_edges : int;
  bdd_vars : int;
}

type report = {
  coverage : Coverage.t;
  timing : timing;
  dead : Deadcode.report;
}

module M = Netcov_obs.Metrics
module T = Netcov_obs.Trace

let src = Logs.Src.create "netcov.analyze" ~doc:"coverage analysis"

module Log = (val Logs.src_log src : Logs.LOG)

(* Whole-analysis metrics; stage metrics live with their stages. *)
let m_runs = M.counter M.default ~help:"coverage analyses" ~unit_:"runs" "analyze.runs"

let m_seconds =
  M.histogram M.default ~help:"end-to-end wall time of one analysis"
    ~unit_:"seconds" ~buckets:M.seconds_buckets "analyze.seconds"

let m_errors =
  M.counter M.default
    ~help:"per-test analysis failures isolated and excluded during suite runs"
    ~unit_:"failures" "analyze.errors"

let analyze ?pool ?diags state tested =
  T.with_span "analyze"
    ~args:
      [
        ("dp_facts", T.I (List.length tested.dp_facts));
        ("cp_elements", T.I (List.length tested.cp_elements));
      ]
  @@ fun () ->
  let pool = Option.value pool ~default:Pool.sequential in
  let t0 = Timing.now () in
  let reg = Stable_state.registry state in
  let ctx = Rules.make_ctx ?diags state in
  let g, tested_ids, mstats = Materialize.run ctx ~tested:tested.dp_facts in
  let label = Label.run ~pool g ~tested:tested_ids in
  let coverage =
    T.with_span "aggregate" @@ fun () ->
    Coverage.of_sets reg ~strong:label.Label.strong ~weak:label.Label.weak
    |> fun cov -> Coverage.with_strong cov tested.cp_elements
  in
  let dead = T.with_span "deadcode" @@ fun () -> Deadcode.analyze reg in
  let total_s = Timing.now () -. t0 in
  M.inc m_runs 1;
  M.observe m_seconds total_s;
  {
    coverage;
    timing =
      {
        total_s;
        cpu_total_s = total_s;
        materialize_s = mstats.Materialize.rule_seconds;
        sim_s = mstats.Materialize.sim_seconds;
        label_s = label.Label.seconds;
        sim_count = mstats.Materialize.sim_count;
        sim_cache_hits = mstats.Materialize.sim_cache_hits;
        sim_cache_misses = mstats.Materialize.sim_cache_misses;
        ifg_nodes = mstats.Materialize.nodes;
        ifg_edges = mstats.Materialize.edges;
        bdd_vars = label.Label.vars;
      };
    dead;
  }

let merge_timing a b =
  {
    (* Per-test analyses may have run concurrently, so their wall times
       do not add up: summing them over-reports elapsed time by up to
       the domain count. The max of the two is a lower bound on the
       suite's wall time; callers that measured the real elapsed time
       pass it to [merge_reports ~wall_s]. CPU time does sum. *)
    total_s = Float.max a.total_s b.total_s;
    cpu_total_s = a.cpu_total_s +. b.cpu_total_s;
    materialize_s = a.materialize_s +. b.materialize_s;
    sim_s = a.sim_s +. b.sim_s;
    label_s = a.label_s +. b.label_s;
    sim_count = a.sim_count + b.sim_count;
    sim_cache_hits = a.sim_cache_hits + b.sim_cache_hits;
    sim_cache_misses = a.sim_cache_misses + b.sim_cache_misses;
    ifg_nodes = a.ifg_nodes + b.ifg_nodes;
    ifg_edges = a.ifg_edges + b.ifg_edges;
    bdd_vars = max a.bdd_vars b.bdd_vars;
  }

let zero_timing =
  {
    total_s = 0.;
    cpu_total_s = 0.;
    materialize_s = 0.;
    sim_s = 0.;
    label_s = 0.;
    sim_count = 0;
    sim_cache_hits = 0;
    sim_cache_misses = 0;
    ifg_nodes = 0;
    ifg_edges = 0;
    bdd_vars = 0;
  }

let empty_report reg =
  { coverage = Coverage.empty reg; timing = zero_timing; dead = Deadcode.analyze reg }

let merge_reports ?wall_s ?registry = function
  | [] -> (
      match registry with
      | None -> invalid_arg "Netcov.merge_reports: empty list"
      | Some reg ->
          (* An all-failed suite under --keep-going still merges into a
             valid zero-coverage report. *)
          let r = empty_report reg in
          let total_s = Option.value wall_s ~default:0. in
          { r with timing = { r.timing with total_s } })
  | r :: rest ->
      (* The merged [dead] field is taken from the first report, which
         is only sound when every report was produced against the same
         element registry — the dead-code analysis depends on nothing
         else. Reports from different registries have incomparable
         element ids, so merging their coverage would be silently
         wrong too; reject the call instead. *)
      let reg = Coverage.registry r.coverage in
      Option.iter
        (fun expected ->
          if expected != reg then
            invalid_arg
              "Netcov.merge_reports: ~registry disagrees with the reports'")
        registry;
      List.iter
        (fun r' ->
          if Coverage.registry r'.coverage != reg then
            invalid_arg
              "Netcov.merge_reports: reports built from different registries")
        rest;
      let merged =
        List.fold_left
          (fun acc r ->
            {
              coverage = Coverage.merge acc.coverage r.coverage;
              timing = merge_timing acc.timing r.timing;
              dead = acc.dead;
            })
          r rest
      in
      match wall_s with
      | None -> merged
      | Some w -> { merged with timing = { merged.timing with total_s = w } }

let analyze_suite ?pool state testeds =
  let run pool =
    (* The pool is also handed to each per-test labeling pass: nested
       fan-out is safe (a mapping caller executes from its own deque and
       steals from the others, it never blocks on its batch), and
       cone-granularity tasks keep every domain busy even when the
       suite has fewer tests than the pool has domains. *)
    Pool.map pool (fun tested -> analyze ~pool state tested) testeds
  in
  match pool with Some p -> run p | None -> Pool.with_pool run

type test_failure = {
  tf_index : int;
  tf_label : string;
  tf_error : string;
  tf_backtrace : string;
}

type suite_outcome = { ok : report list; failures : test_failure list }

let analyze_suite_isolated ?pool ?diags ?labels state testeds =
  let label_of i =
    match labels with
    | Some ls -> ( match List.nth_opt ls i with Some l -> l | None -> Printf.sprintf "test-%d" i)
    | None -> Printf.sprintf "test-%d" i
  in
  let run pool =
    Pool.map pool
      (fun (i, tested) ->
        match analyze ~pool ?diags state tested with
        | r -> Ok r
        | exception ((Stack_overflow | Out_of_memory) as e) -> raise e
        | exception e ->
            let bt = Printexc.get_backtrace () in
            Error
              {
                tf_index = i;
                tf_label = label_of i;
                tf_error = Printexc.to_string e;
                tf_backtrace = bt;
              })
      (List.mapi (fun i t -> (i, t)) testeds)
  in
  let results = match pool with Some p -> run p | None -> Pool.with_pool run in
  let ok = List.filter_map (function Ok r -> Some r | Error _ -> None) results in
  let failures =
    List.filter_map (function Error f -> Some f | Ok _ -> None) results
  in
  List.iter
    (fun f ->
      M.inc m_errors 1;
      Log.warn (fun m -> m "%s failed and was excluded: %s" f.tf_label f.tf_error);
      Option.iter
        (fun sink ->
          sink
            (Diag.error Diag.Test_failure
               (Printf.sprintf "%s failed and was excluded: %s" f.tf_label
                  f.tf_error)))
        diags)
    failures;
  { ok; failures }

let dead_line_pct report =
  let reg = Coverage.registry report.coverage in
  let considered = Registry.considered_lines reg in
  if considered = 0 then 0.
  else
    100.
    *. float_of_int (Deadcode.dead_lines reg report.dead)
    /. float_of_int considered
