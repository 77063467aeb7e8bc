open Netcov_config
open Netcov_sim
open Netcov_core
module M = Netcov_obs.Metrics

let src = Logs.Src.create "netcov.incr" ~doc:"incremental coverage engine"

module Log = (val Logs.src_log src : Logs.LOG)

let m_updates =
  M.counter M.default ~help:"incremental engine passes (create or update)"
    ~unit_:"passes" "incr.updates"

let m_reused =
  M.counter M.default
    ~help:"tested roots whose label results were reused across an update"
    ~unit_:"cones" "incr.reused_cones"

let m_evicted_sim =
  M.counter M.default ~help:"sim-cache entries evicted on update"
    ~unit_:"entries" "incr.evicted.sim"

let m_reuse_ratio =
  M.gauge M.default
    ~help:"reused / (reused + relabeled) tested roots of the last pass"
    ~unit_:"ratio" "incr.reuse_ratio"

(* What one test's analysis leaves in the session: its report, its
   label sets before the tested control-plane elements are forced
   strong (the fast path rebuilds the coverage over the new registry
   from them), and its number of distinct tested roots. *)
type test_state = {
  ts_report : Netcov.report;
  ts_strong : Element.Id_set.t;
  ts_weak : Element.Id_set.t;
  ts_roots : int;
}

type session = {
  mutable st : Stable_state.t;
  mutable reg : Registry.t;
  mutable tests : test_state list;
  mutable testeds : Netcov.tested list;
  cache : Rules.sim_cache;
  mutable rep : Netcov.report;
  mutable diff : Registry_diff.t option;
}

type stats = {
  s_changed : int;
  s_added : int;
  s_removed : int;
  s_reused : int;
  s_relabeled : int;
  s_evicted_sim : int;
  s_sim_hits : int;
  s_sim_misses : int;
  s_reuse_ratio : float;
  s_seconds : float;
}

(* One test against one state: the materialize -> label sequence of
   [Netcov.analyze], over the session's sim cache. Labeling runs in
   the calling domain's persistent BDD arena, which self-trims at its
   watermark, so a warm session (netcov serve) holds a bounded BDD
   footprint (lib/core/label.mli). *)
let analyze_test cache state reg ~dead (tested : Netcov.tested) =
  let t0 = Timing.now () in
  let ctx = Rules.make_ctx ~cache state in
  let g, ids, ms = Materialize.run ctx ~tested:tested.Netcov.dp_facts in
  let l = Label.run g ~tested:ids in
  let coverage =
    Coverage.with_strong
      (Coverage.of_sets reg ~strong:l.Label.strong ~weak:l.Label.weak)
      tested.Netcov.cp_elements
  in
  let total_s = Timing.now () -. t0 in
  let timing =
    {
      Netcov.total_s;
      cpu_total_s = total_s;
      materialize_s = ms.Materialize.rule_seconds;
      sim_s = ms.Materialize.sim_seconds;
      label_s = l.Label.seconds;
      sim_count = ms.Materialize.sim_count;
      sim_cache_hits = ms.Materialize.sim_cache_hits;
      sim_cache_misses = ms.Materialize.sim_cache_misses;
      ifg_nodes = ms.Materialize.nodes;
      ifg_edges = ms.Materialize.edges;
      bdd_vars = l.Label.vars;
    }
  in
  {
    ts_report = { Netcov.coverage; timing; dead };
    ts_strong = l.Label.strong;
    ts_weak = l.Label.weak;
    ts_roots = List.length (List.sort_uniq Int.compare ids);
  }

let merged ~t0 reg tests =
  Netcov.merge_reports ~wall_s:(Timing.now () -. t0) ~registry:reg
    (List.map (fun ts -> ts.ts_report) tests)

(* Counts of one pass: [results] pairs each test's state with whether
   it was reused. *)
let stats_of ~t0 ~d ~evicted_sim results =
  let reused = ref 0 and relabeled = ref 0 in
  let hits = ref 0 and misses = ref 0 in
  List.iter
    (fun (ts, was_reused) ->
      if was_reused then reused := !reused + ts.ts_roots
      else begin
        let tm = ts.ts_report.Netcov.timing in
        relabeled := !relabeled + ts.ts_roots;
        hits := !hits + tm.Netcov.sim_cache_hits;
        misses := !misses + tm.Netcov.sim_cache_misses
      end)
    results;
  let reused = !reused and relabeled = !relabeled in
  let reuse_ratio =
    if reused + relabeled = 0 then 0.
    else float_of_int reused /. float_of_int (reused + relabeled)
  in
  M.inc m_updates 1;
  M.inc m_reused reused;
  M.inc m_evicted_sim evicted_sim;
  M.set m_reuse_ratio reuse_ratio;
  let count f = match d with None -> 0 | Some d -> List.length (f d) in
  {
    s_changed = count (fun d -> d.Registry_diff.changed);
    s_added = count (fun d -> d.Registry_diff.added);
    s_removed = count (fun d -> d.Registry_diff.removed);
    s_reused = reused;
    s_relabeled = relabeled;
    s_evicted_sim = evicted_sim;
    s_sim_hits = !hits;
    s_sim_misses = !misses;
    s_reuse_ratio = reuse_ratio;
    s_seconds = Timing.now () -. t0;
  }

let create state testeds =
  let t0 = Timing.now () in
  let cache = Rules.create_sim_cache () in
  let reg = Stable_state.registry state in
  let dead = Deadcode.analyze reg in
  let tests = List.map (analyze_test cache state reg ~dead) testeds in
  let s =
    {
      st = state;
      reg;
      tests;
      testeds;
      cache;
      rep = merged ~t0 reg tests;
      diff = None;
    }
  in
  let results = List.map (fun ts -> (ts, false)) tests in
  (s, stats_of ~t0 ~d:None ~evicted_sim:0 results)

(* ------------------------------------------------------------------ *)
(* The whole-update fast path.

   A configuration edit that provably changes no behavior needs no
   re-analysis at all. The witness has three independent legs:

   - every changed element belongs to a class that influences the
     analysis only through policy-chain evaluation (clauses and the
     match lists they consult) — no interface, session, origination,
     static-route or ACL semantics can have moved;
   - replaying every cached chain evaluation of the changed devices
     against their new configuration reproduces every result exactly
     (Rules.sim_cache_revalidate_hosts dropped nothing); and
   - the new stable state's RIBs, hosts and sessions are equal to the
     old one's, so the same evaluations feed the same fixed point.

   Under that witness a test whose tested facts are unchanged would
   re-materialize its exact old graph and relabel it to its exact old
   result, so its stored labels are reused over the new registry.
   Without the witness every test is re-analyzed from scratch against
   the new state; only the replay-validated sim cache carries over. *)

let reusable_etype = function
  | Element.Route_policy_clause | Element.Prefix_list | Element.Community_list
  | Element.As_path_list ->
      true
  | _ -> false

let state_unchanged st_old st_new =
  Stable_state.all_hosts st_old = Stable_state.all_hosts st_new
  && Stable_state.internal_hosts st_old = Stable_state.internal_hosts st_new
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

let id_map_is_identity m =
  try
    Array.iteri (fun i v -> if v <> i then raise Exit) m;
    true
  with Exit -> false

let update s state testeds =
  let t0 = Timing.now () in
  let reg = Stable_state.registry state in
  let d = Registry_diff.diff ~old:s.reg reg in
  let changed_devs = Hashtbl.create 16 in
  List.iter
    (fun h -> Hashtbl.replace changed_devs h ())
    d.Registry_diff.devices_changed;
  (* Invalidate the sim-memo cache precisely: replay each cached
     evaluation of a changed device and drop only the ones whose result
     (or canonical key space) actually moved. *)
  let _checked, dropped =
    Rules.sim_cache_revalidate_hosts s.cache state (Hashtbl.mem changed_devs)
  in
  let fast =
    d.Registry_diff.added = []
    && d.Registry_diff.removed = []
    && id_map_is_identity d.Registry_diff.id_map
    && List.for_all
         (fun (e : Registry_diff.entry) ->
           reusable_etype e.Registry_diff.e_key.Element.etype)
         d.Registry_diff.changed
    && dropped = 0
    && state_unchanged s.st state
  in
  let olds = Array.of_list s.tests in
  let old_testeds = Array.of_list s.testeds in
  let dead = Deadcode.analyze reg in
  let results =
    List.mapi
      (fun i (tested : Netcov.tested) ->
        if fast && i < Array.length olds && old_testeds.(i) = tested then
          let ts = olds.(i) in
          let coverage =
            Coverage.with_strong
              (Coverage.of_sets reg ~strong:ts.ts_strong ~weak:ts.ts_weak)
              tested.Netcov.cp_elements
          in
          let report = { ts.ts_report with Netcov.coverage; dead } in
          ({ ts with ts_report = report }, true)
        else (analyze_test s.cache state reg ~dead tested, false))
      testeds
  in
  let tests = List.map fst results in
  s.st <- state;
  s.reg <- reg;
  s.tests <- tests;
  s.testeds <- testeds;
  s.rep <- merged ~t0 reg tests;
  s.diff <- Some d;
  let stats = stats_of ~t0 ~d:(Some d) ~evicted_sim:dropped results in
  Log.info (fun m ->
      m
        "update%s: %d changed / %d added / %d removed elements; %d tested \
         roots reused, %d relabeled, reuse ratio %.2f"
        (if fast then " (fast path)" else "")
        stats.s_changed stats.s_added stats.s_removed stats.s_reused
        stats.s_relabeled stats.s_reuse_ratio);
  stats

let report s = s.rep
let registry s = s.reg
let state s = s.st
let testeds s = s.testeds
let last_diff s = s.diff

let summary st =
  Printf.sprintf
    "elements: %d changed, %d added, %d removed\n\
     tested roots: %d reused, %d relabeled, reuse ratio %.2f\n\
     evicted: %d sim entries; sims: %d hits / %d misses\n\
     wall: %.3fs\n"
    st.s_changed st.s_added st.s_removed st.s_reused st.s_relabeled
    st.s_reuse_ratio st.s_evicted_sim st.s_sim_hits st.s_sim_misses
    st.s_seconds

(* ------------------------------------------------------------------ *)
(* Falsifiability: mutation coverage as ground truth for the session's
   IFG coverage (the mutation-falsifiability differential oracle). *)

type falsifiability = {
  fz_strong : Element.id list;
  fz_uncovered : Element.id list;
  fz_weak : Element.id list;
  fz_missed : Element.id list;
  fz_divergent : Element.id list;
  fz_masked : Element.id list;
  fz_rerouted : Element.id list;
  fz_weak_killed : Element.id list;
  fz_mutation : Mutation.result;
}

let rec take n = function
  | [] -> []
  | _ when n <= 0 -> []
  | x :: rest -> x :: take (n - 1) rest

let falsifiability ?operators ?mode ?pool ?max_elements ?diags s =
  let reg = s.reg in
  let cov = s.rep.Netcov.coverage in
  let facts = List.concat_map (fun t -> t.Netcov.dp_facts) s.testeds in
  (* Elements strong only by decree — control-plane test targets
     ([cp_elements], Coverage.with_strong) — are outside the
     falsifiability claim: their coverage does not assert any
     data-plane effect, so no mutant is required to kill them. *)
  let decreed = Hashtbl.create 16 in
  List.iter
    (fun (t : Netcov.tested) ->
      List.iter (fun id -> Hashtbl.replace decreed id ()) t.Netcov.cp_elements)
    s.testeds;
  let strong = ref [] and weak = ref [] and uncov = ref [] in
  Registry.iter_elements reg (fun e ->
      if not (Hashtbl.mem decreed e.Element.id) then
        match Coverage.element_status cov e.Element.id with
        | Coverage.Strong -> strong := e.Element.id :: !strong
        | Coverage.Weak -> weak := e.Element.id :: !weak
        | Coverage.Not_covered -> uncov := e.Element.id :: !uncov);
  let strong = List.rev !strong
  and weak = List.rev !weak
  and uncov = List.rev !uncov in
  (* Budgeted sampling, deterministic in element-id order: every strong
     element first (they carry the oracle's soundness direction), then
     uncovered, then weak with what remains. *)
  let strong_s, uncov_s, weak_s =
    match max_elements with
    | None -> (strong, uncov, weak)
    | Some budget ->
        let strong_s = take budget strong in
        let budget = budget - List.length strong_s in
        let uncov_s = take budget uncov in
        let budget = budget - List.length uncov_s in
        (strong_s, uncov_s, take budget weak)
  in
  let elements = strong_s @ uncov_s @ weak_s in
  let fz_mutation =
    Mutation.run reg
      ~oracle:(Mutation.facts_oracle facts)
      ~elements ?operators ?mode ?pool ?diags ()
  in
  let killed id = Element.Id_set.mem id fz_mutation.Mutation.killed in
  let survived id = Element.Id_set.mem id fz_mutation.Mutation.survived in
  let etype id = (Registry.element reg id).Element.ekey.Element.etype in
  (* Strong-but-survived splits by kind: masking-prone elements (policy
     clauses, match lists, ACLs) can be re-admitted by chain
     fall-through, and reroute-prone ones (interfaces) self-heal via
     IGP rerouting on redundant topologies — both are documented
     divergences, not violations. *)
  let missed_all = List.filter survived strong_s in
  let fz_masked, rest =
    List.partition (fun id -> Mutation.masking_prone (etype id)) missed_all
  in
  let fz_rerouted, fz_missed =
    List.partition (fun id -> Mutation.reroute_prone (etype id)) rest
  in
  let fz_divergent =
    List.filter
      (fun id -> killed id && not (Mutation.competitor_prone (etype id)))
      uncov_s
  in
  let fz_weak_killed = List.filter killed weak_s in
  {
    fz_strong = strong_s;
    fz_uncovered = uncov_s;
    fz_weak = weak_s;
    fz_missed;
    fz_divergent;
    fz_masked;
    fz_rerouted;
    fz_weak_killed;
    fz_mutation;
  }

let falsifiability_summary reg fz =
  let name id =
    let e = Registry.element reg id in
    Printf.sprintf "%s:%s (%s)" e.Element.device e.Element.ekey.Element.name
      (Element.etype_to_string e.Element.ekey.Element.etype)
  in
  let sample ids = String.concat ", " (List.map name (take 5 ids)) in
  Printf.sprintf
    "falsifiability: %d strong / %d uncovered / %d weak sampled, %d mutants \
     in %.3fs\n\
     missed (strong but survived, non-masking): %d%s\n\
     divergent (uncovered but killed, non-competitor): %d%s\n\
     masked (strong but survived, fall-through class): %d\n\
     rerouted (strong but survived, IGP self-healing class): %d\n\
     weak killed: %d\n"
    (List.length fz.fz_strong)
    (List.length fz.fz_uncovered)
    (List.length fz.fz_weak) fz.fz_mutation.Mutation.mutants_run
    fz.fz_mutation.Mutation.seconds
    (List.length fz.fz_missed)
    (if fz.fz_missed = [] then "" else " — " ^ sample fz.fz_missed)
    (List.length fz.fz_divergent)
    (if fz.fz_divergent = [] then "" else " — " ^ sample fz.fz_divergent)
    (List.length fz.fz_masked)
    (List.length fz.fz_rerouted)
    (List.length fz.fz_weak_killed)
