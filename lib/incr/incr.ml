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

let m_create_seconds =
  M.histogram M.default ~help:"wall time of one Incr.create" ~unit_:"seconds"
    ~buckets:M.seconds_buckets "incr.create.seconds"

let m_update_seconds =
  M.histogram M.default ~help:"wall time of one Incr.update" ~unit_:"seconds"
    ~buckets:M.seconds_buckets "incr.update.seconds"

(* What one pass leaves behind: the label sets of the union of its
   tests, before the tested control-plane elements are forced strong
   (the fast path rebuilds the coverage over the new registry from
   them), and the union's number of distinct tested roots. *)
type snapshot = {
  st : Stable_state.t;
  reg : Registry.t;
  testeds : Netcov.tested list;
  strong : Element.Id_set.t;
  weak : Element.Id_set.t;
  roots : int;
  rep : Netcov.report;
  diff : Registry_diff.t option;
}

type session = { cache : Rules.sim_cache; mutable cur : snapshot }

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

(* One union of tests against one state: the materialize -> label
   sequence of [Netcov.analyze], over the session's sim cache, and the
   union's distinct tested roots (its deduplicated facts). Labeling
   runs in the calling domain's persistent BDD arena, which self-trims
   at its watermark, so a warm session (netcov serve) holds a bounded
   BDD footprint (lib/core/label.mli). *)
let analyze cache state (u : Netcov.tested) =
  let ctx = Rules.make_ctx ~cache state in
  let g, ids, ms = Materialize.run ctx ~tested:u.Netcov.dp_facts in
  (Label.run g ~tested:ids, ms, List.length u.Netcov.dp_facts)

(* The pass's wall time beside the volumes of the union analysis it
   ran; zero volumes when it ran none (fast path, unchanged tests). *)
let pass_timing ~t0 analyzed =
  let total_s = Timing.now () -. t0 in
  let of_ms z f = Option.fold ~none:z ~some:(fun (_, ms, _) -> f ms) analyzed in
  let of_l z f = Option.fold ~none:z ~some:(fun (l, _, _) -> f l) analyzed in
  {
    Netcov.total_s;
    cpu_total_s = total_s;
    materialize_s = of_ms 0. (fun ms -> ms.Materialize.rule_seconds);
    sim_s = of_ms 0. (fun ms -> ms.Materialize.sim_seconds);
    label_s = of_l 0. (fun l -> l.Label.seconds);
    sim_count = of_ms 0 (fun ms -> ms.Materialize.sim_count);
    sim_cache_hits = of_ms 0 (fun ms -> ms.Materialize.sim_cache_hits);
    sim_cache_misses = of_ms 0 (fun ms -> ms.Materialize.sim_cache_misses);
    ifg_nodes = of_ms 0 (fun ms -> ms.Materialize.nodes);
    ifg_edges = of_ms 0 (fun ms -> ms.Materialize.edges);
    bdd_vars = of_l 0 (fun l -> l.Label.vars);
  }

(* Counts of one pass: [reused] tested roots kept their labels and
   [relabeled] were analyzed, with the sim-cache counts of [timing]. *)
let stats_of ~t0 ~d ~evicted_sim ~reused ~relabeled (timing : Netcov.timing) =
  let reuse_ratio =
    if reused + relabeled = 0 then 0.
    else float_of_int reused /. float_of_int (reused + relabeled)
  in
  let count f = match d with None -> 0 | Some d -> List.length (f d) in
  let s_seconds = Timing.now () -. t0 in
  M.inc m_updates 1;
  M.inc m_reused reused;
  M.inc m_evicted_sim evicted_sim;
  M.set m_reuse_ratio reuse_ratio;
  M.observe
    (if Option.is_none d then m_create_seconds else m_update_seconds)
    s_seconds;
  {
    s_changed = count (fun d -> d.Registry_diff.changed);
    s_added = count (fun d -> d.Registry_diff.added);
    s_removed = count (fun d -> d.Registry_diff.removed);
    s_reused = reused;
    s_relabeled = relabeled;
    s_evicted_sim = evicted_sim;
    s_sim_hits = timing.Netcov.sim_cache_hits;
    s_sim_misses = timing.Netcov.sim_cache_misses;
    s_reuse_ratio = reuse_ratio;
    s_seconds;
  }

(* One pass to [state] and [testeds]. [kept] is [Some (old, extra)]
   when [old]'s labels stay valid (the fast-path witness below holds)
   and its tests are a prefix of [testeds]: only the appended [extra]
   tests are analyzed, as their own union, and their label sets merged
   in (strong = S1 ∪ S2, weak = (W1 ∪ W2) \ strong; a cone labels the
   same in any graph that contains it, lib/core/label.mli). [None]
   analyzes the whole union. *)
let pass cache ~t0 ~d ~evicted_sim state testeds kept =
  let u = Netcov.union_tested testeds in
  let (strong, weak), reused, analyzed =
    match kept with
    | Some (old, []) -> ((old.strong, old.weak), old.roots, None)
    | Some (old, extra) ->
        let ue = Netcov.union_tested extra in
        let ((l, _, _) as a) = analyze cache state ue in
        let strong = Element.Id_set.union old.strong l.Label.strong in
        let weak =
          Element.Id_set.(diff (union old.weak l.Label.weak) strong)
        in
        ((strong, weak), old.roots, Some a)
    | None ->
        let ((l, _, _) as a) = analyze cache state u in
        ((l.Label.strong, l.Label.weak), 0, Some a)
  in
  let reg = Stable_state.registry state in
  let coverage =
    Coverage.with_strong
      (Coverage.of_sets reg ~strong ~weak)
      u.Netcov.cp_elements
  in
  let timing = pass_timing ~t0 analyzed in
  let rep = { Netcov.coverage; timing; dead = Deadcode.analyze reg } in
  let relabeled = Option.fold ~none:0 ~some:(fun (_, _, n) -> n) analyzed in
  let roots = List.length u.Netcov.dp_facts in
  ( { st = state; reg; testeds; strong; weak; roots; rep; diff = d },
    stats_of ~t0 ~d ~evicted_sim ~reused ~relabeled timing )

let create state testeds =
  let t0 = Timing.now () in
  let cache = Rules.create_sim_cache () in
  let cur, stats = pass cache ~t0 ~d:None ~evicted_sim:0 state testeds None in
  ({ cache; cur }, stats)

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

   Under that witness the stored union would re-materialize its exact
   old graph and relabel it to its exact old result, so when the old
   tests are a prefix of the new list their labels are reused over the
   new registry. Anything else re-analyzes the whole union against the
   new state; only the replay-validated sim cache carries over. *)

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

(* [Some extra] when [old] is a prefix of [testeds], [extra] the
   tests after it. *)
let rec appended old testeds =
  match (old, testeds) with
  | [], extra -> Some extra
  | o :: old, t :: testeds when o = t -> appended old testeds
  | _ -> None

let update s state testeds =
  let t0 = Timing.now () in
  let old = s.cur in
  let reg = Stable_state.registry state in
  let d = Registry_diff.diff ~old:old.reg reg in
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
    && state_unchanged old.st state
  in
  let kept =
    if not fast then None
    else Option.map (fun extra -> (old, extra)) (appended old.testeds testeds)
  in
  let cur, stats =
    pass s.cache ~t0 ~d:(Some d) ~evicted_sim:dropped state testeds kept
  in
  s.cur <- cur;
  Log.info (fun m ->
      m
        "update%s: %d changed / %d added / %d removed elements; %d tested \
         roots reused, %d relabeled, reuse ratio %.2f"
        (if Option.is_some kept then " (fast path)" else "")
        stats.s_changed stats.s_added stats.s_removed stats.s_reused
        stats.s_relabeled stats.s_reuse_ratio);
  stats

let report s = s.cur.rep
let registry s = s.cur.reg
let state s = s.cur.st
let testeds s = s.cur.testeds
let last_diff s = s.cur.diff

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
  let reg = s.cur.reg in
  let cov = s.cur.rep.Netcov.coverage in
  let u = Netcov.union_tested s.cur.testeds in
  (* Elements strong only by decree — control-plane test targets
     ([cp_elements], Coverage.with_strong) — are outside the
     falsifiability claim: their coverage does not assert any
     data-plane effect, so no mutant is required to kill them. *)
  let decreed = Hashtbl.create 16 in
  List.iter (fun id -> Hashtbl.replace decreed id ()) u.Netcov.cp_elements;
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
      ~oracle:(Mutation.facts_oracle u.Netcov.dp_facts)
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
