open Netcov_sim
open Netcov_core
open Netcov_nettest
open Netcov_workloads

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let i2 = lazy (Internet2.generate Internet2.test_params)

let i2_state =
  lazy
    (Stable_state.compute
       (Netcov_config.Registry.build (Lazy.force i2).Internet2.devices))

let i2_results =
  lazy
    (let net = Lazy.force i2 in
     Nettest.run_suite (Lazy.force i2_state) (Iterations.improved_suite net))

let result name =
  let results = Lazy.force i2_results in
  List.find (fun ((t : Nettest.t), _) -> t.name = name) results

let pct_of state tested =
  let report = Netcov.analyze state tested in
  Coverage.pct (Coverage.line_stats report.Netcov.coverage)

let test_all_pass () =
  List.iter
    (fun ((t : Nettest.t), (r : Nettest.result)) ->
      check_bool (t.name ^ " passes") true (Nettest.passed r.outcome);
      check_bool (t.name ^ " ran checks") true (r.outcome.checks > 0))
    (Lazy.force i2_results)

let test_kinds () =
  let kind name = (fst (result name)).Nettest.kind in
  check_bool "bte control" true (kind "BlockToExternal" = Nettest.Control_plane);
  check_bool "martian control" true (kind "NoMartian" = Nettest.Control_plane);
  check_bool "rp data" true (kind "RoutePreference" = Nettest.Data_plane);
  check_bool "ir data" true (kind "InterfaceReachability" = Nettest.Data_plane)

let test_control_plane_tests_have_no_dp_facts () =
  List.iter
    (fun name ->
      let _, (r : Nettest.result) = result name in
      check_int (name ^ " dp facts") 0 (List.length r.tested.Netcov.dp_facts);
      check_bool (name ^ " cp elements") true (r.tested.Netcov.cp_elements <> []))
    [ "BlockToExternal"; "NoMartian"; "SanityIn"; "PeerSpecificRoute" ]

let test_route_preference_dominates_bagpipe () =
  let state = Lazy.force i2_state in
  let p name = pct_of state (snd (result name)).Nettest.tested in
  let bte = p "BlockToExternal" and nm = p "NoMartian" and rp = p "RoutePreference" in
  check_bool "bte small" true (bte < 5.);
  check_bool "nm small" true (nm < 8.);
  check_bool "rp dominates" true (rp > bte +. nm);
  check_bool "rp well below half" true (rp < 50.)

let test_suite_union_monotone () =
  let state = Lazy.force i2_state in
  let results = Lazy.force i2_results in
  let bagpipe = List.filteri (fun i _ -> i < 3) results in
  let bag_pct = pct_of state (Nettest.suite_tested bagpipe) in
  let all_pct = pct_of state (Nettest.suite_tested results) in
  let max_individual =
    List.fold_left
      (fun acc (_, (r : Nettest.result)) -> max acc (pct_of state r.tested))
      0. bagpipe
  in
  check_bool "suite >= best individual" true (bag_pct >= max_individual -. 0.01);
  check_bool "iterations improve coverage" true (all_pct > bag_pct +. 5.)

let test_dead_code_band () =
  let state = Lazy.force i2_state in
  let report = Netcov.analyze state Netcov.no_tests in
  let dead = Netcov.dead_line_pct report in
  check_bool "dead in band" true (dead > 10. && dead < 45.)

let test_sanityin_covers_all_terms () =
  let state = Lazy.force i2_state in
  let reg = Stable_state.registry state in
  let _, (r : Nettest.result) = result "SanityIn" in
  let _, (nm : Nettest.result) = result "NoMartian" in
  let combined = Netcov.union_tested [ r.tested; nm.tested ] in
  let covered_terms =
    List.filter_map
      (fun id ->
        let e = Netcov_config.Registry.element reg id in
        if Netcov_config.Element.etype_of e = Netcov_config.Element.Route_policy_clause
        then Some (Netcov_config.Element.name_of e)
        else None)
      combined.Netcov.cp_elements
    |> List.sort_uniq String.compare
  in
  List.iter
    (fun term ->
      check_bool (term ^ " covered") true
        (List.exists (fun n -> n = "SANITY-IN/" ^ term) covered_terms))
    [ "block-private-asn"; "block-nlr-transit"; "block-martians"; "block-default"; "block-internal" ]

(* ---------------- datacenter ---------------- *)

let ft = lazy (Fattree.generate ~k:4 ())

let ft_state =
  lazy
    (Stable_state.compute
       (Netcov_config.Registry.build (Lazy.force ft).Fattree.devices))

let ft_results =
  lazy (Nettest.run_suite (Lazy.force ft_state) (Datacenter.suite (Lazy.force ft)))

let test_dc_pass () =
  List.iter
    (fun ((t : Nettest.t), (r : Nettest.result)) ->
      check_bool (t.name ^ " passes") true (Nettest.passed r.outcome))
    (Lazy.force ft_results)

let test_dc_similar_high_coverage () =
  let state = Lazy.force ft_state in
  let pcts =
    List.map
      (fun (_, (r : Nettest.result)) -> pct_of state r.tested)
      (Lazy.force ft_results)
  in
  List.iter (fun x -> check_bool "each around 80%" true (x > 60. && x < 95.)) pcts;
  let mx = List.fold_left max 0. pcts and mn = List.fold_left min 100. pcts in
  check_bool "tests largely redundant" true (mx -. mn < 15.)

let test_export_aggregate_weak () =
  let state = Lazy.force ft_state in
  let _, (r : Nettest.result) =
    List.find
      (fun ((t : Nettest.t), _) -> t.name = "ExportAggregate")
      (Lazy.force ft_results)
  in
  let report = Netcov.analyze state r.tested in
  let s = Coverage.line_stats report.Netcov.coverage in
  check_bool "mostly weak" true (s.Coverage.weak_lines > s.Coverage.strong_lines)

let test_pingmesh_checks_count () =
  let _, (r : Nettest.result) =
    List.find
      (fun ((t : Nettest.t), _) -> t.name = "ToRPingmesh")
      (Lazy.force ft_results)
  in
  (* 8 leaves x 7 other subnets *)
  check_int "pair count" 56 r.outcome.Nettest.checks

(* Node, edge and worklist-iteration counts of the materialized IFG
   and strong/weak element counts of its labeling, for each datacenter
   test and for the suite's union of tested facts. Fact identity and
   rule order decide the graph, so a faster interner, edge set or rule
   dispatch must leave these counts as they are; labeling must too.
   Labels must also be the same without the disjunction-free
   heuristic, which only saves BDD variables. *)
let test_dc_ifg_sizes () =
  let state = Lazy.force ft_state in
  let sizes name (tested : Netcov.tested) =
    let g, ids, (s : Materialize.stats) =
      Materialize.run (Rules.make_ctx state) ~tested:tested.Netcov.dp_facts
    in
    let l = Label.run g ~tested:ids in
    let l' = Label.run ~disjfree_heuristic:false g ~tested:ids in
    let module S = Netcov_config.Element.Id_set in
    check_bool (name ^ ": same strong without the heuristic") true
      (S.equal l.Label.strong l'.Label.strong);
    check_bool (name ^ ": same weak without the heuristic") true
      (S.equal l.Label.weak l'.Label.weak);
    ( (s.nodes, s.edges, s.iterations),
      (S.cardinal l.Label.strong, S.cardinal l.Label.weak) )
  in
  let results = Lazy.force ft_results in
  let got =
    List.map
      (fun ((t : Nettest.t), (r : Nettest.result)) ->
        (t.name, sizes t.name r.tested))
      results
    @ [
        ( "union",
          sizes "union"
            (Netcov.union_tested
               (List.map (fun (_, (r : Nettest.result)) -> r.tested) results)) );
      ]
  in
  Alcotest.(
    check (list (pair string (pair (triple int int int) (pair int int)))))
    "(nodes, edges, iterations), (strong, weak)"
    [
      ("DefaultRouteCheck", ((352, 420, 352), (172, 0)));
      ("ToRPingmesh", ((1508, 2968, 1508), (180, 0)));
      ("ExportAggregate", ((384, 504, 380), (8, 168)));
      ("union", ((1684, 3236, 1680), (200, 0)));
    ]
    got

let () =
  Alcotest.run "nettest"
    [
      ( "internet2",
        [
          Alcotest.test_case "all pass" `Slow test_all_pass;
          Alcotest.test_case "kinds" `Slow test_kinds;
          Alcotest.test_case "control vs data facts" `Slow
            test_control_plane_tests_have_no_dp_facts;
          Alcotest.test_case "route preference dominates" `Slow
            test_route_preference_dominates_bagpipe;
          Alcotest.test_case "suite union monotone" `Slow test_suite_union_monotone;
          Alcotest.test_case "dead code band" `Slow test_dead_code_band;
          Alcotest.test_case "sanity-in covers all terms" `Slow
            test_sanityin_covers_all_terms;
        ] );
      ( "datacenter",
        [
          Alcotest.test_case "all pass" `Slow test_dc_pass;
          Alcotest.test_case "similar high coverage" `Slow test_dc_similar_high_coverage;
          Alcotest.test_case "aggregate weak" `Slow test_export_aggregate_weak;
          Alcotest.test_case "pingmesh pair count" `Slow test_pingmesh_checks_count;
          Alcotest.test_case "IFG sizes pinned" `Slow test_dc_ifg_sizes;
        ] );
    ]
