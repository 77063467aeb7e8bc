(* Global invariants of the stable state on random eBGP tree networks
   (Netcov_check.Netgen.network, the oracles' generator): full
   propagation, loop-free forwarding, AS-path sanity, best-path
   uniqueness, and end-to-end coverage totality. *)
open Netcov_types
open Netcov_config
open Netcov_sim
open Netcov_core
module Cgen = Netcov_check.Netgen

let state_of net = Stable_state.compute (Registry.build (Cgen.devices_of net))
let routers (net : Cgen.network) = List.init net.n_routers Cgen.host
let lans (net : Cgen.network) = List.init net.n_routers (fun j -> (j, Cgen.lan j))

let net_test ~name ~count gen prop =
  QCheck2.Test.make ~name ~count ~print:Cgen.print_network gen prop

(* Networks without import policies, for the properties that assert
   every route reaches every router. *)
let unpolicied =
  QCheck2.Gen.map (fun (net : Cgen.network) -> { net with policied = [] }) Cgen.network

let prop_full_propagation =
  net_test ~name:"every router learns every LAN" ~count:60 unpolicied
    (fun net ->
      let state = state_of net in
      List.for_all
        (fun r ->
          List.for_all
            (fun (_, lan) -> Stable_state.main_lookup state r lan <> [])
            (lans net))
        (routers net))

let prop_forwarding_reaches =
  net_test ~name:"forwarding is loop-free and delivers" ~count:40 unpolicied
    (fun net ->
      let state = state_of net in
      List.for_all
        (fun r ->
          List.for_all
            (fun (_, lan) ->
              let dst = Prefix.first_host lan in
              let paths = Stable_state.trace state ~src:r ~dst in
              paths <> []
              && List.for_all
                   (fun (q : Forward.path) ->
                     (* reached, and no host repeats on the path *)
                     q.reached
                     &&
                     let hosts =
                       List.map (fun (h : Forward.hop) -> h.hop_host) q.hops
                     in
                     List.length hosts
                     = List.length (List.sort_uniq String.compare hosts))
                   paths)
            (lans net))
        (routers net))

let prop_as_path_tree_distance =
  net_test ~name:"AS-path length equals tree distance" ~count:60 unpolicied
    (fun net ->
      let state = state_of net in
      (* distance in the tree between routers i and j *)
      let rec ancestors i = if i = 0 then [ 0 ] else i :: ancestors net.parent.(i) in
      let distance i j =
        let ai = ancestors i and aj = ancestors j in
        let common = List.find (fun a -> List.mem a aj) ai in
        let depth_to l target =
          let rec go n = function
            | x :: rest -> if x = target then n else go (n + 1) rest
            | [] -> assert false
          in
          go 0 l
        in
        depth_to ai common + depth_to aj common
      in
      List.for_all
        (fun i ->
          List.for_all
            (fun (j, lan) ->
              if i = j then true
              else
                match Stable_state.bgp_lookup_best state (Cgen.host i) lan with
                | [] -> false
                | e :: _ ->
                    As_path.length e.Rib.be_route.Route.as_path = distance i j)
            (lans net))
        (List.init net.n_routers Fun.id))

let prop_single_best_without_multipath =
  net_test ~name:"unique best path on trees" ~count:60 unpolicied (fun net ->
      let state = state_of net in
      (* a tree has a unique route between any two nodes, so even with
         multipath enabled there is exactly one best entry *)
      List.for_all
        (fun r ->
          List.for_all
            (fun (j, lan) ->
              if Cgen.host j = r then true
              else List.length (Stable_state.bgp_lookup_best state r lan) = 1)
            (lans net))
        (routers net))

let prop_coverage_total =
  net_test ~name:"coverage of all LANs covers all live BGP config" ~count:25
    unpolicied (fun net ->
      let state = state_of net in
      (* test every LAN everywhere: all peers, interfaces and network
         statements must be covered (the tree uses all of them) *)
      let tested =
        List.concat_map
          (fun r ->
            List.concat_map
              (fun (_, lan) ->
                List.map
                  (fun entry -> Fact.F_main_rib { host = r; entry })
                  (Stable_state.main_lookup state r lan))
              (lans net))
          (routers net)
      in
      let report = Netcov.analyze state { Netcov.dp_facts = tested; cp_elements = [] } in
      let reg = Stable_state.registry state in
      let all_covered = ref true in
      Registry.iter_elements reg (fun e ->
          match Element.etype_of e with
          | Element.Interface | Element.Bgp_peer | Element.Bgp_network ->
              if
                Coverage.element_status report.Netcov.coverage e.Element.id
                = Coverage.Not_covered
              then all_covered := false
          | _ -> ());
      !all_covered)

let prop_deterministic_state =
  net_test ~name:"simulation is deterministic" ~count:30 Cgen.network (fun net ->
      let s1 = state_of net and s2 = state_of net in
      Stable_state.total_main_entries s1 = Stable_state.total_main_entries s2
      && Stable_state.total_bgp_entries s1 = Stable_state.total_bgp_entries s2
      && Stable_state.rounds s1 = Stable_state.rounds s2)

(* ---------------- deterministic balanced mega-trees ---------------- *)

(* The netgen-1000 bench workload is Netcov_check.Netgen.balanced; these
   check its structure (including the >255-router octet spill) and that
   its deterministic specs materialize into a working analysis, without
   paying a 1000-router simulation in the test suite. *)

let test_balanced_structure () =
  let net = Cgen.balanced ~fanout:4 600 in
  Alcotest.(check int) "router count" 600 net.Cgen.n_routers;
  for i = 1 to 599 do
    if net.Cgen.parent.(i) <> (i - 1) / 4 then
      Alcotest.failf "parent of %d is %d, expected %d" i net.Cgen.parent.(i)
        ((i - 1) / 4)
  done;
  List.iter
    (fun i ->
      if not (i > 0 && i mod 7 = 1) then
        Alcotest.failf "unexpected policied router %d" i)
    net.Cgen.policied;
  (* the octet spill keeps LANs (and so router ids) distinct past 255 *)
  let lans = List.init 600 Cgen.lan in
  Alcotest.(check int) "distinct LAN prefixes" 600
    (List.length (List.sort_uniq Prefix.compare lans));
  Alcotest.(check int) "device per router" 600
    (List.length (Cgen.devices_of net))

let test_balanced_specs_analyze () =
  let net = Cgen.balanced ~fanout:3 40 in
  let state = Stable_state.compute (Registry.build (Cgen.devices_of net)) in
  let specs = Cgen.balanced_specs ~n_tests:8 ~probes_per_test:4 net in
  Alcotest.(check int) "spec count" 8 (List.length specs);
  Alcotest.(check bool) "specs are deterministic" true
    (specs = Cgen.balanced_specs ~n_tests:8 ~probes_per_test:4 net);
  let testeds = List.map (Cgen.tested_of state) specs in
  Alcotest.(check bool) "probes hit the RIB" true
    (List.exists (fun (t : Netcov.tested) -> t.Netcov.dp_facts <> []) testeds);
  let merged = Netcov.merge_reports (Netcov.analyze_suite state testeds) in
  Alcotest.(check bool) "some coverage" true
    (Coverage.pct (Coverage.line_stats merged.Netcov.coverage) > 0.)

let () =
  Alcotest.run "netgen"
    [
      ( "invariants",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_full_propagation;
            prop_forwarding_reaches;
            prop_as_path_tree_distance;
            prop_single_best_without_multipath;
            prop_coverage_total;
            prop_deterministic_state;
          ] );
      ( "balanced",
        [
          Alcotest.test_case "structure + octet spill" `Quick
            test_balanced_structure;
          Alcotest.test_case "deterministic specs analyze" `Quick
            test_balanced_specs_analyze;
        ] );
    ]
