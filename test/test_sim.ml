open Netcov_types
open Netcov_config
open Netcov_sim

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let ip = Ipv4.of_string
let p = Prefix.of_string

(* ---------------- topology ---------------- *)

let test_topology_adjacency () =
  let devices = Testnet.chain () in
  let topo = Topology.build devices in
  let adj_a = Topology.adjacencies_of topo "a" in
  check_int "a has one neighbor" 1 (List.length adj_a);
  let adj = List.hd adj_a in
  check_bool "a-b" true (adj.Topology.remote.host = "b");
  check_int "b has two" 2 (List.length (Topology.adjacencies_of topo "b"));
  check_bool "endpoint lookup" true
    (match Topology.endpoint_of_ip topo (ip "192.168.0.5") with
    | Some e -> e.Topology.host = "b" && e.ifname = "eth1"
    | None -> false);
  check_bool "shared subnet" true
    (match Topology.on_shared_subnet topo "a" (ip "192.168.0.2") with
    | Some e -> e.Topology.ifname = "eth0"
    | None -> false);
  check_bool "not shared" true (Topology.on_shared_subnet topo "a" (ip "192.168.0.6") = None)

(* ---------------- igp ---------------- *)

let test_igp_costs () =
  let devices = Testnet.diamond () in
  let topo = Topology.build devices in
  let ribs = Igp.compute devices topo in
  let a_rib = Hashtbl.find ribs "a" in
  (* a reaches d's loopback at cost 10+10+0 via b or c *)
  let entries = Rib.table_find (p "172.20.0.4/32") a_rib in
  check_bool "d loopback known" true (entries <> []);
  List.iter
    (fun (e : Rib.igp_entry) -> check_int "cost" 20 e.ie_cost)
    entries;
  check_int "ecmp first hops" 2 (List.length entries);
  (* direct neighbor at cost 10 *)
  let b_lo = Rib.table_find (p "172.20.0.2/32") a_rib in
  check_int "one hop" 1 (List.length b_lo);
  check_int "cost 10" 10 (List.hd b_lo).Rib.ie_cost

(* ---------------- sessions ---------------- *)

let test_sessions_chain () =
  let state = Testnet.state_of (Testnet.chain ()) in
  let edges = Stable_state.edges state in
  (* two sessions, two directed edges each *)
  check_int "four directed edges" 4 (List.length edges);
  check_bool "all ebgp single-hop" true
    (List.for_all (fun (e : Session.edge) -> e.ebgp && not e.multihop) edges);
  check_bool "a->b exists" true
    (Testnet.edge_from state ~recv_host:"b" ~send_ip:(ip "192.168.0.1") <> None);
  check_bool "no a->c" true
    (Testnet.edge_from state ~recv_host:"c" ~send_ip:(ip "192.168.0.1") = None)

let test_session_requires_reciprocal_config () =
  (* remove b's neighbor statement toward a: no session *)
  let devices =
    List.map
      (fun (d : Device.t) ->
        if d.hostname <> "b" then d
        else
          match d.bgp with
          | None -> d
          | Some b ->
              {
                d with
                bgp =
                  Some
                    {
                      b with
                      Device.neighbors =
                        List.filter
                          (fun (n : Device.neighbor) ->
                            not (Ipv4.equal n.nb_ip (ip "192.168.0.1")))
                          b.neighbors;
                    };
              })
      (Testnet.chain ())
  in
  let state = Testnet.state_of devices in
  check_int "only b-c edges" 2 (List.length (Stable_state.edges state))

let test_session_requires_as_agreement () =
  (* c expects AS 65009 on b: session must not establish *)
  let devices =
    List.map
      (fun (d : Device.t) ->
        if d.hostname <> "c" then d
        else
          match d.bgp with
          | None -> d
          | Some b ->
              {
                d with
                bgp =
                  Some
                    {
                      b with
                      Device.neighbors =
                        List.map
                          (fun (n : Device.neighbor) -> { n with nb_remote_as = 65009 })
                          b.neighbors;
                    };
              })
      (Testnet.chain ())
  in
  let state = Testnet.state_of devices in
  check_int "only a-b edges" 2 (List.length (Stable_state.edges state))

let test_multihop_ibgp_sessions () =
  let state = Testnet.state_of (Testnet.diamond ()) in
  let edges = Stable_state.edges state in
  check_int "full mesh directed" 12 (List.length edges);
  check_bool "ibgp" true (List.for_all (fun (e : Session.edge) -> not e.ebgp) edges);
  (* a-d is not directly connected *)
  check_bool "a-d multihop" true
    (match Testnet.edge_from state ~recv_host:"d" ~send_ip:(ip "172.20.0.1") with
    | Some e -> e.multihop
    | None -> false)

(* ---------------- propagation ---------------- *)

let test_chain_propagation () =
  let state = Testnet.state_of (Testnet.chain ()) in
  (* c learns a's LAN with the full AS path *)
  let entries = Stable_state.bgp_lookup_best state "c" (p "10.10.0.0/24") in
  check_int "one best at c" 1 (List.length entries);
  let e = List.hd entries in
  Alcotest.(check (list int)) "as path" [ 65002; 65001 ]
    (As_path.to_list e.Rib.be_route.Route.as_path);
  check_bool "next hop is b" true
    (Ipv4.equal e.Rib.be_route.Route.next_hop (ip "192.168.0.5"));
  (* and it is installed in the main RIB *)
  let mains = Stable_state.main_lookup state "c" (p "10.10.0.0/24") in
  check_int "installed" 1 (List.length mains);
  check_bool "protocol bgp" true ((List.hd mains).Rib.me_protocol = Route.Bgp)

let test_loop_prevention () =
  (* b must not accept 10.10.0.0/24 back from c *)
  let state = Testnet.state_of (Testnet.chain ()) in
  let entries = Stable_state.bgp_lookup state "b" (p "10.10.0.0/24") in
  check_int "single source at b" 1 (List.length entries);
  check_bool "learned from a" true
    (match (List.hd entries).Rib.be_source with
    | Rib.Learned sender -> Ipv4.equal sender (ip "192.168.0.1")
    | _ -> false)

let test_ibgp_propagation_and_nhs () =
  let state = Testnet.state_of (Testnet.diamond ()) in
  (* d learns a's network over iBGP with next-hop-self = a's loopback *)
  let entries = Stable_state.bgp_lookup_best state "d" (p "10.50.0.0/24") in
  check_int "one best" 1 (List.length entries);
  let e = List.hd entries in
  check_bool "nh is a's loopback" true
    (Ipv4.equal e.Rib.be_route.Route.next_hop (ip "172.20.0.1"));
  check_bool "empty as path (ibgp)" true
    (As_path.length e.Rib.be_route.Route.as_path = 0);
  (* installed and resolvable via IGP *)
  check_bool "reaches lan" true
    (Stable_state.reachable state ~src:"d" ~dst:(ip "10.50.0.1"))

let test_no_ibgp_reflection () =
  (* b learns a's route via iBGP; it must not re-advertise it to c or d *)
  let state = Testnet.state_of (Testnet.diamond ()) in
  List.iter
    (fun host ->
      let entries = Stable_state.bgp_lookup state host (p "10.50.0.0/24") in
      check_int (host ^ " has exactly one path") 1 (List.length entries);
      check_bool (host ^ " learned from a") true
        (match (List.hd entries).Rib.be_source with
        | Rib.Learned sender -> Ipv4.equal sender (ip "172.20.0.1")
        | _ -> false))
    [ "b"; "c"; "d" ]

let test_best_path_local_pref () =
  (* two routes for the same prefix: higher local-pref wins regardless of
     AS path length *)
  let mk lp len peer =
    {
      Rib.be_route =
        {
          Route.prefix = p "9.9.9.0/24";
          next_hop = ip peer;
          as_path = As_path.of_list (List.init len (fun i -> 100 + i));
          local_pref = lp;
          med = 0;
          communities = Community.Set.empty;
          origin = Route.Origin_igp;
    cluster_len = 0;
        };
      be_source = Rib.Learned (ip peer);
      be_from_ebgp = true;
      be_igp_cost = 0;
      be_peer_id = ip peer;
      be_best = false;
    }
  in
  let low = mk 80 1 "1.1.1.1" and high = mk 120 5 "2.2.2.2" in
  check_bool "high lp preferred" true (Bgp.preference_compare high low < 0);
  let short = mk 100 1 "1.1.1.1" and long = mk 100 3 "2.2.2.2" in
  check_bool "short path preferred" true (Bgp.preference_compare short long < 0);
  let ebgp = mk 100 2 "1.1.1.1" in
  let ibgp = { (mk 100 2 "2.2.2.2") with Rib.be_from_ebgp = false } in
  check_bool "ebgp over ibgp" true (Bgp.preference_compare ebgp ibgp < 0)

let test_ecmp_multipath () =
  let state = Testnet.state_of (Testnet.diamond ~multipath:4 ()) in
  (* d has two equal-cost IGP paths to a's loopback; the BGP route via
     next-hop a resolves over both. Main RIB should still be a single
     BGP entry (one next hop), but IGP destinations get 2 entries. *)
  let igp_entries = Stable_state.igp_lookup state "d" (p "172.20.0.1/32") in
  check_int "two igp paths" 2 (List.length igp_entries)

let test_convergence_deterministic () =
  let s1 = Testnet.state_of (Testnet.diamond ()) in
  let s2 = Testnet.state_of (Testnet.diamond ()) in
  check_int "same rounds" (Stable_state.rounds s1) (Stable_state.rounds s2);
  check_int "same entries" (Stable_state.total_main_entries s1)
    (Stable_state.total_main_entries s2)

(* ---------------- export/import simulation primitives ---------------- *)

let test_export_import_roundtrip () =
  let devices = Testnet.chain () in
  let state = Testnet.state_of devices in
  let find_device h = Stable_state.find_device state h in
  let edge =
    Option.get (Testnet.edge_from state ~recv_host:"c" ~send_ip:(ip "192.168.0.5"))
  in
  let origin = List.hd (Stable_state.bgp_lookup_best state "b" (p "10.10.0.0/24")) in
  match Bgp.export_route find_device edge origin with
  | None, _ -> Alcotest.fail "export refused"
  | Some msg, _ -> (
      check_bool "as prepended" true (As_path.head msg.Route.as_path = Some 65002);
      match Bgp.import_route find_device edge msg with
      | None, _ -> Alcotest.fail "import refused"
      | Some r, _ ->
          let installed = List.hd (Stable_state.bgp_lookup_best state "c" (p "10.10.0.0/24")) in
          check_bool "reproduces stable state" true
            (Route.equal_bgp r installed.Rib.be_route))

let test_no_export_community () =
  let devices = Testnet.chain () in
  let state = Testnet.state_of devices in
  let find_device h = Stable_state.find_device state h in
  let edge =
    Option.get (Testnet.edge_from state ~recv_host:"c" ~send_ip:(ip "192.168.0.5"))
  in
  let origin = List.hd (Stable_state.bgp_lookup_best state "b" (p "10.10.0.0/24")) in
  let tagged =
    {
      origin with
      Rib.be_route = Route.add_community origin.Rib.be_route Community.no_export;
    }
  in
  check_bool "no-export blocks ebgp export" true
    (fst (Bgp.export_route find_device edge tagged) = None)

let () =
  Alcotest.run "simulator"
    [
      ( "topology",
        [ Alcotest.test_case "adjacency" `Quick test_topology_adjacency ] );
      ("igp", [ Alcotest.test_case "costs and ecmp" `Quick test_igp_costs ]);
      ( "sessions",
        [
          Alcotest.test_case "chain" `Quick test_sessions_chain;
          Alcotest.test_case "reciprocal config required" `Quick
            test_session_requires_reciprocal_config;
          Alcotest.test_case "AS agreement required" `Quick
            test_session_requires_as_agreement;
          Alcotest.test_case "multihop iBGP" `Quick test_multihop_ibgp_sessions;
        ] );
      ( "propagation",
        [
          Alcotest.test_case "chain propagation" `Quick test_chain_propagation;
          Alcotest.test_case "loop prevention" `Quick test_loop_prevention;
          Alcotest.test_case "iBGP next-hop-self" `Quick test_ibgp_propagation_and_nhs;
          Alcotest.test_case "no iBGP reflection" `Quick test_no_ibgp_reflection;
          Alcotest.test_case "best path selection" `Quick test_best_path_local_pref;
          Alcotest.test_case "ECMP" `Quick test_ecmp_multipath;
          Alcotest.test_case "deterministic" `Quick test_convergence_deterministic;
        ] );
      ( "targeted-simulation",
        [
          Alcotest.test_case "export/import roundtrip" `Quick
            test_export_import_roundtrip;
          Alcotest.test_case "no-export community" `Quick test_no_export_community;
        ] );
    ]
