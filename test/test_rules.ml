(* Unit tests for individual inference rules: exact parent sets for each
   fact kind (paper §4.2, Table 1). *)
open Netcov_types
open Netcov_config
open Netcov_sim
open Netcov_core

let check_bool = Alcotest.(check bool)
let p = Prefix.of_string
let ip = Ipv4.of_string

let state = lazy (Testnet.state_of (Testnet.chain ()))
let ctx = lazy (Rules.make_ctx (Lazy.force state))

(* Apply every rule to a fact; return the inferences. *)
let infer fact =
  List.concat_map (fun (_, rule) -> rule (Lazy.force ctx) fact) Rules.all_rules

let parent_keys (inferences : Rules.inference list) target =
  List.concat_map
    (fun (inf : Rules.inference) ->
      if Fact.equal inf.target target then
        List.concat_map
          (fun spec ->
            match (spec : Rules.parent_spec) with
            | Rules.P f -> [ Fact.key f ]
            | Rules.P_disj fs -> List.map (fun f -> "disj:" ^ Fact.key f) fs)
          inf.parents
      else [])
    inferences

let has_parent keys fragment =
  List.exists (fun k -> Astring_like.contains k fragment) keys

let main_fact host prefix =
  match Stable_state.main_lookup (Lazy.force state) host (p prefix) with
  | entry :: _ -> Fact.F_main_rib { host; entry }
  | [] -> Alcotest.failf "no main entry for %s at %s" prefix host

let test_main_rib_bgp_rule () =
  let fact = main_fact "c" "10.10.0.0/24" in
  let keys = parent_keys (infer fact) fact in
  check_bool "bgp rib parent" true (has_parent keys "bgp:c:10.10.0.0/24");
  check_bool "no config parent directly" false (has_parent keys "cfg:")

let test_main_rib_connected_rule () =
  let fact = main_fact "a" "10.10.0.0/24" in
  let keys = parent_keys (infer fact) fact in
  check_bool "connected rib parent" true (has_parent keys "conn:a:10.10.0.0/24:lan0")

let test_connected_rib_rule () =
  let fact = Fact.F_connected_rib { host = "a"; prefix = p "10.10.0.0/24"; ifname = "lan0" } in
  let keys = parent_keys (infer fact) fact in
  let reg = Stable_state.registry (Lazy.force state) in
  let iface_id =
    Option.get (Registry.find reg ~device:"a" (Element.key Element.Interface "lan0"))
  in
  check_bool "interface config parent" true
    (List.mem (Printf.sprintf "cfg:%d" iface_id) keys)

let test_bgp_learned_rule_builds_messages () =
  let state = Lazy.force state in
  let entry = List.hd (Stable_state.bgp_lookup_best state "c" (p "10.10.0.0/24")) in
  let fact =
    Fact.F_bgp_rib
      { host = "c"; route = entry.Rib.be_route; source = entry.Rib.be_source }
  in
  let inferences = infer fact in
  (* the entry's own parent is the post-import message *)
  let keys = parent_keys inferences fact in
  check_bool "post msg parent" true (has_parent keys "msg:post");
  (* the combined rule also materializes the pre-import message with its
     parents: the origin entry at b, and the edge *)
  let pre_targets =
    List.filter
      (fun (inf : Rules.inference) ->
        match inf.target with
        | Fact.F_msg { kind = Fact.Pre_import; _ } -> true
        | _ -> false)
      inferences
  in
  check_bool "pre msg inference exists" true (pre_targets <> []);
  let pre = (List.hd pre_targets).Rules.target in
  let pre_keys = parent_keys inferences pre in
  check_bool "origin at b" true (has_parent pre_keys "bgp:b:10.10.0.0/24");
  check_bool "edge parent" true (has_parent pre_keys "edge:b/192.168.0.5->c/192.168.0.6")

let test_edge_rule_single_hop () =
  let fact = Fact.F_edge "b/192.168.0.5->c/192.168.0.6" in
  let keys = parent_keys (infer fact) fact in
  let reg = Stable_state.registry (Lazy.force state) in
  let id host key = Option.get (Registry.find reg ~device:host key) in
  List.iter
    (fun eid ->
      check_bool (Printf.sprintf "cfg:%d present" eid) true
        (List.mem (Printf.sprintf "cfg:%d" eid) keys))
    [
      id "c" (Element.key Element.Bgp_peer "192.168.0.5");
      id "b" (Element.key Element.Bgp_peer "192.168.0.6");
      id "c" (Element.key Element.Interface "eth0");
      id "b" (Element.key Element.Interface "eth1");
    ];
  check_bool "no path facts for single hop" false (has_parent keys "path:")

let test_edge_rule_multihop_has_paths () =
  let state = Testnet.state_of (Testnet.diamond ()) in
  let ctx = Rules.make_ctx state in
  let edge =
    Option.get
      (Testnet.edge_from state ~recv_host:"d" ~send_ip:(ip "172.20.0.1"))
  in
  let fact = Fact.F_edge (Session.edge_key edge) in
  let inferences = List.concat_map (fun (_, rule) -> rule ctx fact) Rules.all_rules in
  let keys = parent_keys inferences fact in
  check_bool "path parents" true (has_parent keys "path:")

let test_path_rule () =
  let state = Testnet.state_of (Testnet.diamond ()) in
  let ctx = Rules.make_ctx state in
  let dst = ip "172.20.0.4" in
  let fact = Fact.F_path { src = "a"; dst; idx = 0 } in
  let inferences = List.concat_map (fun (_, rule) -> rule ctx fact) Rules.all_rules in
  let keys = parent_keys inferences fact in
  check_bool "hop main entries" true (has_parent keys "main:a:");
  check_bool "igp protocol used" true (has_parent keys ":igp")

let test_bgp_network_rule () =
  let state = Lazy.force state in
  let entry = List.hd (Stable_state.bgp_lookup_best state "a" (p "10.10.0.0/24")) in
  let fact =
    Fact.F_bgp_rib
      { host = "a"; route = entry.Rib.be_route; source = entry.Rib.be_source }
  in
  let keys = parent_keys (infer fact) fact in
  let reg = Stable_state.registry state in
  let net_id =
    Option.get
      (Registry.find reg ~device:"a" (Element.key Element.Bgp_network "10.10.0.0/24"))
  in
  check_bool "network statement parent" true
    (List.mem (Printf.sprintf "cfg:%d" net_id) keys);
  check_bool "main rib parent" true (has_parent keys "main:a:10.10.0.0/24")

let test_redist_edge_rule () =
  (* build a device with redistribution to exercise the rule *)
  let open Testnet in
  let a =
    Device.make
      ~interfaces:
        [
          Device.interface ~address:(ip "192.168.0.1", 30) "eth0";
        ]
      ~static_routes:
        [ { Device.st_prefix = p "172.30.0.0/16"; st_next_hop = ip "192.168.0.2" } ]
      ~bgp:
        (bgp ~local_as:65001 ~router_id:"1.1.1.1"
           ~redistributes:[ { Device.rd_from = Route.Static; rd_policy = None } ]
           [ neighbor ~remote_as:65002 "192.168.0.2" ])
      "a"
  in
  let b =
    Device.make
      ~interfaces:[ Device.interface ~address:(ip "192.168.0.2", 30) "eth0" ]
      ~bgp:
        (bgp ~local_as:65002 ~router_id:"2.2.2.2"
           [ neighbor ~remote_as:65001 "192.168.0.1" ])
      "b"
  in
  let state = Testnet.state_of [ a; b ] in
  let ctx = Rules.make_ctx state in
  (* the redistributed entry exists at a *)
  let entry =
    List.find
      (fun (e : Rib.bgp_entry) -> e.be_source = Rib.From_redistribute Route.Static)
      (Stable_state.bgp_lookup state "a" (p "172.30.0.0/16"))
  in
  let fact =
    Fact.F_bgp_rib { host = "a"; route = entry.be_route; source = entry.be_source }
  in
  let inferences = List.concat_map (fun (_, rule) -> rule ctx fact) Rules.all_rules in
  let keys = parent_keys inferences fact in
  check_bool "redist edge parent" true (has_parent keys "redist-edge:a:static");
  check_bool "source main entry" true (has_parent keys "main:a:172.30.0.0/16");
  (* and the intra-device edge resolves to the redistribute config *)
  let redge = Fact.F_redist_edge { host = "a"; proto = Route.Static } in
  let rkeys =
    parent_keys (List.concat_map (fun (_, rule) -> rule ctx redge) Rules.all_rules) redge
  in
  check_bool "redistribute config" true (has_parent rkeys "cfg:")

let test_static_recursive_resolution () =
  (* Table 1's [f <- r, f]: a static route whose next hop is not on a
     connected subnet depends on the main-RIB entry that resolves it. *)
  let open Testnet in
  let devices = diamond () in
  let devices =
    List.map
      (fun (d : Device.t) ->
        if d.hostname <> "d" then d
        else
          {
            d with
            Device.static_routes =
              [
                {
                  (* next hop = a's loopback, reachable only via IGP *)
                  Device.st_prefix = p "172.31.99.0/24";
                  st_next_hop = ip "172.20.0.1";
                };
              ];
          })
      devices
  in
  let state = Testnet.state_of devices in
  let ctx = Rules.make_ctx state in
  let entry =
    List.find
      (fun (e : Rib.main_entry) -> e.me_protocol = Route.Static)
      (Stable_state.main_lookup state "d" (p "172.31.99.0/24"))
  in
  let fact = Fact.F_main_rib { host = "d"; entry } in
  let inferences = List.concat_map (fun (_, rule) -> rule ctx fact) Rules.all_rules in
  let keys = parent_keys inferences fact in
  (* parents: the static-route config element AND the resolving IGP
     main-RIB entries for the next hop (two ECMP alternatives -> disj) *)
  check_bool "config parent" true (has_parent keys "cfg:");
  check_bool "resolving entry" true (has_parent keys "main:d:172.20.0.1/32");
  check_bool "resolution is disjunctive (ECMP)" true
    (has_parent keys "disj:main:d:172.20.0.1/32")

let test_config_facts_have_no_rules () =
  let inferences = infer (Fact.F_config 0) in
  check_bool "no inferences" true (inferences = [])

let test_acl_rule () =
  let state = Lazy.force state in
  let ctx = Rules.make_ctx state in
  ignore ctx;
  (* ACL facts resolve to their definition when registered *)
  let fact = Fact.F_acl { host = "a"; acl = "NOPE"; rule = Some 0 } in
  let keys = parent_keys (infer fact) fact in
  check_bool "unknown acl yields nothing" true (keys = [])

(* Materialization applies only the rules [Rules.rules_for] selects.
   On every fact of two materialized graphs — the fat-tree k=4
   datacenter suite and a main-RIB lookup on the IGP diamond, whose
   iBGP next hops resolve through IGP-RIB facts — each rule left out
   must return no inference, and the selection must be ascending. *)
let test_dispatch_skips_silent_rules () =
  let rules = Array.of_list Rules.all_rules in
  let fired = Array.make (Array.length rules) false in
  let check_graph state tested =
    let ctx = Rules.make_ctx state in
    let g, _, _ = Materialize.run ctx ~tested in
    Intern.iter (Ifg.interner g) (fun _ f ->
        let selected = Rules.rules_for f in
        check_bool "selection ascending" true
          (List.sort_uniq Int.compare selected = selected);
        Array.iteri
          (fun i (name, rule) ->
            let infs = rule ctx f in
            if infs <> [] then fired.(i) <- true;
            if infs <> [] && not (List.mem i selected) then
              Alcotest.failf "rule %s fires on %s, which dispatch skips" name
                (Fact.key f))
          rules)
  in
  let ft = Netcov_workloads.Fattree.generate ~k:4 () in
  let ft_state =
    Stable_state.compute (Registry.build ft.Netcov_workloads.Fattree.devices)
  in
  let ft_tested =
    Netcov.union_tested
      (List.map
         (fun (_, (r : Netcov_nettest.Nettest.result)) -> r.tested)
         (Netcov_nettest.Nettest.run_suite ft_state
            (Netcov_nettest.Datacenter.suite ft)))
  in
  check_graph ft_state ft_tested.Netcov.dp_facts;
  let diamond = Testnet.state_of (Testnet.diamond ()) in
  check_graph diamond
    (List.map
       (fun entry -> Fact.F_main_rib { host = "d"; entry })
       (Stable_state.main_lookup diamond "d" (p "10.50.0.0/24")));
  check_bool "most rules fired on some fact" true
    (Array.fold_left (fun n b -> if b then n + 1 else n) 0 fired >= 8)

let () =
  Alcotest.run "rules"
    [
      ( "per-rule",
        [
          Alcotest.test_case "main rib (bgp)" `Quick test_main_rib_bgp_rule;
          Alcotest.test_case "main rib (connected)" `Quick test_main_rib_connected_rule;
          Alcotest.test_case "connected rib" `Quick test_connected_rib_rule;
          Alcotest.test_case "learned bgp builds messages" `Quick
            test_bgp_learned_rule_builds_messages;
          Alcotest.test_case "edge single-hop" `Quick test_edge_rule_single_hop;
          Alcotest.test_case "edge multihop paths" `Quick test_edge_rule_multihop_has_paths;
          Alcotest.test_case "path" `Quick test_path_rule;
          Alcotest.test_case "bgp network" `Quick test_bgp_network_rule;
          Alcotest.test_case "redistribution" `Quick test_redist_edge_rule;
          Alcotest.test_case "static recursive resolution" `Quick
            test_static_recursive_resolution;
          Alcotest.test_case "config leaves" `Quick test_config_facts_have_no_rules;
          Alcotest.test_case "acl fallback" `Quick test_acl_rule;
          Alcotest.test_case "dispatch skips only silent rules" `Quick
            test_dispatch_skips_silent_rules;
        ] );
    ]
