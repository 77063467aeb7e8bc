open Netcov_types
open Netcov_config
open Netcov_sim

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let ip = Ipv4.of_string
let p = Prefix.of_string

let test_chain_trace () =
  let state = Testnet.state_of (Testnet.chain ()) in
  let paths = Stable_state.trace state ~src:"c" ~dst:(ip "10.10.0.1") in
  check_int "one path" 1 (List.length paths);
  let path = List.hd paths in
  check_bool "reached" true path.Forward.reached;
  Alcotest.(check (list string)) "hops" [ "c"; "b"; "a" ]
    (List.map (fun (h : Forward.hop) -> h.hop_host) path.Forward.hops);
  (* first hop forwards on the learned BGP route *)
  (match path.Forward.hops with
  | h :: _ ->
      check_bool "bgp entry used" true
        (List.exists
           (fun (e : Rib.main_entry) -> e.me_protocol = Route.Bgp)
           h.hop_entries)
  | [] -> Alcotest.fail "no hops");
  check_bool "reachable" true (Stable_state.reachable state ~src:"c" ~dst:(ip "10.10.0.1"))

let test_local_delivery () =
  let state = Testnet.state_of (Testnet.chain ()) in
  let paths = Stable_state.trace state ~src:"a" ~dst:(ip "10.10.0.1") in
  check_bool "owner reaches instantly" true
    (List.exists (fun (q : Forward.path) -> q.reached) paths);
  check_int "single hop" 1 (List.length (List.hd paths).Forward.hops)

let test_unreachable () =
  let state = Testnet.state_of (Testnet.chain ()) in
  (* nobody has a route to this space *)
  check_bool "unknown dst" false
    (Stable_state.reachable state ~src:"c" ~dst:(ip "203.0.113.7"))

let test_connected_subnet_delivery () =
  let state = Testnet.state_of (Testnet.chain ()) in
  (* an address inside a's LAN that is not a router interface: delivered
     onto the connected subnet *)
  let paths = Stable_state.trace state ~src:"c" ~dst:(ip "10.10.0.99") in
  check_bool "delivered to subnet" true
    (List.exists (fun (q : Forward.path) -> q.reached) paths)

let test_ecmp_branches () =
  let state = Testnet.state_of (Testnet.diamond ~multipath:4 ()) in
  (* d -> a's loopback has two IGP ECMP paths (via b and via c) *)
  let paths = Stable_state.trace state ~src:"d" ~dst:(ip "172.20.0.1") in
  let reached = List.filter (fun (q : Forward.path) -> q.reached) paths in
  check_int "two ecmp paths" 2 (List.length reached);
  let mids =
    List.map
      (fun (q : Forward.path) ->
        match q.Forward.hops with
        | _ :: mid :: _ -> mid.Forward.hop_host
        | _ -> "?")
      reached
    |> List.sort String.compare
  in
  Alcotest.(check (list string)) "via b and c" [ "b"; "c" ] mids

let with_acl devices host ifname acl_name rules inbound =
  List.map
    (fun (d : Device.t) ->
      if d.hostname <> host then d
      else
        {
          d with
          Device.acls = [ { Device.acl_name; rules } ];
          interfaces =
            List.map
              (fun (i : Device.interface) ->
                if i.if_name = ifname then
                  if inbound then { i with in_acl = Some acl_name }
                  else { i with out_acl = Some acl_name }
                else i)
              d.interfaces;
        })
    devices

let test_acl_blocks () =
  let rules = [ { Device.permit = false; rule_prefix = p "10.10.0.0/24" } ] in
  let devices = with_acl (Testnet.chain ()) "b" "eth0" "BLOCK" rules true in
  let state = Testnet.state_of devices in
  (* traffic from c to a's LAN enters b via eth1... the ACL is on eth0
     facing a; c->a traffic exits eth0, so apply it inbound on a's side:
     here we check that an inbound ACL on b's eth0 does NOT block c->a
     (wrong direction), proving direction-sensitivity. *)
  check_bool "wrong-direction acl does not block" true
    (Stable_state.reachable state ~src:"c" ~dst:(ip "10.10.0.1"))

let test_acl_blocks_inbound () =
  (* inbound ACL on the receiving interface of the next hop *)
  let rules = [ { Device.permit = false; rule_prefix = p "10.10.0.0/24" } ] in
  let devices = with_acl (Testnet.chain ()) "b" "eth1" "BLOCK" rules true in
  let state = Testnet.state_of devices in
  (* c -> a enters b on eth1: blocked *)
  check_bool "blocked" false (Stable_state.reachable state ~src:"c" ~dst:(ip "10.10.0.1"));
  (* control-plane state is unaffected; a -> its own LAN still fine *)
  check_bool "local ok" true (Stable_state.reachable state ~src:"a" ~dst:(ip "10.10.0.1"))

let test_acl_outbound () =
  let rules = [ { Device.permit = false; rule_prefix = p "10.10.0.0/24" } ] in
  let devices = with_acl (Testnet.chain ()) "b" "eth0" "BLOCK" rules false in
  let state = Testnet.state_of devices in
  (* c -> a leaves b via eth0: blocked by outbound ACL *)
  check_bool "blocked outbound" false
    (Stable_state.reachable state ~src:"c" ~dst:(ip "10.10.0.1"))

let test_acl_records_rule () =
  let rules =
    [
      { Device.permit = true; rule_prefix = p "10.10.0.0/24" };
      { Device.permit = false; rule_prefix = p "0.0.0.0/0" };
    ]
  in
  let devices = with_acl (Testnet.chain ()) "b" "eth1" "FILT" rules true in
  let state = Testnet.state_of devices in
  let paths = Stable_state.trace state ~src:"c" ~dst:(ip "10.10.0.1") in
  let uses =
    List.concat_map
      (fun (q : Forward.path) ->
        List.concat_map (fun (h : Forward.hop) -> h.Forward.hop_acls) q.Forward.hops)
      paths
  in
  check_bool "acl use recorded" true
    (List.exists
       (fun (u : Forward.acl_use) ->
         u.au_acl = "FILT" && u.au_rule = Some 0 && u.au_permit)
       uses)

(* Stable_state.trace memoizes per state: it must agree with the
   unmemoized Forward.trace, hand back the stored list on a repeat
   call, and give racing domains the same lists. Fat-tree k=4,
   every leaf to every other leaf's subnet (the ToR pingmesh pairs). *)
let test_trace_memo () =
  let module Fattree = Netcov_workloads.Fattree in
  let ft = Fattree.generate ~k:4 () in
  let state () = Stable_state.compute (Registry.build ft.Fattree.devices) in
  let pairs =
    List.concat_map
      (fun src ->
        List.filter_map
          (fun (dst_leaf, subnet) ->
            if src = dst_leaf then None else Some (src, Prefix.first_host subnet))
          ft.Fattree.leaf_subnets)
      ft.Fattree.leaves
  in
  check_int "pairs" 56 (List.length pairs);
  let st = state () in
  let traced = List.map (fun (src, dst) -> Stable_state.trace st ~src ~dst) pairs in
  List.iter2
    (fun (src, dst) paths ->
      check_bool "memo = Forward.trace" true
        (paths = Forward.trace (Stable_state.forward_env st) ~src ~dst);
      check_bool "repeat call returns the stored list" true
        (Stable_state.trace st ~src ~dst == paths))
    pairs traced;
  let st2 = state () in
  let run order () = List.map (fun (src, dst) -> Stable_state.trace st2 ~src ~dst) order in
  let d1 = Domain.spawn (run pairs) in
  let d2 = Domain.spawn (fun () -> List.rev (run (List.rev pairs) ())) in
  let r1 = Domain.join d1 and r2 = Domain.join d2 in
  check_bool "two domains get the same lists" true (List.for_all2 ( == ) r1 r2);
  check_bool "two domains agree with Forward.trace" true (r1 = traced)

let () =
  Alcotest.run "forward"
    [
      ( "trace",
        [
          Alcotest.test_case "chain trace" `Quick test_chain_trace;
          Alcotest.test_case "local delivery" `Quick test_local_delivery;
          Alcotest.test_case "unreachable" `Quick test_unreachable;
          Alcotest.test_case "connected delivery" `Quick test_connected_subnet_delivery;
          Alcotest.test_case "ecmp branches" `Quick test_ecmp_branches;
          Alcotest.test_case "memo (fat-tree k=4)" `Quick test_trace_memo;
        ] );
      ( "acl",
        [
          Alcotest.test_case "direction sensitivity" `Quick test_acl_blocks;
          Alcotest.test_case "inbound blocks" `Quick test_acl_blocks_inbound;
          Alcotest.test_case "outbound blocks" `Quick test_acl_outbound;
          Alcotest.test_case "rule recorded" `Quick test_acl_records_rule;
        ] );
    ]
