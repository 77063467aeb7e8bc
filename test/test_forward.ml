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

(* ---------------- the memo against the reference DFS ---------------- *)

(* [Stable_state.trace] must return what [Forward_ref.trace], the plain
   DFS without a memo, returns for every pair, traced in order on one
   state so that later pairs run on choices earlier ones memoized. *)
let disagreement st pairs =
  let env = Stable_state.forward_env st in
  List.find_opt
    (fun (src, dst) -> Stable_state.trace st ~src ~dst <> Forward_ref.trace env ~src ~dst)
    pairs

let check_agrees name st pairs =
  match disagreement st pairs with
  | None -> ()
  | Some (src, dst) ->
      Alcotest.failf "%s: %s -> %s differs from the reference" name src
        (Ipv4.to_string dst)

(* Every host toward every interface address, the first host of every
   main-RIB prefix, and an address no table covers. *)
let all_pairs st =
  let hosts = Stable_state.all_hosts st in
  let topo = Stable_state.topology st in
  let dsts =
    ip "203.0.113.7"
    :: List.concat_map
         (fun h ->
           List.map (fun (e : Topology.endpoint) -> e.ip) (Topology.endpoints_of topo h)
           @ List.map
               (fun (pfx, _) -> Prefix.first_host pfx)
               (Rib.table_entries (Stable_state.main_rib st h)))
         hosts
    |> List.sort_uniq Ipv4.compare
  in
  List.concat_map (fun src -> List.map (fun dst -> (src, dst)) dsts) hosts

let test_agrees_netgen =
  let module Cgen = Netcov_check.Netgen in
  QCheck2.Test.make ~name:"netgen trees: every (router, LAN)" ~count:40
    ~print:Cgen.print_network Cgen.network (fun net ->
      let st = Testnet.state_of (Cgen.devices_of net) in
      let routers = List.init net.n_routers Cgen.host in
      let lans = List.init net.n_routers (fun j -> Prefix.first_host (Cgen.lan j)) in
      disagreement st
        (List.concat_map (fun r -> List.map (fun dst -> (r, dst)) lans) routers)
      = None)

let fattree4 = lazy (Netcov_workloads.Fattree.generate ~k:4 ())

let test_agrees_fattree () =
  let ft = Lazy.force fattree4 in
  let st = Testnet.state_of ft.Netcov_workloads.Fattree.devices in
  let pairs = all_pairs st in
  check_bool "pairs" true (List.length pairs > 1000);
  check_agrees "fat-tree k=4" st pairs

let test_agrees_hostile () =
  let st = Stable_state.compute (Testnet.hostile_registry ()) in
  check_agrees "hostile corpus" st (all_pairs st)

(* The ACL fixtures above, blocked and permitted, in both directions. *)
let test_agrees_acls () =
  let deny = [ { Device.permit = false; rule_prefix = p "10.10.0.0/24" } ] in
  let permit =
    [
      { Device.permit = true; rule_prefix = p "10.10.0.0/24" };
      { Device.permit = false; rule_prefix = p "0.0.0.0/0" };
    ]
  in
  List.iter
    (fun (name, ifname, rules, inbound, reaches) ->
      let st = Testnet.state_of (with_acl (Testnet.chain ()) "b" ifname "ACL" rules inbound) in
      check_bool (name ^ ": c reaches a's LAN") reaches
        (Stable_state.reachable st ~src:"c" ~dst:(ip "10.10.0.1"));
      check_agrees name st (all_pairs st))
    [
      ("inbound deny", "eth1", deny, true, false);
      ("inbound permit", "eth1", permit, true, true);
      ("outbound deny", "eth0", deny, false, false);
      ("outbound permit", "eth0", permit, false, true);
      ("inbound deny, other direction", "eth0", deny, true, true);
    ]

(* Delete mutants of the WAN (every 40th element) drop routes, so
   their data planes have blackholes and forwarding loops. Every router
   toward every other router's LAN. *)
let test_agrees_wan_mutants () =
  let module Wan = Netcov_workloads.Wan in
  let module Mutation = Netcov_core.Mutation in
  let w = Wan.generate () in
  let reg = Registry.build w.Wan.devices in
  let base = Stable_state.compute reg in
  let pairs =
    List.concat_map
      (fun (_, src) ->
        List.filteri (fun j _ -> j mod 2 = 0) w.Wan.lans
        |> List.map (fun (_, lan) -> (src, Prefix.first_host lan)))
      w.Wan.routers
  in
  check_agrees "WAN" base pairs;
  let ids = List.rev (Registry.fold_elements reg (fun acc e -> e.Element.id :: acc) []) in
  let mutants = ref 0 and dropped = ref 0 and cut = ref 0 in
  List.iteri
    (fun i id ->
      if i mod 40 = 0 then
        List.iter
          (fun (m : Mutation.mutant) ->
            incr mutants;
            let st = Stable_state.update_devices base (Mutation.mutant_devices reg m) in
            check_agrees (m.mu_op ^ " " ^ m.mu_element.Element.ekey.name) st pairs;
            List.iter
              (fun (src, dst) ->
                List.iter
                  (fun (q : Forward.path) ->
                    (* the WAN has no ACLs: an unreached path whose last
                       hop forwards was cut at a revisited host *)
                    match List.rev q.hops with
                    | _ when q.reached -> ()
                    | { hop_out_if = Some _; _ } :: _ -> incr cut
                    | _ -> incr dropped)
                  (Stable_state.trace st ~src ~dst))
              pairs)
          (Option.value ~default:[]
             (Mutation.mutants_of ~operators:[ Mutation.op_delete ] reg id)))
    ids;
  check_int "mutants" 21 !mutants;
  check_bool "some paths dropped" true (!dropped > 0);
  check_bool "some paths loop" true (!cut > 0)

(* Stable_state.trace hands back the stored list on a repeat call, and
   gives racing domains the same lists. Fat-tree k=4, every leaf to
   every other leaf's subnet (the ToR pingmesh pairs). *)
let test_trace_memo () =
  let module Fattree = Netcov_workloads.Fattree in
  let ft = Lazy.force fattree4 in
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
  check_agrees "pingmesh pairs" st pairs;
  List.iter2
    (fun (src, dst) paths ->
      check_bool "repeat call returns the stored list" true
        (Stable_state.trace st ~src ~dst == paths))
    pairs traced;
  let st2 = state () in
  let run order () = List.map (fun (src, dst) -> Stable_state.trace st2 ~src ~dst) order in
  let d1 = Domain.spawn (run pairs) in
  let d2 = Domain.spawn (fun () -> List.rev (run (List.rev pairs) ())) in
  let r1 = Domain.join d1 and r2 = Domain.join d2 in
  check_bool "two domains get the same lists" true (List.for_all2 ( == ) r1 r2);
  check_bool "two domains agree with one" true (r1 = traced)

(* ---------------- bounds ---------------- *)

let static_route prefix gw = { Device.st_prefix = p prefix; st_next_hop = gw }

(* [n] routers on one shared /24, so every two are adjacent. Each has
   two static routes for 203.0.113.0/24, which no router owns, via the
   next two routers: the walks of +1 and +2 steps that end at a
   revisited router grow as the Fibonacci numbers in [n]. *)
let static_mesh n =
  let addr i = Ipv4.of_octets 10 0 0 ((i mod n) + 1) in
  List.init n (fun i ->
      Device.make
        ~interfaces:[ Device.interface ~address:(addr i, 24) "eth0" ]
        ~static_routes:
          [
            static_route "203.0.113.0/24" (addr (i + 1));
            static_route "203.0.113.0/24" (addr (i + 2));
          ]
        (Printf.sprintf "m%d" i))

let test_loop_paths_capped () =
  List.iter
    (fun n ->
      let st = Testnet.state_of (static_mesh n) in
      let dst = ip "203.0.113.1" in
      let paths = Stable_state.trace st ~src:"m0" ~dst in
      check_int (Printf.sprintf "n=%d: 32 paths" n) 32 (List.length paths);
      check_bool "none reaches" true
        (List.for_all (fun (q : Forward.path) -> not q.reached) paths);
      check_agrees (Printf.sprintf "mesh n=%d" n) st [ ("m0", dst); ("m1", dst) ])
    [ 20; 60 ]

(* One router with [n] static routes for 203.0.113.0/24 via gateways
   on its LAN that no device holds: [n] paths end at its one hop. *)
let static_fanout n =
  [
    Device.make
      ~interfaces:[ Device.interface ~address:(ip "10.0.0.1", 24) "eth0" ]
      ~static_routes:
        (List.init n (fun i -> static_route "203.0.113.0/24" (Ipv4.of_octets 10 0 0 (i + 2))))
      "f";
  ]

let test_fanout_capped () =
  let st = Testnet.state_of (static_fanout 40) in
  let dst = ip "203.0.113.1" in
  check_int "40 entries" 40 (List.length (Stable_state.main_lookup st "f" (p "203.0.113.0/24")));
  check_int "32 paths" 32 (List.length (Stable_state.trace st ~src:"f" ~dst));
  check_agrees "fan-out" st [ ("f", dst) ]

(* A chain of [n] routers, each with a static route toward the last
   one's LAN via the next router. *)
let static_chain n =
  let link i side = Ipv4.of_int (Ipv4.to_int (ip "10.1.0.0") + (4 * i) + side) in
  List.init n (fun i ->
      let up =
        if i = 0 then [] else [ Device.interface ~address:(link (i - 1) 2, 30) "up" ]
      in
      if i = n - 1 then
        Device.make
          ~interfaces:(up @ [ Device.interface ~address:(ip "10.2.0.1", 24) "lan" ])
          (Printf.sprintf "c%d" i)
      else
        Device.make
          ~interfaces:(up @ [ Device.interface ~address:(link i 1, 30) "down" ])
          ~static_routes:[ static_route "10.2.0.0/24" (link i 2) ]
          (Printf.sprintf "c%d" i))

let test_hop_cap () =
  let st = Testnet.state_of (static_chain 65) in
  let dst = ip "10.2.0.1" in
  let only src =
    match Stable_state.trace st ~src ~dst with
    | [ q ] -> q
    | paths -> Alcotest.failf "%s: %d paths" src (List.length paths)
  in
  let far = only "c0" and near = only "c1" in
  check_bool "65 routers away: cut" false far.reached;
  check_int "cut at 64 hops" 64 (List.length far.hops);
  check_bool "64 routers away: reached" true near.reached;
  check_int "in 64 hops" 64 (List.length near.hops);
  check_agrees "chain" st [ ("c0", dst); ("c1", dst) ]

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
      ( "reference",
        QCheck_alcotest.to_alcotest test_agrees_netgen
        :: [
             Alcotest.test_case "fat-tree k=4, all pairs" `Quick test_agrees_fattree;
             Alcotest.test_case "hostile corpus" `Quick test_agrees_hostile;
             Alcotest.test_case "acl fixtures" `Quick test_agrees_acls;
             Alcotest.test_case "wan delete mutants" `Quick test_agrees_wan_mutants;
           ] );
      ( "bounds",
        [
          Alcotest.test_case "loop paths count toward 32" `Quick test_loop_paths_capped;
          Alcotest.test_case "one hop's 40 ends capped at 32" `Quick test_fanout_capped;
          Alcotest.test_case "at most 64 hops" `Quick test_hop_cap;
        ] );
    ]
