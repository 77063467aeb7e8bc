open Netcov_types
open Netcov_config
open Netcov_sim

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let ip = Ipv4.of_string
let p = Prefix.of_string

module W = Netcov_workloads
module I2 = W.Internet2
module Diag = Netcov_diag.Diag

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

(* ---------------- comparators ---------------- *)

(* The closure-list comparators the allocation-free chains replaced:
   references their signs must agree with. *)
let by_steps steps =
  let rec go = function
    | [] -> 0
    | f :: rest -> ( match f () with 0 -> go rest | c -> c)
  in
  go steps

let reference_compare_bgp_entry (a : Rib.bgp_entry) (b : Rib.bgp_entry) =
  by_steps
    [
      (fun () -> Route.compare_bgp a.be_route b.be_route);
      (fun () -> Rib.compare_bgp_source a.be_source b.be_source);
      (fun () -> Bool.compare a.be_from_ebgp b.be_from_ebgp);
      (fun () -> Int.compare a.be_igp_cost b.be_igp_cost);
      (fun () -> Ipv4.compare a.be_peer_id b.be_peer_id);
      (fun () -> Bool.compare a.be_best b.be_best);
    ]

let reference_preference_compare (a : Rib.bgp_entry) (b : Rib.bgp_entry) =
  let local (e : Rib.bgp_entry) =
    match e.be_source with Rib.Learned _ -> 1 | _ -> 0
  in
  let ra = a.be_route and rb = b.be_route in
  by_steps
    [
      (fun () -> Int.compare (local a) (local b));
      (fun () -> Int.compare rb.local_pref ra.local_pref);
      (fun () ->
        Int.compare (As_path.length ra.as_path) (As_path.length rb.as_path));
      (fun () ->
        Int.compare (Route.origin_rank ra.origin) (Route.origin_rank rb.origin));
      (fun () -> Int.compare ra.med rb.med);
      (fun () -> Bool.compare (not a.be_from_ebgp) (not b.be_from_ebgp));
      (fun () -> Int.compare ra.cluster_len rb.cluster_len);
      (fun () -> Int.compare a.be_igp_cost b.be_igp_cost);
      (fun () -> Ipv4.compare a.be_peer_id b.be_peer_id);
    ]

let gen_entry =
  QCheck.Gen.(
    map
      (fun (be_route, be_source, (be_from_ebgp, be_igp_cost, peer, be_best)) ->
        {
          Rib.be_route;
          be_source;
          be_from_ebgp;
          be_igp_cost;
          be_peer_id = ip peer;
          be_best;
        })
      (triple Testnet.gen_route
         (oneofl
            [
              Rib.Learned (ip "1.1.1.1");
              Rib.Learned (ip "2.2.2.2");
              Rib.From_network;
              Rib.From_aggregate;
              Rib.From_redistribute Route.Static;
            ])
         (quad bool (oneofl [ 0; 10 ]) (oneofl [ "1.1.1.1"; "2.2.2.2" ]) bool)))

(* Pairs that are independent, or equal up to the comparator's last
   field, so ties only that field breaks are common. *)
let gen_entry_pair ~last =
  QCheck.make
    QCheck.Gen.(
      pair gen_entry gen_entry >>= fun (a, b) ->
      map (fun tie -> if tie then (a, last a b) else (a, b)) bool)

let sign c = Int.compare c 0

let prop_compare_bgp_entry =
  QCheck.Test.make ~name:"compare_bgp_entry agrees with the reference"
    ~count:2000
    (gen_entry_pair ~last:(fun a (b : Rib.bgp_entry) ->
         { a with Rib.be_best = b.be_best }))
    (fun (a, b) ->
      sign (Rib.compare_bgp_entry a b) = sign (reference_compare_bgp_entry a b))

let prop_preference_compare =
  QCheck.Test.make ~name:"preference_compare agrees with the reference"
    ~count:2000
    (gen_entry_pair ~last:(fun a (b : Rib.bgp_entry) ->
         { a with Rib.be_peer_id = b.be_peer_id }))
    (fun (a, b) ->
      sign (Bgp.preference_compare a b)
      = sign (reference_preference_compare a b))

(* ---------------- sessions and update groups ---------------- *)

let igp_cost_reference pre_main nh =
  if Ipv4.equal nh Ipv4.zero then 0
  else
    match Rib.table_longest_match nh pre_main with
    | Some (_, (e : Rib.main_entry) :: _) -> e.me_metric
    | Some (_, []) | None -> 0

(* [export_route], then [import_route], plus the IGP cost: the
   candidate the receiver learns, computed without sessions. *)
let reference_candidate find_device ~pre_main (e : Session.edge) se =
  match Bgp.export_route find_device e se with
  | None, _ -> None
  | Some msg, _ -> (
      match Bgp.import_route find_device e msg with
      | None, _ -> None
      | Some r, _ ->
          Some
            {
              Rib.be_route = r;
              be_source = Rib.Learned e.send_ip;
              be_from_ebgp = e.ebgp;
              be_igp_cost = igp_cost_reference pre_main r.Route.next_hop;
              be_peer_id = e.send_ip;
              be_best = false;
            })

(* On a converged state, for every session and every best entry of its
   sender: the update group's shared sender half equals the session's
   own, and the receiver half applied to it equals
   [reference_candidate]. *)
let test_session_pipeline () =
  List.iter
    (fun (name, devices) ->
      let res = Bgp.run devices (Topology.build devices) in
      let by_name = Hashtbl.create 64 in
      List.iter
        (fun (d : Device.t) -> Hashtbl.replace by_name d.hostname d)
        devices;
      let find_device = Hashtbl.find by_name in
      let sessions, n_groups =
        Bgp.resolve_sessions find_device ~pre_mains:res.pre_mains res.edges
      in
      check_int (name ^ ": every edge resolves") (List.length res.edges)
        (List.length sessions);
      check_bool (name ^ ": sessions share groups") true
        (n_groups < List.length sessions);
      let leader = Hashtbl.create 64 in
      List.iter
        (fun s ->
          if not (Hashtbl.mem leader (Bgp.update_group s)) then
            Hashtbl.replace leader (Bgp.update_group s) s)
        sessions;
      let compared = ref 0 and shared_diff = ref 0 and pipeline_diff = ref 0 in
      List.iter
        (fun s ->
          let e = Bgp.session_edge s in
          let pre_main = Hashtbl.find res.pre_mains e.recv_host in
          let lead = Hashtbl.find leader (Bgp.update_group s) in
          Prefix_trie.iter
            (fun _ group ->
              List.iter
                (fun (se : Rib.bgp_entry) ->
                  if se.be_best then begin
                    incr compared;
                    let shared = Bgp.sender_half lead se in
                    let own = Bgp.sender_half s se in
                    if not (Option.equal Route.equal_bgp shared own) then
                      incr shared_diff;
                    let got =
                      Option.bind shared (Bgp.receiver_half ~pre_main s se)
                    in
                    let want = reference_candidate find_device ~pre_main e se in
                    let same x y = Rib.compare_bgp_entry x y = 0 in
                    if not (Option.equal same got want) then incr pipeline_diff
                  end)
                group)
            (Hashtbl.find res.bgp_ribs e.send_host))
        sessions;
      check_bool (name ^ ": routes compared") true (!compared > 1000);
      check_int (name ^ ": group export = member's own") 0 !shared_diff;
      check_int (name ^ ": halves = export_route + import_route") 0
        !pipeline_diff)
    [
      ("internet2", (I2.generate I2.default_params).devices);
      ("wan", (W.Wan.generate ()).devices);
    ]

(* ---------------- non-convergence ---------------- *)

let test_no_convergence_diag () =
  let reg = Registry.build (W.Fattree.generate ~k:4 ()).devices in
  let run ?max_rounds () =
    let c = Diag.collector () in
    let st = Stable_state.compute ?max_rounds ~diags:(Diag.sink c) reg in
    ( Stable_state.rounds st,
      List.filter
        (fun (d : Diag.t) -> d.kind = Diag.No_convergence)
        (Diag.items c) )
  in
  let rounds, diags = run () in
  check_int "k=4 converges in 6 rounds" 6 rounds;
  check_int "no diagnostic when converged" 0 (List.length diags);
  let rounds, diags = run ~max_rounds:2 () in
  check_int "stopped at the cap" 2 rounds;
  match diags with
  | [ d ] ->
      check_bool "a warning" true (d.severity = Diag.Warning);
      check_bool "message names the cap" true
        (Astring_like.contains d.message "within 2 rounds");
      check_bool "message names the changing hosts" true
        (Astring_like.contains d.message "hosts still changing")
  | ds -> Alcotest.failf "expected one diagnostic, got %d" (List.length ds)

(* ---------------- pinned stable states ---------------- *)

(* Every field of every entry, so any change to selection, attributes or
   the best flag moves the digest. *)
let bgp_entry_line (e : Rib.bgp_entry) =
  let r = e.be_route in
  Printf.sprintf
    "%s nh %s path [%s] lp %d med %d comm {%s} origin %s cl %d %s ebgp %b \
     igp %d peer %s best %b"
    (Prefix.to_string r.Route.prefix)
    (Ipv4.to_string r.next_hop)
    (As_path.to_string r.as_path)
    r.local_pref r.med
    (String.concat ","
       (List.map Community.to_string (Community.Set.elements r.communities)))
    (Route.origin_to_string r.origin)
    r.cluster_len
    (Rib.bgp_source_to_string e.be_source)
    e.be_from_ebgp e.be_igp_cost
    (Ipv4.to_string e.be_peer_id)
    e.be_best

(* Every host's BGP and main RIB and the edge list; [canonical_state]
   adds the round count. *)
let canonical_ribs st =
  let b = Buffer.create 65536 in
  let line s =
    Buffer.add_string b s;
    Buffer.add_char b '\n'
  in
  List.iter
    (fun h ->
      line ("host " ^ h);
      Prefix_trie.iter
        (fun _ es -> List.iter (fun e -> line ("bgp " ^ bgp_entry_line e)) es)
        (Stable_state.bgp_rib st h);
      Prefix_trie.iter
        (fun _ es ->
          List.iter
            (fun e -> line ("main " ^ Format.asprintf "%a" Rib.pp_main e))
            es)
        (Stable_state.main_rib st h))
    (List.sort String.compare (Stable_state.all_hosts st));
  List.iter
    (fun (e : Session.edge) ->
      line
        (Printf.sprintf "edge %s ebgp %b multihop %b" (Session.edge_key e)
           e.ebgp e.multihop))
    (Stable_state.edges st);
  Buffer.contents b

let canonical_state st =
  canonical_ribs st ^ Printf.sprintf "rounds %d\n" (Stable_state.rounds st)

let internet2 params () = Registry.build (I2.generate params).devices
let fattree k () = Registry.build (W.Fattree.generate ~k ()).devices
let wan multipath () = Registry.build (W.Wan.generate ~multipath ()).devices

let pinned_networks =
  [
    ("internet2 test_params", internet2 I2.test_params);
    ("internet2 default_params", internet2 I2.default_params);
    ("internet2 paper_params", internet2 I2.paper_params);
    ( "internet2 default_params rr2",
      internet2 { I2.default_params with ibgp = I2.Route_reflectors 2 } );
    ("fat-tree k=4", fattree 4);
    ("fat-tree k=6", fattree 6);
    ("wan", wan 1);
    ("wan multipath 4", wan 4);
    ("hostile corpus", Testnet.hostile_registry);
  ]

(* (network, digest of [canonical_state], rounds), recorded before the
   fixed point was split into sessions and update groups. *)
let pinned_digests =
  [
    ("internet2 test_params", "be12c1ac5d1a2f088683716792bf5253", 5);
    ("internet2 default_params", "9afc7b9d8c64408bf6d5086a5a994ff6", 5);
    ("internet2 paper_params", "64b853cb054f62eef7ba24efa62056d8", 5);
    ("internet2 default_params rr2", "68a41a08e0decd62d70cdf3433a16ca0", 6);
    ("fat-tree k=4", "6286d79ca412b8e9fe931d6aace833b9", 6);
    ("fat-tree k=6", "c408a686b9009509ab652a7cac2e75af", 6);
    ("wan", "812667431f17e9735058bfbee42ed68c", 26);
    ("wan multipath 4", "5346de58a31b045dbce13b20734def59", 26);
    ("hostile corpus", "e4db72d99e35dce5a8b37c96125f068e", 4);
  ]

let test_pinned_states () =
  (* Print every network's figures before checking any, so one failing
     run shows all the values to compare. *)
  let got =
    List.map
      (fun (name, build) ->
        let st = Stable_state.compute (build ()) in
        let digest = Digest.to_hex (Digest.string (canonical_state st)) in
        Printf.printf "(%S, %S, %d);\n" name digest (Stable_state.rounds st);
        (name, digest, Stable_state.rounds st))
      pinned_networks
  in
  Alcotest.(check (list (triple string string int)))
    "digests and rounds" pinned_digests got

let no_convergence_messages diags =
  List.filter_map
    (fun (d : Diag.t) ->
      if d.kind = Diag.No_convergence then Some d.message else None)
    diags

(* Only best entries of every host's BGP RIB: what a receiver reads. *)
let canonical_best st =
  let b = Buffer.create 65536 in
  List.iter
    (fun h ->
      Buffer.add_string b ("host " ^ h ^ "\n");
      Prefix_trie.iter
        (fun _ es ->
          List.iter
            (fun (e : Rib.bgp_entry) ->
              if e.be_best then
                Buffer.add_string b (bgp_entry_line e ^ "\n"))
            es)
        (Stable_state.bgp_rib st h))
    (List.sort String.compare (Stable_state.all_hosts st));
  Buffer.contents b

let compute_capped build max_rounds =
  let c = Diag.collector () in
  let st = Stable_state.compute ~max_rounds ~diags:(Diag.sink c) (build ()) in
  (st, no_convergence_messages (Diag.items c))

(* (network, hosts still changing) when each pinned network is capped one
   round short of convergence, recorded with the pinned digests. *)
let pinned_capped_hosts =
  [
    ("internet2 test_params", 10);
    ("internet2 default_params", 10);
    ("internet2 paper_params", 10);
    ("internet2 default_params rr2", 2);
    ("fat-tree k=4", 8);
    ("fat-tree k=6", 18);
    ("wan", 2);
    ("wan multipath 4", 2);
    ("hostile corpus", 2);
  ]

(* One round short of convergence every pinned network reports the cap
   as its round count and exactly one no-convergence warning. The round
   count includes the round that confirms convergence, so the round
   before it still changed some host's table. *)
let test_pinned_capped () =
  let got =
    List.map
      (fun (name, build) ->
        let _, _, rounds =
          List.find (fun (n, _, _) -> n = name) pinned_digests
        in
        let st, messages = compute_capped build (rounds - 1) in
        check_int (name ^ ": capped rounds") (rounds - 1)
          (Stable_state.rounds st);
        let hosts =
          match messages with
          | [ m ] ->
              Scanf.sscanf m "BGP did not converge within %d rounds: %d hosts"
                (fun cap hosts ->
                  check_int (name ^ ": cap in message") (rounds - 1) cap;
                  Alcotest.(check string)
                    (name ^ ": message")
                    (Printf.sprintf
                       "BGP did not converge within %d rounds: %d hosts still \
                        changing; coverage is computed over the last round's \
                        state"
                       (rounds - 1) hosts)
                    m;
                  hosts)
          | ms ->
              Alcotest.failf "%s: expected one no-convergence warning, got %d"
                name (List.length ms)
        in
        Printf.printf "(%S, %d);\n" name hosts;
        (name, hosts))
      pinned_networks
  in
  Alcotest.(check (list (pair string int)))
    "hosts still changing at the cap" pinned_capped_hosts got;
  (* internet2 paper_params: its last round before the cap changed only
     entries that are not best, so the cap stops on hosts whose tables
     changed although no receiver's input did. *)
  let build = List.assoc "internet2 paper_params" pinned_networks in
  let before, _ = compute_capped build 3 and at_cap, _ = compute_capped build 4 in
  Alcotest.(check string)
    "paper_params: round 4 keeps every best entry" (canonical_best before)
    (canonical_best at_cap);
  check_bool "paper_params: round 4 changes some entry" true
    (canonical_ribs before <> canonical_ribs at_cap)

(* (network, digest of the [canonical_ribs] digests at every cap from 1
   to rounds - 1), recorded with the earlier round function: every round
   of the fixed point, not only the last, must produce the same
   tables. *)
let pinned_round_digests =
  [
    ("internet2 test_params", "cfa5817755582c50c53b3b0160d57144");
    ("internet2 default_params", "f4b0f4105f3d39ceddc3de2f0b54c3a8");
    ("internet2 paper_params", "d935d3c56bfa372929490e4556f273af");
    ("internet2 default_params rr2", "186e5ad96ebdac6fb13217a9b0df86bd");
    ("fat-tree k=4", "b36d81e5a2b4ef8c32897bcc8a1162af");
    ("fat-tree k=6", "6340112c6e344b0dd1e365cee675eceb");
    ("wan", "ac435f27c9f8a12e88352d7e220d00e8");
    ("wan multipath 4", "0c013889ef1baa3d9c6d27fbc7744e66");
    ("hostile corpus", "63195d5665ba6a4fc5250a531cbae894");
  ]

let test_pinned_rounds () =
  let got =
    List.map
      (fun (name, build) ->
        let _, _, rounds =
          List.find (fun (n, _, _) -> n = name) pinned_digests
        in
        let reg = build () in
        let per_round =
          List.init (rounds - 1) (fun i ->
              let st =
                Stable_state.compute ~max_rounds:(i + 1) ~diags:ignore reg
              in
              Digest.to_hex (Digest.string (canonical_ribs st)))
        in
        let digest =
          Digest.to_hex (Digest.string (String.concat "" per_round))
        in
        Printf.printf "(%S, %S);\n" name digest;
        (name, digest))
      pinned_networks
  in
  Alcotest.(check (list (pair string string)))
    "per-round digests" pinned_round_digests got

(* ---------------- warm restarts ---------------- *)

(* b aggregates a's LAN and is outside the edit, so a warm update
   recomputes b only at the prefixes a changed. The aggregate's
   withdrawal happens at another prefix and must still reach c and
   b's main RIB. *)
let test_warm_aggregate_withdrawal () =
  let map_bgp host f =
    List.map (fun (d : Device.t) ->
        match d.bgp with
        | Some b when d.hostname = host -> { d with bgp = Some (f b) }
        | _ -> d)
  in
  let devices =
    map_bgp "b"
      (fun b ->
        {
          b with
          Device.aggregates =
            [ { Device.ag_prefix = p "10.10.0.0/16"; ag_summary_only = false } ];
        })
      (Testnet.chain ())
  in
  let agg = p "10.10.0.0/16" in
  let before = Testnet.state_of devices in
  check_bool "c learns the aggregate" true
    (Stable_state.bgp_lookup before "c" agg <> []);
  let edited = map_bgp "a" (fun b -> { b with Device.networks = [] }) devices in
  let warm = Stable_state.update_devices before edited in
  let scratch = Testnet.state_of edited in
  check_bool "scratch withdraws the aggregate" true
    (Stable_state.bgp_lookup scratch "c" agg = []);
  Alcotest.(check string)
    "warm = scratch" (canonical_ribs scratch) (canonical_ribs warm)

(* Every mutant, under every operator, of each element [pick] admits (by
   position in id order): a warm update from the baseline and a scratch
   computation of the mutant network reach the same state. Returns the
   number of mutants and the disagreeing ones. *)
let warm_scratch_mutants reg ~pick =
  let module Mutation = Netcov_core.Mutation in
  let base = Stable_state.compute reg in
  let ids =
    List.rev (Registry.fold_elements reg (fun acc e -> e.Element.id :: acc) [])
  in
  let n = ref 0 and differ = ref [] in
  List.iteri
    (fun i id ->
      if pick i then
        List.iter
          (fun (m : Mutation.mutant) ->
            let devices = Mutation.mutant_devices reg m in
            let warm = Stable_state.update_devices base devices in
            let scratch = Stable_state.compute (Registry.build devices) in
            incr n;
            if canonical_ribs warm <> canonical_ribs scratch then
              differ :=
                Printf.sprintf "%s %s" m.mu_op m.mu_element.Element.ekey.name
                :: !differ)
          (Option.value ~default:[]
             (Mutation.mutants_of ~operators:Mutation.all_operators reg id)))
    ids;
  (!n, List.rev !differ)

let test_warm_scratch_mutants () =
  List.iter
    (fun (name, build, pick, expected) ->
      let n, differ = warm_scratch_mutants (build ()) ~pick in
      check_int (name ^ ": mutants") expected n;
      Alcotest.(check (list string)) (name ^ ": warm <> scratch") [] differ)
    [
      ("fat-tree k=4", fattree 4, (fun _ -> true), 252);
      ( "internet2 test_params",
        internet2 I2.test_params,
        (fun i -> i mod 8 = 0),
        141 );
    ]

(* ---------------- stable-state reuse ---------------- *)

module M = Netcov_obs.Metrics

let counter name =
  match M.value M.default name with Some (M.Counter n) -> n | _ -> 0

(* Every router also gets an unused peer group, so that a
   re-description can land on a group. *)
let with_group devices =
  List.map
    (fun (d : Device.t) ->
      let group =
        {
          Device.pg_name = "PEERS";
          pg_remote_as = None;
          pg_import = [];
          pg_export = [];
          pg_local_pref = None;
          pg_description = None;
        }
      in
      {
        d with
        bgp =
          Option.map
            (fun (b : Device.bgp_config) ->
              { b with groups = b.groups @ [ group ] })
            d.bgp;
      })
    devices

(* Sets one description per draw [(device, kind, k)]: of an interface,
   a neighbor or a peer group of the drawn device, picked by [k]. *)
let redescribe draws devices =
  let n = List.length devices in
  let nth_map xs k f =
    match xs with
    | [] -> []
    | _ ->
        let j = k mod List.length xs in
        List.mapi (fun i x -> if i = j then f x else x) xs
  in
  List.fold_left
    (fun devs (di, kind, k) ->
      let text = Some (Printf.sprintf "re-%d" k) in
      List.mapi
        (fun i (d : Device.t) ->
          if i <> di mod n then d
          else
            let bgp f = { d with bgp = Option.map f d.bgp } in
            match kind mod 3 with
            | 0 ->
                {
                  d with
                  interfaces =
                    nth_map d.interfaces k (fun (x : Device.interface) ->
                        { x with description = text });
                }
            | 1 ->
                bgp (fun b ->
                    {
                      b with
                      neighbors =
                        nth_map b.neighbors k (fun (x : Device.neighbor) ->
                            { x with nb_description = text });
                    })
            | _ ->
                bgp (fun b ->
                    {
                      b with
                      groups =
                        nth_map b.groups k (fun (x : Device.peer_group) ->
                            { x with pg_description = text });
                    }))
        devs)
    devices draws

let shares_tables a b =
  List.for_all
    (fun h ->
      Stable_state.main_rib a h == Stable_state.main_rib b h
      && Stable_state.bgp_rib a h == Stable_state.bgp_rib b h)
    (Stable_state.all_hosts a)

(* Element statuses of one analysis of every forwarding rule. *)
let labels state =
  let rep =
    Netcov_core.Netcov.analyze state
      (Netcov_dpcov.Dpcov.all_data_plane_tested state)
  in
  Registry.fold_elements (Stable_state.registry state)
    (fun acc e ->
      Netcov_core.Coverage.element_status rep.Netcov_core.Netcov.coverage
        e.Element.id
      :: acc)
    []

(* A re-described network reuses the previous state, and the reuse is
   what a scratch computation gives: RIBs, edges, rounds and labels.
   The same devices in another order, or a behaviour edit on top,
   compute from scratch. *)
let prop_recompute_exact =
  let module Netgen = Netcov_check.Netgen in
  let gen =
    QCheck2.Gen.(
      pair Netgen.network
        (list_size (int_range 1 4) (triple nat nat nat)))
  in
  QCheck2.Test.make ~name:"recompute reuses exactly" ~count:40
    ~print:(fun (net, draws) ->
      Printf.sprintf "%s redescribe %s" (Netgen.print_network net)
        (String.concat ";"
           (List.map (fun (a, b, c) -> Printf.sprintf "%d,%d,%d" a b c) draws)))
    gen
    (fun (net, draws) ->
      let base = with_group (Netgen.devices_of net) in
      let prev = Stable_state.compute (Registry.build base) in
      let described = redescribe draws base in
      let reg = Registry.build described in
      let reused0 = counter "sim.reused" and runs0 = counter "sim.runs" in
      let reused = Stable_state.recompute ~prev reg in
      let scratch = Stable_state.compute reg in
      let exact =
        counter "sim.reused" = reused0 + 1
        && counter "sim.runs" = runs0 + 1
        && shares_tables reused prev
        && Stable_state.registry reused == reg
        && canonical_ribs reused = canonical_ribs scratch
        && Stable_state.edges reused = Stable_state.edges scratch
        && Stable_state.rounds reused = Stable_state.rounds scratch
        && labels reused = labels scratch
      in
      let edited =
        List.mapi
          (fun i (d : Device.t) ->
            if i <> 0 then d
            else
              {
                d with
                static_routes =
                  { Device.st_prefix = p "10.250.0.0/24"; st_next_hop = Ipv4.zero }
                  :: d.static_routes;
              })
          described
      in
      let reg' = Registry.build edited in
      let reused1 = counter "sim.reused" in
      let fresh = Stable_state.recompute ~prev:reused reg' in
      let reordered =
        match described with d :: rest -> rest @ [ d ] | [] -> []
      in
      let reg_r = Registry.build reordered in
      let fresh_r = Stable_state.recompute ~prev:reused reg_r in
      exact
      && counter "sim.reused"
         = reused1 + (if List.length described < 2 then 1 else 0)
      && canonical_state fresh
         = canonical_state (Stable_state.compute reg')
      && canonical_state fresh_r
         = canonical_state (Stable_state.compute reg_r))

(* DISAGREE (Griffin et al.): n1 and n2 each prefer the route through
   the other over their direct route from o. The synchronous iteration
   swaps between both-direct and both-through-the-other every round,
   so the scratch simulation stops at the round cap with a
   sim.no-convergence warning. A reused state must emit it again. *)
let disagree () =
  let iface addr name = Device.interface ~address:(ip addr, 30) name in
  let prefer =
    {
      Policy_ast.pol_name = "PREFER-PEER";
      terms =
        [
          {
            Policy_ast.term_name = "all";
            matches = [];
            actions = [ Policy_ast.Set_local_pref 200; Policy_ast.Accept ];
          };
        ];
    }
  in
  let node host asn own peer peer_as =
    Device.make
      ~interfaces:
        [ iface own.(0) "eth0"; iface own.(1) "eth1" ]
      ~policies:[ prefer ]
      ~bgp:
        (Testnet.bgp ~local_as:asn ~router_id:own.(0)
           [
             Testnet.neighbor ~remote_as:65000 own.(2);
             Testnet.neighbor ~remote_as:peer_as ~import:[ "PREFER-PEER" ] peer;
           ])
      host
  in
  [
    Device.make
      ~interfaces:
        [
          iface "10.0.1.1" "eth0";
          iface "10.0.2.1" "eth1";
          Device.interface ~address:(ip "10.99.0.1", 24) "lan0";
        ]
      ~bgp:
        (Testnet.bgp ~local_as:65000 ~router_id:"10.0.1.1"
           ~networks:[ "10.99.0.0/24" ]
           [
             Testnet.neighbor ~remote_as:65001 "10.0.1.2";
             Testnet.neighbor ~remote_as:65002 "10.0.2.2";
           ])
      "o";
    node "n1" 65001 [| "10.0.1.2"; "10.0.3.1"; "10.0.1.1" |] "10.0.3.2" 65002;
    node "n2" 65002 [| "10.0.2.2"; "10.0.3.2"; "10.0.2.1" |] "10.0.3.1" 65001;
  ]

(* a and b share the address 192.168.0.1, so the later of the two in
   device order owns it and peers with c: c learns a's LAN or b's. *)
let shared_address () =
  let router host asn lan neighbors =
    Device.make
      ~interfaces:
        [
          Device.interface ~address:(ip "192.168.0.1", 30) "eth0";
          Device.interface ~address:(ip (lan ^ ".1"), 24) "lan0";
        ]
      ~bgp:
        (Testnet.bgp ~local_as:asn ~router_id:(lan ^ ".1")
           ~networks:[ lan ^ ".0/24" ] neighbors)
      host
  in
  let to_c = [ Testnet.neighbor ~remote_as:65003 "192.168.0.2" ] in
  ( router "a" 65001 "10.10.0" to_c,
    router "b" 65001 "10.20.0" to_c,
    Device.make
      ~interfaces:[ Device.interface ~address:(ip "192.168.0.2", 30) "eth0" ]
      ~bgp:
        (Testnet.bgp ~local_as:65003 ~router_id:"192.168.0.2"
           [ Testnet.neighbor ~remote_as:65001 "192.168.0.1" ])
      "c" )

let test_reuse_reordered () =
  let a, b, c = shared_address () in
  let prev = Stable_state.compute (Registry.build [ a; b; c ]) in
  let reg = Registry.build [ b; a; c ] in
  let reused0 = counter "sim.reused" in
  let st = Stable_state.recompute ~prev reg in
  let scratch = Stable_state.compute reg in
  let c_learns st net = Stable_state.bgp_lookup_best st "c" (p net) <> [] in
  check_bool "before: c learns b's LAN" true (c_learns prev "10.20.0.0/24");
  check_bool "after: c learns a's LAN" true (c_learns scratch "10.10.0.0/24");
  check_int "the reordered devices are not reused" reused0
    (counter "sim.reused");
  Alcotest.(check string)
    "state equals compute's" (canonical_state scratch) (canonical_state st)

let test_reuse_no_convergence () =
  let run f =
    let c = Diag.collector () in
    let st = f (Diag.sink c) in
    (st, List.map Diag.to_string (Diag.items c))
  in
  let prev, prev_diags =
    run (fun diags -> Stable_state.compute ~diags (Registry.build (disagree ())))
  in
  check_int "stops at the default cap" 64 (Stable_state.rounds prev);
  check_int "one diagnostic" 1 (List.length prev_diags);
  check_bool "it is sim.no-convergence" true
    (Astring_like.contains (List.hd prev_diags) "did not converge");
  let reg = Registry.build (redescribe [ (1, 0, 0); (2, 1, 1) ] (disagree ())) in
  let reused, reused_diags =
    run (fun diags -> Stable_state.recompute ~diags ~prev reg)
  in
  let scratch, scratch_diags =
    run (fun diags -> Stable_state.compute ~diags reg)
  in
  check_bool "the state is reused" true (shares_tables reused prev);
  Alcotest.(check (list string))
    "diagnostics equal compute's" scratch_diags reused_diags;
  Alcotest.(check string)
    "state equals compute's" (canonical_state scratch)
    (canonical_state reused)

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
      ( "comparators",
        List.map QCheck_alcotest.to_alcotest
          [ prop_compare_bgp_entry; prop_preference_compare ] );
      ( "update-groups",
        [
          Alcotest.test_case "shared sender half, receiver half" `Quick
            test_session_pipeline;
        ] );
      ( "convergence",
        [
          Alcotest.test_case "no-convergence diagnostic" `Quick
            test_no_convergence_diag;
          Alcotest.test_case "warm aggregate withdrawal" `Quick
            test_warm_aggregate_withdrawal;
          Alcotest.test_case "warm = scratch per mutant" `Quick
            test_warm_scratch_mutants;
        ] );
      ( "reuse",
        [
          QCheck_alcotest.to_alcotest prop_recompute_exact;
          Alcotest.test_case "no-convergence diagnostic reused" `Quick
            test_reuse_no_convergence;
          Alcotest.test_case "reordered devices with a shared address" `Quick
            test_reuse_reordered;
        ] );
      ( "pinned",
        [
          Alcotest.test_case "stable-state digests" `Quick test_pinned_states;
          Alcotest.test_case "capped one round short" `Quick test_pinned_capped;
          Alcotest.test_case "every round" `Quick test_pinned_rounds;
        ] );
    ]
