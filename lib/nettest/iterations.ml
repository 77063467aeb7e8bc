open Netcov_types
open Netcov_config
open Netcov_policy
open Netcov_sim
open Netcov_core
open Netcov_workloads

(* Iteration 1: cover the remaining SANITY-IN clauses. *)
let sanity_in (net : Internet2.t) : Nettest.t =
  let run state =
    let failures = ref [] in
    let checks = ref 0 in
    let cp_elements = ref [] in
    let forbidden nb_asn =
      (* one representative route per remaining SANITY-IN class *)
      List.map
        (fun asn ->
          Testutil.test_route ~as_path:[ nb_asn; asn ]
            (Prefix.of_string "100.90.1.0/24"))
        net.private_asns
      @ List.map
          (fun asn ->
            Testutil.test_route ~as_path:[ nb_asn; asn; 30001 ]
              (Prefix.of_string "100.91.1.0/24"))
          net.transit_asns
      @ [ Testutil.test_route ~as_path:[ nb_asn ] Prefix.default ]
      @ List.map
          (fun p ->
            Testutil.test_route ~as_path:[ nb_asn ]
              (Prefix.nth_subnet p ~len:24 ~n:5))
          net.internal_prefixes
    in
    List.iter
      (fun host ->
        let d = Stable_state.find_device state host in
        List.iter
          (fun ((nb : Device.neighbor), _) ->
            List.iter
              (fun route ->
                incr checks;
                let { Eval.verdict; exercised; _ } =
                  Eval.run_chain d
                    ~chain:(Device.neighbor_import d nb)
                    ~default:Eval.Accepted route
                in
                cp_elements :=
                  Testutil.ids_of_keys state ~host exercised @ !cp_elements;
                if verdict = Eval.Accepted then
                  failures :=
                    Printf.sprintf "%s accepts forbidden route %s from %s" host
                      (Prefix.to_string route.Route.prefix)
                      (Ipv4.to_string nb.nb_ip)
                    :: !failures)
              (forbidden nb.nb_remote_as))
          (Testutil.external_neighbors state host))
      net.routers;
    {
      Nettest.outcome = { checks = !checks; failures = List.rev !failures };
      tested =
        {
          Netcov.dp_facts = [];
          cp_elements = List.sort_uniq Int.compare !cp_elements;
        };
    }
  in
  { Nettest.name = "SanityIn"; kind = Nettest.Control_plane; run }

(* Iteration 2: permitted announcements must be accepted; directly tests
   each peer's binding and its permit list. *)
let peer_specific_route (net : Internet2.t) : Nettest.t =
  let run state =
    let failures = ref [] in
    let checks = ref 0 in
    let cp_elements = ref [] in
    let reg = Stable_state.registry state in
    List.iter
      (fun (pi : Internet2.peer_info) ->
        let d = Stable_state.find_device state pi.router in
        match
          List.find_opt
            (fun (nb : Device.neighbor) -> Ipv4.equal nb.nb_ip pi.peer_ip)
            (match d.Device.bgp with Some b -> b.neighbors | None -> [])
        with
        | None -> ()
        | Some nb ->
            (* the test exercises the peer's configuration directly *)
            (match
               Registry.find reg ~device:pi.router
                 (Element.key Bgp_peer (Ipv4.to_string pi.peer_ip))
             with
            | Some id -> cp_elements := id :: !cp_elements
            | None -> ());
            List.iter
              (fun p ->
                incr checks;
                let route = Testutil.test_route ~as_path:[ pi.asn ] p in
                let { Eval.verdict; exercised; _ } =
                  Eval.run_chain d
                    ~chain:(Device.neighbor_import d nb)
                    ~default:Eval.Accepted route
                in
                cp_elements :=
                  Testutil.ids_of_keys state ~host:pi.router exercised
                  @ !cp_elements;
                if verdict = Eval.Rejected then
                  failures :=
                    Printf.sprintf "%s rejects permitted %s from %s" pi.router
                      (Prefix.to_string p) pi.stub_host
                    :: !failures)
              pi.allowed)
      net.peers;
    {
      Nettest.outcome = { checks = !checks; failures = List.rev !failures };
      tested =
        {
          Netcov.dp_facts = [];
          cp_elements = List.sort_uniq Int.compare !cp_elements;
        };
    }
  in
  { Nettest.name = "PeerSpecificRoute"; kind = Nettest.Control_plane; run }

(* Iteration 3: PingMesh over interface addresses. *)
let interface_reachability (net : Internet2.t) : Nettest.t =
  let run state =
    let failures = ref [] in
    let checks = ref 0 in
    let seen = Fact.Tbl.create 4096 in
    let dp_facts = ref [] in
    let push f =
      if not (Fact.Tbl.mem seen f) then begin
        Fact.Tbl.add seen f ();
        dp_facts := f :: !dp_facts
      end
    in
    let targets =
      List.concat_map
        (fun host ->
          let d = Stable_state.find_device state host in
          List.filter_map
            (fun (i : Device.interface) ->
              Option.map (fun (ip, _) -> (host, i, ip)) i.address)
            d.Device.interfaces)
        net.routers
    in
    List.iter
      (fun src ->
        List.iter
          (fun (owner, (i : Device.interface), ip) ->
            if src = owner then begin
              (* local delivery: the connected entry is what's tested *)
              incr checks;
              match
                Rib.table_longest_match ip (Stable_state.main_rib state src)
              with
              | Some (_, entries) ->
                  List.iter
                    (fun entry -> push (Fact.F_main_rib { host = src; entry }))
                    entries
              | None ->
                  failures :=
                    Printf.sprintf "%s has no route to local %s" src
                      (Ipv4.to_string ip)
                    :: !failures
            end
            else if
              i.igp_enabled
              || List.exists (fun p -> Prefix.contains p ip) net.internal_prefixes
            then begin
              incr checks;
              if not (Nettest.reachable state ~push ~src ~dst:ip) then
                failures :=
                  Printf.sprintf "%s cannot reach %s (%s on %s)" src
                    (Ipv4.to_string ip) i.if_name owner
                  :: !failures
            end)
          targets)
      net.routers;
    {
      Nettest.outcome = { checks = !checks; failures = List.rev !failures };
      tested = { Netcov.dp_facts = List.rev !dp_facts; cp_elements = [] };
    }
  in
  { Nettest.name = "InterfaceReachability"; kind = Nettest.Data_plane; run }

let improved_suite net =
  Bagpipe.suite net
  @ [ sanity_in net; peer_specific_route net; interface_reachability net ]
