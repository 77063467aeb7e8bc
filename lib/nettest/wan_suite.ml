open Netcov_types
open Netcov_config
open Netcov_policy
open Netcov_sim
open Netcov_core
open Netcov_workloads

(* Every client router must hold a route for every LAN of its own AS:
   those routes only exist via the reflectors, so this is the test
   that fails when route reflection is misconfigured. *)
let rr_client_routes (w : Wan.t) : Nettest.t =
  let as_of name =
    List.find_map
      (fun (a, nm) -> if nm = name then Some a else None)
      w.Wan.routers
  in
  let run state =
    let failures = ref [] in
    let checks = ref 0 in
    let dp_facts = ref [] in
    List.iter
      (fun (a, name) ->
        if List.mem name w.Wan.clients then
          List.iter
            (fun (owner, prefix) ->
              if owner <> name && as_of owner = Some a then begin
                incr checks;
                match Nettest.main_facts state name prefix with
                | [] ->
                    failures :=
                      Printf.sprintf "%s lacks reflected route %s (from %s)"
                        name (Prefix.to_string prefix) owner
                      :: !failures
                | facts -> dp_facts := facts @ !dp_facts
              end)
            w.Wan.lans)
      w.Wan.routers;
    {
      Nettest.outcome = { checks = !checks; failures = List.rev !failures };
      tested = { Netcov.dp_facts = List.rev !dp_facts; cp_elements = [] };
    }
  in
  { Nettest.name = "RRClientRoutes"; kind = Nettest.Data_plane; run }

(* Cross-AS reachability: from a sample router of every AS, trace to
   one LAN of every other AS. The interesting property is transit —
   the far side of the AS ring is only reachable through intermediate
   ASes' border policies. *)
let wan_pingmesh (w : Wan.t) : Nettest.t =
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
    let sample_src a =
      (* the first client of each AS: reaches the border via IGP and
         the reflected route *)
      Printf.sprintf "as%d-r%d" a w.Wan.n_rr
    in
    let sample_dst b =
      (* the last router's LAN: owned by the exit border router *)
      List.assoc
        (Printf.sprintf "as%d-r%d" b (w.Wan.routers_per_as - 1))
        w.Wan.lans
    in
    for a = 0 to w.Wan.n_ases - 1 do
      for b = 0 to w.Wan.n_ases - 1 do
        if a <> b then begin
          incr checks;
          let src = sample_src a in
          let dst = Prefix.first_host (sample_dst b) in
          if not (Nettest.reachable state ~push ~src ~dst) then
            failures :=
              Printf.sprintf "AS%d (%s) cannot reach AS%d (%s)" a src b
                (Ipv4.to_string dst)
              :: !failures
        end
      done
    done;
    {
      Nettest.outcome = { checks = !checks; failures = List.rev !failures };
      tested = { Netcov.dp_facts = List.rev !dp_facts; cp_elements = [] };
    }
  in
  { Nettest.name = "WanPingmesh"; kind = Nettest.Data_plane; run }

(* Every border router must export its own AS's LANs over every
   inter-AS session — evaluated directly on the export chain, which
   marks the WAN-OUT / AS-LANS elements as control-plane tested. *)
let border_export (w : Wan.t) : Nettest.t =
  let run state =
    let failures = ref [] in
    let checks = ref 0 in
    let dp_facts = ref [] in
    let cp_elements = ref [] in
    let check_end host =
      let d = Stable_state.find_device state host in
      let own_lan = List.assoc host w.Wan.lans in
      match Stable_state.bgp_lookup_best state host own_lan with
      | [] ->
          incr checks;
          failures :=
            Printf.sprintf "%s has no active route for its own LAN %s" host
              (Prefix.to_string own_lan)
            :: !failures
      | entries ->
          List.iter
            (fun (e : Rib.bgp_entry) ->
              dp_facts :=
                Fact.F_bgp_rib
                  { host; route = e.be_route; source = e.be_source }
                :: !dp_facts;
              match d.Device.bgp with
              | None -> ()
              | Some b ->
                  List.iter
                    (fun (nb : Device.neighbor) ->
                      if nb.Device.nb_group = Some "WAN" then begin
                        incr checks;
                        let { Eval.verdict; exercised; _ } =
                          Eval.run_chain d
                            ~chain:(Device.neighbor_export d nb)
                            ~default:Eval.Accepted e.be_route
                        in
                        cp_elements :=
                          Testutil.ids_of_keys state ~host exercised
                          @ !cp_elements;
                        if verdict = Eval.Rejected then
                          failures :=
                            Printf.sprintf "%s does not export %s to %s" host
                              (Prefix.to_string own_lan)
                              (Ipv4.to_string nb.Device.nb_ip)
                            :: !failures
                      end)
                    b.Device.neighbors)
            entries
    in
    List.iter
      (fun (s : Wan.session) ->
        check_end s.Wan.ss_local;
        check_end s.Wan.ss_remote)
      w.Wan.borders;
    {
      Nettest.outcome = { checks = !checks; failures = List.rev !failures };
      tested =
        {
          Netcov.dp_facts = List.rev !dp_facts;
          cp_elements = List.sort_uniq Int.compare !cp_elements;
        };
    }
  in
  { Nettest.name = "BorderExportPolicy"; kind = Nettest.Data_plane; run }

let suite w = [ rr_client_routes w; wan_pingmesh w; border_export w ]
