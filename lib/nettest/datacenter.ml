open Netcov_types
open Netcov_config
open Netcov_policy
open Netcov_sim
open Netcov_core
open Netcov_workloads

let internal_routers (ft : Fattree.t) = ft.leaves @ ft.aggs @ ft.spines

(* Every router must hold the default route. *)
let default_route_check (ft : Fattree.t) : Nettest.t =
  let run state =
    let failures = ref [] in
    let checks = ref 0 in
    let dp_facts = ref [] in
    List.iter
      (fun host ->
        incr checks;
        match Nettest.main_facts state host Prefix.default with
        | [] -> failures := Printf.sprintf "%s lacks a default route" host :: !failures
        | facts -> dp_facts := facts @ !dp_facts)
      (internal_routers ft);
    {
      Nettest.outcome = { checks = !checks; failures = List.rev !failures };
      tested = { Netcov.dp_facts = List.rev !dp_facts; cp_elements = [] };
    }
  in
  { Nettest.name = "DefaultRouteCheck"; kind = Nettest.Data_plane; run }

(* Each leaf subnet must be reachable from every other leaf. The probe
   exercises the forwarding entries along every ECMP path. *)
let tor_pingmesh (ft : Fattree.t) : Nettest.t =
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
    List.iter
      (fun src ->
        List.iter
          (fun (dst_leaf, subnet) ->
            if src <> dst_leaf then begin
              incr checks;
              let dst = Prefix.first_host subnet in
              if not (Nettest.reachable state ~push ~src ~dst) then
                failures :=
                  Printf.sprintf "%s cannot reach %s (%s)" src
                    (Prefix.to_string subnet) dst_leaf
                  :: !failures
            end)
          ft.leaf_subnets)
      ft.leaves;
    {
      Nettest.outcome = { checks = !checks; failures = List.rev !failures };
      tested = { Netcov.dp_facts = List.rev !dp_facts; cp_elements = [] };
    }
  in
  { Nettest.name = "ToRPingmesh"; kind = Nettest.Data_plane; run }

(* Each spine must hold the aggregate and its WAN export policy must
   advertise it. *)
let export_aggregate (ft : Fattree.t) : Nettest.t =
  let run state =
    let failures = ref [] in
    let checks = ref 0 in
    let dp_facts = ref [] in
    let cp_elements = ref [] in
    List.iter
      (fun spine ->
        incr checks;
        let d = Stable_state.find_device state spine in
        match Stable_state.bgp_lookup_best state spine ft.aggregate_prefix with
        | [] ->
            failures :=
              Printf.sprintf "%s has no active aggregate %s" spine
                (Prefix.to_string ft.aggregate_prefix)
              :: !failures
        | entries ->
            List.iter
              (fun (e : Rib.bgp_entry) ->
                dp_facts :=
                  Fact.F_bgp_rib
                    { host = spine; route = e.be_route; source = e.be_source }
                  :: !dp_facts;
                (* simulate the WAN export: the test's assertion *)
                List.iter
                  (fun ((nb : Device.neighbor), _) ->
                    let { Eval.verdict; exercised; _ } =
                      Eval.run_chain d
                        ~chain:(Device.neighbor_export d nb)
                        ~default:Eval.Accepted e.be_route
                    in
                    cp_elements :=
                      Testutil.ids_of_keys state ~host:spine exercised
                      @ !cp_elements;
                    if verdict = Eval.Rejected then
                      failures :=
                        Printf.sprintf "%s does not export the aggregate to %s"
                          spine
                          (Ipv4.to_string nb.nb_ip)
                        :: !failures)
                  (Testutil.external_neighbors state spine))
              entries)
      ft.spines;
    {
      Nettest.outcome = { checks = !checks; failures = List.rev !failures };
      tested =
        {
          Netcov.dp_facts = List.rev !dp_facts;
          cp_elements = List.sort_uniq Int.compare !cp_elements;
        };
    }
  in
  { Nettest.name = "ExportAggregate"; kind = Nettest.Data_plane; run }

let suite ft = [ default_route_check ft; tor_pingmesh ft; export_aggregate ft ]
