(* Writing your own network test with the Probe API.

   The test below ("NoTransitLeak") checks a property the built-in suite
   does not: routes learned from a *provider* must never be exported to
   a *peer* or another *provider* (the Gao–Rexford valley-free rule).
   Because every probe query records what it inspected, the new test
   immediately participates in coverage analysis — this is the paper's
   §6.1.2 workflow ("add tests that target untested lines") from a test
   author's point of view.

   Run with: dune exec examples/custom_test.exe *)

open Netcov_types
open Netcov_config
open Netcov_sim
open Netcov_core
open Netcov_nettest
open Netcov_workloads

let no_transit_leak (net : Internet2.t) : Nettest.t =
  Probe.to_test ~name:"NoTransitLeak" ~kind:Nettest.Control_plane (fun p ->
      (* a synthetic route as a provider would send it: tagged with the
         provider class community on import *)
      let provider_route =
        Route.add_community
          (Route.originate (Prefix.of_string "100.77.0.0/24")
             ~next_hop:Ipv4.zero)
          (Netcov_workloads.Caida.tag ~local_as:net.Internet2.local_as
             Netcov_workloads.Caida.Provider)
      in
      List.iter
        (fun (pi : Internet2.peer_info) ->
          match pi.relationship with
          | Caida.Customer -> ()  (* customers may receive everything *)
          | Caida.Peer | Caida.Provider ->
              let verdict =
                Probe.export_verdict p ~host:pi.router ~neighbor:pi.peer_ip
                  provider_route
              in
              Probe.check p (verdict = `Rejected)
                (Printf.sprintf "%s leaks provider routes to %s (%s)" pi.router
                   pi.stub_host
                   (Caida.to_string pi.relationship)))
        net.Internet2.peers)

(* A second custom test, data plane flavored: every router must prefer
   an internal (iBGP) path over falling back to the default-free zone —
   i.e. the service LANs of all routers are reachable from everywhere. *)
let service_mesh (net : Internet2.t) : Nettest.t =
  Probe.to_test ~name:"ServiceMesh" ~kind:Nettest.Data_plane (fun p ->
      List.iter
        (fun src ->
          List.iteri
            (fun i dst_router ->
              if src <> dst_router then begin
                let dst = Ipv4.of_octets 198 32 (8 + i) 1 in
                let ok = Probe.reachable p ~src ~dst in
                Probe.check p ok
                  (Printf.sprintf "%s cannot reach service LAN of %s" src
                     dst_router)
              end)
            net.Internet2.routers)
        net.Internet2.routers)

let () =
  let net = Internet2.generate Internet2.default_params in
  let state = Stable_state.compute (Registry.build net.Internet2.devices) in
  let tests = [ no_transit_leak net; service_mesh net ] in
  let results = Nettest.run_suite state tests in
  List.iter
    (fun ((t : Nettest.t), (r : Nettest.result)) ->
      Printf.printf "%-16s %-13s %5d checks  %s\n" t.name
        (Nettest.kind_to_string t.kind)
        r.outcome.Nettest.checks
        (if Nettest.passed r.outcome then "PASS"
         else
           Printf.sprintf "FAIL (%d): %s"
             (List.length r.outcome.Nettest.failures)
             (match r.outcome.Nettest.failures with f :: _ -> f | [] -> ""));
      let report = Netcov.analyze state r.Nettest.tested in
      Printf.printf "  -> coverage contribution: %.1f%%\n"
        (Coverage.pct (Coverage.line_stats report.Netcov.coverage)))
    results;
  (* how much do the custom tests add on top of the improved suite? *)
  let base = Nettest.run_suite state (Iterations.improved_suite net) in
  let with_custom =
    Netcov.union_tested
      [ Nettest.suite_tested base; Nettest.suite_tested results ]
  in
  let before = Netcov.analyze state (Nettest.suite_tested base) in
  let after = Netcov.analyze state with_custom in
  Printf.printf "\nimproved suite: %.1f%%  ->  with custom tests: %.1f%%\n"
    (Coverage.pct (Coverage.line_stats before.Netcov.coverage))
    (Coverage.pct (Coverage.line_stats after.Netcov.coverage));
  let d =
    Coverage_diff.diff ~baseline:before.Netcov.coverage after.Netcov.coverage
  in
  print_string (Coverage_diff.summary (Stable_state.registry state) d)
