(* Quickstart: the paper's Figure 1 network, end to end.

   Two routers. R2 originates its LAN prefix 10.10.1.0/24 through a BGP
   network statement; R1 imports it through a routing policy. We declare
   one data plane test — "the route to 10.10.1.0/24 is present at R1" —
   and ask NetCov which configuration lines that test covers.

   Run with: dune exec examples/quickstart.exe *)

open Netcov_types
open Netcov_config
open Netcov_sim
open Netcov_core

(* ---- 1. Describe the devices (or parse them from text) ------------- *)

(* The two routers as Device.make records (lib/workloads/figure1.ml);
   Parse_junos and Parse_ios build the same records from config text. *)
let devices = Netcov_workloads.Figure1.devices ()

let () =
  (* ---- 2. Build the registry and compute the stable state ---------- *)
  let reg = Registry.build devices in
  let state = Stable_state.compute reg in
  Printf.printf "control plane converged in %d rounds; %d routing edges\n\n"
    (Stable_state.rounds state)
    (List.length (Stable_state.edges state));

  (* ---- 3. Declare what the test suite tested ----------------------- *)
  let tested_entry = Prefix.of_string "10.10.1.0/24" in
  let dp_facts =
    List.map
      (fun entry -> Fact.F_main_rib { host = "r1"; entry })
      (Stable_state.main_lookup state "r1" tested_entry)
  in
  assert (dp_facts <> []);
  Printf.printf "data plane test: route to %s present at r1  [PASS]\n\n"
    (Prefix.to_string tested_entry);

  (* ---- 4. Compute configuration coverage --------------------------- *)
  let report = Netcov.analyze state { Netcov.dp_facts; cp_elements = [] } in
  let stats = Coverage.line_stats report.Netcov.coverage in
  Printf.printf "configuration coverage: %.1f%% (%d of %d considered lines)\n"
    (Coverage.pct stats)
    (Coverage.covered_lines stats)
    stats.Coverage.considered;
  Printf.printf "IFG: %d nodes, %d edges; %d targeted simulations\n\n"
    report.Netcov.timing.ifg_nodes report.Netcov.timing.ifg_edges
    report.Netcov.timing.sim_count;

  (* ---- 5. Inspect the annotated configurations --------------------- *)
  List.iter
    (fun host ->
      Printf.printf "---- %s (+ strong, ~ weak, - uncovered, blank unconsidered)\n%s\n"
        host
        (Lcov.annotate report.Netcov.coverage host))
    [ "r1"; "r2" ];

  (* ---- 6. Or export the standard lcov report ----------------------- *)
  Lcov.write_tree report.Netcov.coverage "_quickstart_coverage";
  Printf.printf
    "wrote lcov report to _quickstart_coverage/coverage.info (plus rendered \
     configs)\n"
