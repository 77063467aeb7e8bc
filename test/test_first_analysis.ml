(* Regression: a process's first analyses, started from several domains
   at once, must all succeed. Materialize once registered its per-rule
   metrics behind a module-level [lazy], and a domain forcing it while
   another was still forcing it raised CamlinternalLazy.Undefined. This
   file is an executable of its own, so the materializations below
   really are the first ones of the process; each domain builds its
   rule context first and then waits for the others, so the runs start
   together. *)
open Netcov_config
open Netcov_core
open Netcov_sim
open Netcov_nettest
open Netcov_workloads

let domains = 4

let test_concurrent_first_analyses () =
  let ft = Fattree.generate ~k:4 () in
  let state = Stable_state.compute (Registry.build ft.Fattree.devices) in
  let tested = ((Datacenter.default_route_check ft).Nettest.run state).Nettest.tested in
  let ready = Atomic.make 0 in
  let materialize () =
    let ctx = Rules.make_ctx state in
    Atomic.incr ready;
    while Atomic.get ready < domains do
      Domain.cpu_relax ()
    done;
    let g, _, _ = Materialize.run ctx ~tested:tested.Netcov.dp_facts in
    (Ifg.n_nodes g, Ifg.n_edges g)
  in
  let sizes = List.map Domain.join (List.init domains (fun _ -> Domain.spawn materialize)) in
  List.iter
    (fun s ->
      Alcotest.(check (pair int int)) "same IFG on every domain" (List.hd sizes) s)
    sizes;
  (* and a whole analysis still matches what the domains built *)
  let report = Netcov.analyze state tested in
  Alcotest.(check (pair int int))
    "analysis IFG" (List.hd sizes)
    (report.Netcov.timing.Netcov.ifg_nodes, report.Netcov.timing.Netcov.ifg_edges)

let () =
  Alcotest.run "first_analysis"
    [
      ( "first analysis",
        [
          Alcotest.test_case "concurrent first analyses" `Quick
            test_concurrent_first_analyses;
        ] );
    ]
