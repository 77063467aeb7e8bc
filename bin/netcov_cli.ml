(* netcov — command-line front end.

   Subcommands:
     internet2   run the Internet2 case study and write coverage reports
     fattree     run the datacenter case study and write coverage reports
     annotate    print one device's annotated configuration
     render      render a workload's configurations to a directory
     whatif      coverage under single-link failures (fat-tree suite)
     mutation    compare IFG coverage against mutation-based coverage
     audit       parse a config directory, report coverage ceiling (ERRORS.md)
     trace       run the Figure 1 example under the tracer, write trace JSON
     parse       syntax-check configuration files (exit 1 on the first error)
     incr        incrementally re-analyze a config change between two dirs
     serve       run the coverage-as-a-service HTTP daemon (docs/SERVE.md)
     fuzz        run the differential property oracles (docs/TESTING.md)

   Most analysis subcommands accept --trace FILE and --metrics FILE (see
   docs/OBSERVABILITY.md for the span taxonomy and metric catalog). *)

open Cmdliner
open Netcov_config
open Netcov_sim
open Netcov_core
open Netcov_nettest
open Netcov_workloads

let setup_logs verbose =
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level (Some (if verbose then Logs.Debug else Logs.Warning))

let verbose =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Enable debug logging.")

let out_dir =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "out" ] ~docv:"DIR"
        ~doc:"Write rendered configurations and an lcov report to $(docv).")

let trace_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record pipeline spans and write a Chrome trace_event JSON file to \
           $(docv) (open it in chrome://tracing or ui.perfetto.dev).")

let metrics_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Write the metrics registry as JSON to $(docv) when the run \
           finishes (schema in docs/OBSERVABILITY.md).")

(* Runs [f] with tracing enabled when requested, then exports the trace
   ring and/or metrics registry. Exports also happen when [f] raises, so
   a crashed run still leaves its telemetry behind. *)
let with_obs ~trace ~metrics f =
  if trace <> None then Netcov_obs.Trace.enable ();
  Fun.protect
    ~finally:(fun () ->
      Option.iter
        (fun file ->
          Netcov_obs.Trace.write file;
          Printf.printf "wrote %d trace events to %s (%d dropped)\n"
            (List.length (Netcov_obs.Trace.events ()))
            file
            (Netcov_obs.Trace.dropped ()))
        trace;
      Option.iter
        (fun file ->
          Netcov_obs.Metrics.write Netcov_obs.Metrics.default file;
          Printf.printf "wrote metrics to %s\n" file)
        metrics)
    f

(* Uniform parser-diagnostic exit: [file:line: message] on stderr and a
   clean exit code 1 — never an uncaught-exception backtrace. *)
let parse_error_exit ~file ~line message : 'a =
  Printf.eprintf "%s:%d: %s\n%!" file line message;
  exit 1

let syntax_arg =
  Arg.(
    value
    & opt (enum [ ("junos", `Junos); ("ios", `Ios) ]) `Junos
    & info [ "syntax" ] ~docv:"SYNTAX" ~doc:"Concrete syntax of the files.")

let i2_suite =
  Arg.(
    value
    & opt (enum [ ("bagpipe", `Bagpipe); ("improved", `Improved) ]) `Bagpipe
    & info [ "suite" ] ~docv:"SUITE"
        ~doc:"Test suite to run: $(b,bagpipe) or $(b,improved).")

let print_summary ~simulate_s results report =
  List.iter
    (fun ((t : Nettest.t), (r : Nettest.result)) ->
      Printf.printf "%-24s %-13s %6d checks  %s\n" t.name
        (Nettest.kind_to_string t.kind)
        r.outcome.Nettest.checks
        (if Nettest.passed r.outcome then "PASS"
         else Printf.sprintf "FAIL (%d)" (List.length r.outcome.Nettest.failures)))
    results;
  let stats = Coverage.line_stats report.Netcov.coverage in
  Printf.printf "\n%s" (Lcov.file_table report.Netcov.coverage);
  Printf.printf "weak lines: %d; dead code: %.1f%%\n" stats.Coverage.weak_lines
    (Netcov.dead_line_pct report);
  let tm = report.Netcov.timing in
  Printf.printf
    "timing: simulate %.2fs; coverage total %.2fs (materialize %.2fs incl. \
     targeted simulations %.2fs, labeling %.2fs); IFG %d nodes\n"
    simulate_s tm.Netcov.total_s tm.Netcov.materialize_s tm.Netcov.sim_s
    tm.Netcov.label_s tm.Netcov.ifg_nodes

let maybe_write ?(diags = []) ?(failures = []) out report =
  match out with
  | None -> ()
  | Some dir ->
      Lcov.write_tree report.Netcov.coverage dir;
      Html_report.write_tree report.Netcov.coverage (Filename.concat dir "html");
      let oc = open_out (Filename.concat dir "coverage.json") in
      output_string oc (Json_export.report ~diags ~failures report);
      close_out oc;
      Printf.printf
        "wrote %s/coverage.info, %s/coverage.json, %s/configs/ and %s/html/\n"
        dir dir dir dir

let internet2_cmd =
  let peers =
    Arg.(
      value & opt int 60
      & info [ "peers" ] ~docv:"N" ~doc:"Number of external eBGP peers.")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"S" ~doc:"Workload seed.")
  in
  let reflectors =
    Arg.(
      value
      & opt (some int) None
      & info [ "route-reflectors" ] ~docv:"N"
          ~doc:
            "Use $(docv) route reflectors instead of an iBGP full mesh \
             (the first $(docv) routers become reflectors).")
  in
  let run verbose peers seed reflectors suite out trace metrics =
    setup_logs verbose;
    with_obs ~trace ~metrics @@ fun () ->
    let ibgp =
      match reflectors with
      | None -> Internet2.Full_mesh
      | Some n -> Internet2.Route_reflectors n
    in
    let params = { Internet2.default_params with n_peers = peers; seed; ibgp } in
    let net = Internet2.generate params in
    let reg = Registry.build net.Internet2.devices in
    let state, simulate_s =
      Netcov_obs.Timing.time (fun () -> Stable_state.compute reg)
    in
    let tests =
      match suite with
      | `Bagpipe -> Bagpipe.suite net
      | `Improved -> Iterations.improved_suite net
    in
    let results = Nettest.run_suite state tests in
    let report = Netcov.analyze state (Nettest.suite_tested results) in
    print_summary ~simulate_s results report;
    maybe_write out report
  in
  Cmd.v
    (Cmd.info "internet2" ~doc:"Run the Internet2 backbone case study.")
    Term.(
      const run $ verbose $ peers $ seed $ reflectors $ i2_suite $ out_dir
      $ trace_out $ metrics_out)

let fattree_cmd =
  let k =
    Arg.(
      value & opt int 4 & info [ "k" ] ~docv:"K" ~doc:"Fat-tree arity (even, >= 4).")
  in
  let run verbose k out trace metrics =
    setup_logs verbose;
    with_obs ~trace ~metrics @@ fun () ->
    let ft = Fattree.generate ~k () in
    let reg = Registry.build ft.Fattree.devices in
    let state, simulate_s =
      Netcov_obs.Timing.time (fun () -> Stable_state.compute reg)
    in
    let results = Nettest.run_suite state (Datacenter.suite ft) in
    let report = Netcov.analyze state (Nettest.suite_tested results) in
    print_summary ~simulate_s results report;
    maybe_write out report
  in
  Cmd.v
    (Cmd.info "fattree" ~doc:"Run the fat-tree datacenter case study.")
    Term.(const run $ verbose $ k $ out_dir $ trace_out $ metrics_out)

let annotate_cmd =
  let device =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"DEVICE" ~doc:"Device hostname to annotate.")
  in
  let peers =
    Arg.(
      value & opt int 60
      & info [ "peers" ] ~docv:"N" ~doc:"Number of external eBGP peers.")
  in
  let run verbose device peers =
    setup_logs verbose;
    let params = { Internet2.default_params with n_peers = peers } in
    let net = Internet2.generate params in
    let state = Stable_state.compute (Registry.build net.Internet2.devices) in
    let results = Nettest.run_suite state (Iterations.improved_suite net) in
    let report = Netcov.analyze state (Nettest.suite_tested results) in
    print_string (Lcov.annotate report.Netcov.coverage device)
  in
  Cmd.v
    (Cmd.info "annotate"
       ~doc:
         "Print a device's configuration annotated with coverage from the \
          improved Internet2 suite.")
    Term.(const run $ verbose $ device $ peers)

let render_cmd =
  let workload =
    Arg.(
      value
      & opt (enum [ ("internet2", `I2); ("fattree", `Ft) ]) `I2
      & info [ "workload" ] ~docv:"W" ~doc:"Workload to render.")
  in
  let dir =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"DIR" ~doc:"Output directory.")
  in
  let run verbose workload dir =
    setup_logs verbose;
    let devices =
      match workload with
      | `I2 -> (Internet2.generate Internet2.default_params).Internet2.devices
      | `Ft -> (Fattree.generate ~k:4 ()).Fattree.devices
    in
    let reg = Registry.build devices in
    let report = Netcov.analyze (Stable_state.compute reg) Netcov.no_tests in
    Lcov.write_tree report.Netcov.coverage dir;
    Printf.printf "rendered %d internal devices into %s/configs/\n"
      (List.length (Registry.internal_devices reg))
      dir
  in
  Cmd.v
    (Cmd.info "render" ~doc:"Render a workload's configurations to files.")
    Term.(const run $ verbose $ workload $ dir)

let whatif_cmd =
  let k =
    Arg.(
      value & opt int 4 & info [ "k" ] ~docv:"K" ~doc:"Fat-tree arity (even, >= 4).")
  in
  let multipath =
    Arg.(
      value & opt int 1
      & info [ "multipath" ] ~docv:"M"
          ~doc:"ECMP width (1 makes backup links visible only under failures).")
  in
  let run verbose k multipath trace metrics =
    setup_logs verbose;
    with_obs ~trace ~metrics @@ fun () ->
    let ft = Fattree.generate ~k ~multipath () in
    let state = Stable_state.compute (Registry.build ft.Fattree.devices) in
    let suite =
      [ Datacenter.default_route_check ft; Datacenter.tor_pingmesh ft ]
    in
    let result = Whatif.run state suite in
    let stats cov = Coverage.pct (Coverage.line_stats cov) in
    Printf.printf "baseline coverage:                %.1f%%\n"
      (stats result.Whatif.baseline);
    Printf.printf "union over %d failure scenarios:  %.1f%%\n"
      (List.length result.Whatif.scenarios)
      (stats result.Whatif.union);
    let only = Whatif.failure_only result in
    Printf.printf "elements covered only under failures: %d\n"
      (Element.Id_set.cardinal only);
    let reg = Stable_state.registry state in
    Element.Id_set.elements only
    |> List.filteri (fun i _ -> i < 10)
    |> List.iter (fun id ->
           let e = Registry.element reg id in
           Printf.printf "  %s:%s\n" e.Element.device (Element.name_of e))
  in
  Cmd.v
    (Cmd.info "whatif"
       ~doc:"Coverage under single-link failures (fat-tree reachability suite).")
    Term.(const run $ verbose $ k $ multipath $ trace_out $ metrics_out)

let mutation_cmd =
  let k =
    Arg.(
      value & opt int 4 & info [ "k" ] ~docv:"K" ~doc:"Fat-tree arity (even, >= 4).")
  in
  let ops =
    Arg.(
      value
      & opt (enum [ ("delete", `Delete); ("all", `All) ]) `Delete
      & info [ "ops" ] ~docv:"OPS"
          ~doc:
            "Mutation operators: $(b,delete) (the paper's section 3.1 \
             definition, comparable to IFG coverage) or $(b,all) (adds \
             action flips, bound widening/narrowing, preference \
             perturbation, community drops).")
  in
  let run verbose k ops trace metrics =
    setup_logs verbose;
    with_obs ~trace ~metrics @@ fun () ->
    let ft = Fattree.generate ~k () in
    let reg = Registry.build ft.Fattree.devices in
    let state = Stable_state.compute reg in
    let t = Datacenter.default_route_check ft in
    let r = t.Nettest.run state in
    let report = Netcov.analyze state r.Nettest.tested in
    let covered = Coverage.covered_elements report.Netcov.coverage in
    let operators =
      match ops with
      | `Delete -> Mutation.default_operators
      | `All -> Mutation.all_operators
    in
    let mut =
      Netcov_parallel.Pool.with_pool (fun pool ->
          Mutation.run reg
            ~oracle:(Mutation.facts_oracle r.Nettest.tested.Netcov.dp_facts)
            ~operators ~pool ())
    in
    Printf.printf "IFG coverage:      %d elements\n" (Element.Id_set.cardinal covered);
    Printf.printf "mutation coverage: %d elements (%d mutants, %.1fs)\n"
      (Element.Id_set.cardinal mut.Mutation.killed)
      mut.Mutation.mutants_run mut.Mutation.seconds;
    Printf.printf "only IFG: %d; only mutation: %d\n"
      (Element.Id_set.cardinal (Element.Id_set.diff covered mut.Mutation.killed))
      (Element.Id_set.cardinal (Element.Id_set.diff mut.Mutation.killed covered))
  in
  Cmd.v
    (Cmd.info "mutation"
       ~doc:
         "Compare IFG coverage against mutation-based coverage (typed \
          mutation operators, one control-plane delta-recompute per mutant; \
          see docs/MUTATION.md).")
    Term.(const run $ verbose $ k $ ops $ trace_out $ metrics_out)

let trace_cmd =
  let file =
    Arg.(
      value
      & pos 0 string "trace.json"
      & info [] ~docv:"FILE" ~doc:"Trace output file (Chrome trace_event JSON).")
  in
  let run verbose file metrics =
    setup_logs verbose;
    with_obs ~trace:(Some file) ~metrics @@ fun () ->
    let module T = Netcov_obs.Trace in
    (* The paper's Figure 1 network, round-tripped through the Junos
       emitter and parser so the trace shows a genuine parse stage,
       then simulated and analyzed end to end. *)
    let texts =
      T.with_span "emit" @@ fun () ->
      List.map
        (fun d -> (d.Device.hostname, Emit_junos.to_string d))
        (Figure1.devices ())
    in
    let devices =
      List.map
        (fun (hostname, text) ->
          T.with_span "parse" ~args:[ ("file", T.S (hostname ^ ".cfg")) ]
          @@ fun () ->
          match Parse_junos.parse ~hostname text with
          | Ok d -> d
          | Error e ->
              parse_error_exit ~file:(hostname ^ ".cfg") ~line:e.Parse_junos.line
                e.Parse_junos.message)
        texts
    in
    let state = Stable_state.compute (Registry.build devices) in
    let tested_entry = Netcov_types.Prefix.of_string "10.10.1.0/24" in
    let dp_facts =
      List.map
        (fun entry -> Fact.F_main_rib { host = "r1"; entry })
        (Stable_state.main_lookup state "r1" tested_entry)
    in
    let report =
      Netcov.analyze state { Netcov.dp_facts; cp_elements = [] }
    in
    let stats = Coverage.line_stats report.Netcov.coverage in
    Printf.printf
      "figure 1 example: converged in %d rounds; coverage %.1f%% of %d \
       considered lines\n"
      (Stable_state.rounds state)
      (Coverage.pct stats) stats.Coverage.considered;
    List.iter
      (fun name ->
        match T.find_spans name with
        | [] -> ()
        | spans ->
            let total =
              List.fold_left (fun a (e : T.event) -> a +. e.ev_dur_us) 0. spans
            in
            Printf.printf "  %-12s %4d span(s)  %8.1f us\n" name
              (List.length spans) total)
      [ "emit"; "parse"; "simulate"; "analyze"; "materialize"; "label" ]
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run the paper's Figure 1 example (emit, parse, simulate, analyze) \
          with tracing on and write a Chrome trace_event JSON file.")
    Term.(const run $ verbose $ file $ metrics_out)

let audit_cmd =
  let dir =
    Arg.(
      required
      & pos 0 (some dir) None
      & info [] ~docv:"DIR"
          ~doc:"Directory of configuration files (*.cfg or *.conf).")
  in
  let mode =
    Arg.(
      value
      & vflag `Keep_going
          [
            ( `Keep_going,
              info [ "keep-going" ]
                ~doc:
                  "Recover from malformed stanzas, duplicate hostnames, \
                   unknown neighbors and crashing per-test analyses: collect \
                   diagnostics, emit a partial coverage report that embeds \
                   them, and exit 3 when anything was skipped (this is the \
                   default; see docs/ERRORS.md)." );
            ( `Strict,
              info [ "strict" ]
                ~doc:
                  "Fail fast: the first error-severity diagnostic aborts the \
                   run with exit 1. Warnings still print." );
          ])
  in
  let run verbose dir syntax mode out trace metrics =
    setup_logs verbose;
    let strict = mode = `Strict in
    let code =
      with_obs ~trace ~metrics @@ fun () ->
      let m_parse_files =
        Netcov_obs.Metrics.counter Netcov_obs.Metrics.default
          ~help:"configuration files parsed" ~unit_:"files" "parse.files"
      in
      let m_parse_errors =
        Netcov_obs.Metrics.counter Netcov_obs.Metrics.default
          ~help:"configuration files rejected by the parser" ~unit_:"files"
          "parse.errors"
      in
      let coll = Diag.collector () in
      (* Every diagnostic goes through here: collected for the report,
         printed as a [file:line: severity: message] line, and — under
         --strict — fatal at the first error severity. *)
      let emit d =
        Diag.add coll d;
        Printf.eprintf "%s\n%!" (Diag.to_string d);
        if strict && Diag.is_error d then exit 1
      in
      let files =
        Sys.readdir dir |> Array.to_list
        |> List.filter (fun f ->
               Filename.check_suffix f ".cfg" || Filename.check_suffix f ".conf")
        |> List.sort String.compare
      in
      if files = [] then begin
        Printf.eprintf "no *.cfg or *.conf files in %s\n" dir;
        exit 1
      end;
      let read_file path =
        let ic = open_in path in
        let n = in_channel_length ic in
        let s = really_input_string ic n in
        close_in ic;
        s
      in
      let devices =
        List.filter_map
          (fun f ->
            Netcov_obs.Trace.with_span "parse"
              ~args:[ ("file", Netcov_obs.Trace.S f) ]
            @@ fun () ->
            let hostname = Filename.remove_extension f in
            match read_file (Filename.concat dir f) with
            | exception Sys_error msg ->
                Netcov_obs.Metrics.inc m_parse_errors 1;
                emit (Diag.error ~file:f Diag.Io_error msg);
                None
            | text -> (
                Netcov_obs.Metrics.inc m_parse_files 1;
                (* --strict syntax-checks each file whole (a malformed
                   stanza is an error); --keep-going parses leniently,
                   skipping bad stanzas with a recovery warning. *)
                let parsed =
                  if strict then
                    match syntax with
                    | `Junos ->
                        Result.map
                          (fun d -> (d, []))
                          (Result.map_error
                             (fun (e : Parse_junos.error) ->
                               Diag.error ~file:f ~line:e.line Diag.Parse_error
                                 e.message)
                             (Parse_junos.parse ~hostname text))
                    | `Ios ->
                        Result.map
                          (fun d -> (d, []))
                          (Result.map_error
                             (fun (e : Parse_ios.error) ->
                               Diag.error ~file:f ~line:e.line Diag.Parse_error
                                 e.message)
                             (Parse_ios.parse ~hostname text))
                  else
                    match syntax with
                    | `Junos -> Parse_junos.parse_lenient ~file:f ~hostname text
                    | `Ios -> Parse_ios.parse_lenient ~file:f ~hostname text
                in
                match parsed with
                | Ok (d, warns) ->
                    List.iter emit warns;
                    Some d
                | Error diag ->
                    Netcov_obs.Metrics.inc m_parse_errors 1;
                    emit diag;
                    None))
          files
      in
      Printf.printf "parsed %d device(s)\n" (List.length devices);
      let reg, reg_diags = Registry.build_lenient devices in
      List.iter emit reg_diags;
      Printf.printf "%d elements across %d considered lines (%d total)\n"
        (Registry.n_elements reg)
        (Registry.considered_lines reg)
        (Registry.total_lines reg);
      let state = Stable_state.compute ~diags:emit reg in
      Printf.printf
        "stable state: %d main-RIB entries, %d BGP sessions, converged in %d \
         rounds\n"
        (Stable_state.total_main_entries state)
        (List.length (Stable_state.edges state) / 2)
        (Stable_state.rounds state);
      (* hypothetical full data plane test: the configuration a perfect
         data plane test suite could ever cover *)
      let all = Netcov_dpcov.Dpcov.all_data_plane_tested state in
      let outcome =
        Netcov.analyze_suite_isolated ~diags:emit
          ~labels:[ "data-plane-upper-bound" ] state [ all ]
      in
      let failures = outcome.Netcov.failures in
      let report = Netcov.merge_reports ~registry:reg outcome.Netcov.ok in
      let stats = Coverage.line_stats report.Netcov.coverage in
      Printf.printf
        "\nupper bound for data-plane testing: %.1f%% of considered lines\n"
        (Coverage.pct stats);
      Printf.printf "dead configuration: %.1f%%\n" (Netcov.dead_line_pct report);
      let by_reason = Hashtbl.create 8 in
      List.iter
        (fun (_, reason) ->
          Hashtbl.replace by_reason reason
            (1 + Option.value (Hashtbl.find_opt by_reason reason) ~default:0))
        report.Netcov.dead.Deadcode.details;
      Hashtbl.iter
        (fun reason n ->
          Printf.printf "  %4d x %s\n" n (Deadcode.reason_to_string reason))
        by_reason;
      maybe_write ~diags:(Diag.items coll) ~failures out report;
      if Diag.length coll > 0 || failures <> [] then 3 else 0
    in
    if code <> 0 then exit code
  in
  Cmd.v
    (Cmd.info "audit"
       ~doc:
         "Parse configuration files from a directory, simulate the network \
          and report the data-plane-testable coverage ceiling plus dead \
          configuration. Exits 0 on a clean run, 3 when $(b,--keep-going) \
          (the default) recovered from problems and wrote a partial report, \
          and 1 when $(b,--strict) hit an error (docs/ERRORS.md).")
    Term.(
      const run $ verbose $ dir $ syntax_arg $ mode $ out_dir $ trace_out
      $ metrics_out)

let parse_cmd =
  let files =
    Arg.(
      non_empty
      & pos_all file []
      & info [] ~docv:"FILE" ~doc:"Configuration files to syntax-check.")
  in
  let run verbose files syntax =
    setup_logs verbose;
    let read_file path =
      let ic = open_in path in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      s
    in
    List.iter
      (fun file ->
        let hostname = Filename.remove_extension (Filename.basename file) in
        let text =
          try read_file file
          with Sys_error msg ->
            (* unreadable file (directory, permissions, vanished after the
               cmdliner existence check): diagnostic, not a backtrace *)
            Printf.eprintf "%s\n%!" msg;
            exit 1
        in
        let parsed =
          match syntax with
          | `Junos ->
              Result.map_error
                (fun (e : Parse_junos.error) -> (e.line, e.message))
                (Parse_junos.parse ~hostname text)
          | `Ios ->
              Result.map_error
                (fun (e : Parse_ios.error) -> (e.line, e.message))
                (Parse_ios.parse ~hostname text)
        in
        match parsed with
        | Ok d ->
            Printf.printf "%s: ok (%s, %d elements)\n" file d.Device.hostname
              (List.length (Device.element_keys d))
        | Error (line, message) -> parse_error_exit ~file ~line message)
      files
  in
  Cmd.v
    (Cmd.info "parse"
       ~doc:
         "Syntax-check configuration files. Prints one line per parsed file; \
          on the first malformed file prints $(i,file:line: message) to \
          stderr and exits 1.")
    Term.(const run $ verbose $ files $ syntax_arg)

let incr_cmd =
  let baseline =
    Arg.(
      required
      & opt (some file) None
      & info [ "baseline" ] ~docv:"REPORT"
          ~doc:
            "Coverage report JSON of the old configuration (the \
             coverage.json an earlier run wrote with $(b,--out)). Used to \
             cross-check the recomputed old coverage and to report the \
             before/after delta.")
  in
  let old_dir =
    Arg.(
      required
      & opt (some dir) None
      & info [ "old" ] ~docv:"DIR"
          ~doc:"Directory of old configuration files (*.cfg or *.conf).")
  in
  let new_dir =
    Arg.(
      required
      & opt (some dir) None
      & info [ "new" ] ~docv:"DIR"
          ~doc:"Directory of new configuration files.")
  in
  let run verbose baseline old_dir new_dir syntax trace metrics =
    setup_logs verbose;
    with_obs ~trace ~metrics @@ fun () ->
    (* The baseline report is parsed before any configuration is
       touched: malformed report input is a user error, reported as
       "file: message" with exit 1, never a backtrace. *)
    let report_error msg =
      Printf.eprintf "%s: %s\n%!" baseline msg;
      exit 1
    in
    let bl =
      match Json_import.parse_file baseline with
      | Error msg -> report_error msg
      | Ok v -> v
    in
    let ( >>= ) o f = Option.bind o f in
    let bl_overall =
      match Json_import.member "coverage" bl >>= Json_import.member "overall" with
      | Some o -> o
      | None -> report_error "not a coverage report: missing coverage.overall"
    in
    let bl_num field =
      match Json_import.member field bl_overall >>= Json_import.to_num with
      | Some f -> f
      | None ->
          report_error
            (Printf.sprintf "not a coverage report: missing coverage.overall.%s"
               field)
    in
    let bl_pct = bl_num "percent" in
    let read_file path =
      let ic = open_in path in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      s
    in
    let load_dir dir =
      let files =
        Sys.readdir dir |> Array.to_list
        |> List.filter (fun f ->
               Filename.check_suffix f ".cfg" || Filename.check_suffix f ".conf")
        |> List.sort String.compare
      in
      if files = [] then begin
        Printf.eprintf "no *.cfg or *.conf files in %s\n" dir;
        exit 1
      end;
      List.map
        (fun f ->
          let path = Filename.concat dir f in
          let hostname = Filename.remove_extension f in
          let text =
            try read_file path
            with Sys_error msg ->
              Printf.eprintf "%s\n%!" msg;
              exit 1
          in
          match syntax with
          | `Junos -> (
              match Parse_junos.parse ~hostname text with
              | Ok d -> d
              | Error (e : Parse_junos.error) ->
                  parse_error_exit ~file:path ~line:e.line e.message)
          | `Ios -> (
              match Parse_ios.parse ~hostname text with
              | Ok d -> d
              | Error (e : Parse_ios.error) ->
                  parse_error_exit ~file:path ~line:e.line e.message))
        files
    in
    let module Incr = Netcov_incr.Incr in
    let module Registry_diff = Netcov_incr.Registry_diff in
    let state_old = Stable_state.compute (Registry.build (load_dir old_dir)) in
    let tested_old = Netcov_dpcov.Dpcov.all_data_plane_tested state_old in
    let session, _ = Incr.create state_old [ tested_old ] in
    let rep_old = Incr.report session in
    let old_pct = Coverage.line_stats rep_old.Netcov.coverage |> Coverage.pct in
    if Float.abs (old_pct -. bl_pct) > 0.05 then
      Printf.printf
        "warning: baseline report says %.1f%% but the old configuration \
         recomputes to %.1f%% — stale baseline?\n"
        bl_pct old_pct;
    let state_new =
      Stable_state.recompute ~prev:state_old (Registry.build (load_dir new_dir))
    in
    let tested_new = Netcov_dpcov.Dpcov.all_data_plane_tested state_new in
    let ustats = Incr.update session state_new [ tested_new ] in
    let rep = Incr.report session in
    Option.iter
      (fun d -> print_string (Registry_diff.summary d))
      (Incr.last_diff session);
    print_string (Incr.summary ustats);
    let pct = Coverage.line_stats rep.Netcov.coverage |> Coverage.pct in
    Printf.printf "coverage: %.1f%% -> %.1f%% of considered lines\n" old_pct pct;
    let reg_new = Incr.registry session in
    if
      Registry.n_elements (Coverage.registry rep_old.Netcov.coverage)
      = Registry.n_elements reg_new
    then begin
      let d =
        Coverage_diff.diff ~baseline:rep_old.Netcov.coverage rep.Netcov.coverage
      in
      let card = Element.Id_set.cardinal in
      List.iter
        (fun (dev, (dd : Coverage_diff.device_delta)) ->
          Printf.printf "  %s: +%d gained, -%d lost, %d strengthened, %d weakened\n"
            dev
            (card dd.Coverage_diff.d_gained)
            (card dd.Coverage_diff.d_lost)
            (card dd.Coverage_diff.d_strengthened)
            (card dd.Coverage_diff.d_weakened))
        (Coverage_diff.by_device reg_new d)
    end
    else
      Printf.printf
        "(element sets differ between versions; per-device delta skipped)\n"
  in
  Cmd.v
    (Cmd.info "incr"
       ~doc:
         "Incrementally re-analyze a configuration change: diff the old and \
          new configuration directories at the element level, replay the \
          cached simulations of changed devices, reuse the stored labels \
          when the change provably moves no behavior and re-analyze \
          otherwise, then report per-device coverage changes \
          (docs/INCREMENTAL.md). Exits 1 with $(i,file: message) on a \
          malformed baseline report.")
    Term.(
      const run $ verbose $ baseline $ old_dir $ new_dir $ syntax_arg
      $ trace_out $ metrics_out)

let serve_cmd =
  let host =
    Arg.(
      value
      & opt string "127.0.0.1"
      & info [ "host" ] ~docv:"HOST"
          ~doc:"Address to bind (name or dotted quad).")
  in
  let port =
    Arg.(
      value & opt int 8080
      & info [ "port" ] ~docv:"PORT"
          ~doc:"TCP port to listen on (0 picks an ephemeral port).")
  in
  let max_networks =
    Arg.(
      value & opt int 64
      & info [ "max-networks" ] ~docv:"N"
          ~doc:
            "Maximum number of concurrently registered networks; uploads \
             beyond it are answered 409 until one is deleted.")
  in
  let handlers =
    Arg.(
      value
      & opt (some int) None
      & info [ "handlers" ] ~docv:"N"
          ~doc:
            "Connections served at once, each on its own handler domain \
             (default: the pool default, $(b,NETCOV_DOMAINS) or the core \
             count). With 1 the daemon is single-threaded: the accept loop \
             serves each connection itself and the next one waits.")
  in
  let run verbose host port max_networks handlers metrics =
    (* serve is long-running and operator-facing: request logs (Info)
       are on by default, -v raises them to Debug. *)
    Logs.set_reporter (Logs.format_reporter ());
    Logs.set_level (Some (if verbose then Logs.Debug else Logs.Info));
    with_obs ~trace:None ~metrics @@ fun () ->
    let server =
      Netcov_serve.Server.create ~host ~port ~max_networks ?handlers ()
    in
    let stop _ = Netcov_serve.Server.shutdown server in
    Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
    Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
    (* SIGPIPE would kill the process when a peer disappears mid-write *)
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    Printf.printf
      "netcov serve: listening on http://%s:%d (API reference: \
       docs/SERVE.md; Ctrl-C for graceful shutdown)\n%!"
      host
      (Netcov_serve.Server.port server);
    Netcov_serve.Server.serve server
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the coverage-as-a-service daemon: a long-running HTTP server \
          that keeps one warm incremental session per uploaded network \
          (registry, interner, BDD tables and simulation memo cache persist \
          across requests) and exposes a JSON API — upload configurations, \
          register test suites, apply configuration deltas and read coverage \
          reports, plus /metrics and /healthz (API reference in \
          docs/SERVE.md). SIGINT/SIGTERM shut down gracefully: in-flight \
          requests finish, new connections are refused.")
    Term.(
      const run $ verbose $ host $ port $ max_networks $ handlers
      $ metrics_out)

let fuzz_cmd =
  let seed =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"N"
          ~doc:
            "Root seed of the run. Failures print a per-iteration \
             reproduction seed; pass it back here with $(b,--iters) 1 to \
             replay one counterexample.")
  in
  let iters =
    Arg.(
      value & opt int 200
      & info [ "iters" ] ~docv:"K" ~doc:"Iterations per oracle.")
  in
  let oracles =
    Arg.(
      value & opt_all string []
      & info [ "oracle" ] ~docv:"NAME"
          ~doc:"Run only oracle $(docv) (repeatable; default: all).")
  in
  let run verbose seed iters oracles =
    setup_logs verbose;
    List.iter
      (fun n ->
        if Netcov_check.Oracles.find n = None then begin
          Printf.eprintf "unknown oracle %S; available: %s\n" n
            (String.concat ", "
               (List.map
                  (fun (o : Netcov_check.Oracles.t) -> o.Netcov_check.Oracles.name)
                  Netcov_check.Oracles.all));
          exit 2
        end)
      oracles;
    let names = match oracles with [] -> None | ns -> Some ns in
    let ok =
      try Netcov_check.Oracles.run_all ?names ~seed ~iters ()
      with e ->
        (* An oracle escaping with an exception is a harness bug, but it
           should still fail like a counterexample: one diagnostic line
           and exit 1, never an uncaught-exception backtrace. *)
        Printf.eprintf "fuzz: oracle crashed: %s\n%!" (Printexc.to_string e);
        exit 1
    in
    if not ok then exit 1
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Run the seven differential property oracles (emit/parse \
          roundtrip, parallel determinism, BDD vs truth table, coverage \
          monotonicity/merge, fault-isolation, incremental-scratch, \
          mutation-falsifiability) on random networks. Exits 1 and prints \
          a shrunk counterexample plus a reproduction seed on any \
          divergence. See docs/TESTING.md.")
    Term.(const run $ verbose $ seed $ iters $ oracles)

let () =
  let doc = "test coverage for network configurations (NetCov, NSDI 2023)" in
  let info = Cmd.info "netcov" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            internet2_cmd;
            fattree_cmd;
            annotate_cmd;
            render_cmd;
            whatif_cmd;
            mutation_cmd;
            audit_cmd;
            incr_cmd;
            serve_cmd;
            trace_cmd;
            parse_cmd;
            fuzz_cmd;
          ]))
