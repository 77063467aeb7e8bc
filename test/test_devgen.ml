(* Property tests over randomly generated device configurations:
   emit/parse round-trips for both syntaxes, registry invariants, and
   total robustness of the analyses. The devices come from the oracles'
   generator, Netcov_check.Netgen.device. *)
open Netcov_config

let canon_bgp (bgp : Device.bgp_config option) =
  Option.map
    (fun (c : Device.bgp_config) ->
      {
        c with
        Device.neighbors =
          List.sort
            (fun (x : Device.neighbor) (y : Device.neighbor) ->
              Netcov_types.Ipv4.compare x.nb_ip y.nb_ip)
            c.neighbors;
      })
    bgp

let same (a : Device.t) (b : Device.t) =
  a.hostname = b.hostname && a.interfaces = b.interfaces
  && a.static_routes = b.static_routes
  && a.acls = b.acls
  && a.prefix_lists = b.prefix_lists
  && a.community_lists = b.community_lists
  && a.as_path_lists = b.as_path_lists
  && a.policies = b.policies
  && canon_bgp a.bgp = canon_bgp b.bgp

let device_test ~name ~count prop =
  QCheck2.Test.make ~name ~count ~print:Emit_junos.to_string
    Netcov_check.Netgen.device prop

let prop_junos_roundtrip =
  device_test ~name:"random device junos round-trip" ~count:150 (fun d ->
      let d = { d with Device.syntax = Device.Junos } in
      match Parse_junos.parse (Emit_junos.to_string d) with
      | Ok d' -> same d d'
      | Error e -> QCheck2.Test.fail_report (Parse_junos.error_to_string e))

let prop_ios_roundtrip =
  device_test ~name:"random device ios round-trip" ~count:150 (fun d ->
      let d = { d with Device.syntax = Device.Ios } in
      match Parse_ios.parse (Emit_ios.to_string d) with
      | Ok d' -> same d d'
      | Error e -> QCheck2.Test.fail_report (Parse_ios.error_to_string e))

let prop_registry_line_ownership =
  device_test ~name:"registry line ownership is consistent" ~count:100
    (fun d ->
      let reg = Registry.build [ d ] in
      let host = d.Device.hostname in
      let ok = ref (Registry.considered_lines reg <= Registry.total_lines reg) in
      List.iter
        (fun id ->
          let e = Registry.element reg id in
          List.iter
            (fun ln ->
              if Registry.line_owner reg host ln <> Some id then ok := false)
            e.Element.lines)
        (Registry.elements_of_device reg host);
      (* owned line count equals the sum over elements *)
      let sum =
        List.fold_left
          (fun acc id -> acc + Element.line_count (Registry.element reg id))
          0
          (Registry.elements_of_device reg host)
      in
      !ok && sum = Registry.considered_lines reg)

let prop_element_keys_unique =
  device_test ~name:"element keys are unique per device" ~count:150 (fun d ->
      let keys = Device.element_keys d in
      List.length keys
      = List.length (List.sort_uniq Element.compare_key keys))

let prop_deadcode_total =
  device_test ~name:"dead-code analysis is total and within bounds" ~count:100
    (fun d ->
      let reg = Registry.build [ d ] in
      let report = Deadcode.analyze reg in
      Element.Id_set.for_all
        (fun id -> id >= 0 && id < Registry.n_elements reg)
        report.Deadcode.dead
      && Deadcode.dead_lines reg report <= Registry.considered_lines reg)

let prop_emit_deterministic =
  device_test ~name:"emission is deterministic" ~count:100 (fun d ->
      Emit_junos.to_string d = Emit_junos.to_string d
      && Emit_ios.to_string d = Emit_ios.to_string d)

let prop_simulation_total =
  device_test ~name:"simulation never raises on random single devices" ~count:50
    (fun d ->
      let state =
        Netcov_sim.Stable_state.compute (Registry.build [ d ])
      in
      Netcov_sim.Stable_state.rounds state >= 0)

let () =
  Alcotest.run "devgen"
    [
      ( "props",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_junos_roundtrip;
            prop_ios_roundtrip;
            prop_registry_line_ownership;
            prop_element_keys_unique;
            prop_deadcode_total;
            prop_emit_deterministic;
            prop_simulation_total;
          ] );
    ]
