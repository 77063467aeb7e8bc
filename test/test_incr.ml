(* Units for the incremental engine's building blocks: the
   typed-element registry diff, sim-cache replay revalidation,
   per-device coverage deltas, and full [Incr] sessions — an identity
   update, an edit on the chain network, both update paths on a
   fat-tree whose tests have many tested roots, a suite registered on
   a live session and a dropped test. The end-to-end
   incremental == scratch property on random networks lives in the
   [incremental-scratch] oracle (test_prop.ml). *)
open Netcov_config
open Netcov_sim
open Netcov_core
open Netcov_incr
open Netcov_check

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---------------- registry diff ------------------------------------ *)

let chain_devices = Testnet.chain

let map_device f target devs =
  List.map
    (fun (d : Device.t) -> if d.Device.hostname = target then f d else d)
    devs

let add_static (d : Device.t) =
  {
    d with
    Device.static_routes =
      {
        Device.st_prefix = Netcov_types.Prefix.of_string "10.200.0.0/24";
        st_next_hop = Netcov_types.Ipv4.zero;
      }
      :: d.Device.static_routes;
  }

let edit_interface (d : Device.t) =
  match d.Device.interfaces with
  | [] -> d
  | i :: rest ->
      {
        d with
        Device.interfaces = { i with Device.description = Some "edited" } :: rest;
      }

let test_diff_identity () =
  let old = Registry.build (chain_devices ()) in
  let next = Registry.build (chain_devices ()) in
  let d = Registry_diff.diff ~old next in
  check_bool "identical registries diff empty" true (Registry_diff.is_empty d);
  check_int "id_map covers old registry" (Registry.n_elements old)
    (Array.length d.Registry_diff.id_map);
  (* the id map is total and key-preserving on an identity diff *)
  Registry.iter_elements old (fun e ->
      let nid = d.Registry_diff.id_map.(e.Element.id) in
      check_bool "mapped" true (nid >= 0);
      let e' = Registry.element next nid in
      check_bool "same device" true (e.Element.device = e'.Element.device);
      check_bool "same key" true (e.Element.ekey = e'.Element.ekey))

let test_diff_added_removed () =
  let old = Registry.build (chain_devices ()) in
  let next = Registry.build (map_device add_static "b" (chain_devices ())) in
  let d = Registry_diff.diff ~old next in
  check_int "one added" 1 (List.length d.Registry_diff.added);
  check_int "nothing removed" 0 (List.length d.Registry_diff.removed);
  check_int "nothing changed" 0 (List.length d.Registry_diff.changed);
  let e = List.hd d.Registry_diff.added in
  check_bool "added on b" true (e.Registry_diff.e_device = "b");
  check_int "added has no old id" (-1) e.Registry_diff.e_old_id;
  check_bool "added has a new id" true (e.Registry_diff.e_new_id >= 0);
  check_bool "added has line provenance" true (e.Registry_diff.e_lines <> []);
  Alcotest.(check (list string))
    "only b changed" [ "b" ] d.Registry_diff.devices_changed;
  (* the reverse diff sees the same element as removed *)
  let r = Registry_diff.diff ~old:next old in
  check_int "one removed" 1 (List.length r.Registry_diff.removed);
  let e = List.hd r.Registry_diff.removed in
  check_int "removed has no new id" (-1) e.Registry_diff.e_new_id;
  check_bool "removed id unmapped" true
    (r.Registry_diff.id_map.(e.Registry_diff.e_old_id) = -1)

let test_diff_changed () =
  let old = Registry.build (chain_devices ()) in
  let next = Registry.build (map_device edit_interface "a" (chain_devices ())) in
  let d = Registry_diff.diff ~old next in
  check_int "nothing added" 0 (List.length d.Registry_diff.added);
  check_int "nothing removed" 0 (List.length d.Registry_diff.removed);
  check_int "one changed" 1 (List.length d.Registry_diff.changed);
  let e = List.hd d.Registry_diff.changed in
  check_bool "changed on a" true (e.Registry_diff.e_device = "a");
  check_bool "changed keeps both ids" true
    (e.Registry_diff.e_old_id >= 0 && e.Registry_diff.e_new_id >= 0);
  check_bool "summary names the device" true
    (let s = Registry_diff.summary d in
     String.length s > 0)

(* ---------------- sim-cache replay revalidation -------------------- *)

(* A generated scenario with a policied router, and tested facts that
   force that router's uplink import chain: its BGP-learned main-RIB
   entries. *)
let policied_state () =
  let rec hunt seed =
    if seed > 80 then Alcotest.fail "no policied scenario in 80 seeds"
    else
      let sc = Gen.generate ~seed Netgen.scenario in
      match sc.Netgen.net.Netgen.policied with
      | [] -> hunt (seed + 1)
      | i :: _ ->
          let state =
            Stable_state.compute
              (Registry.build (Netgen.devices_of sc.Netgen.net))
          in
          let host = Netgen.host i in
          let learned (entry : Rib.main_entry) =
            if entry.Rib.me_protocol = Netcov_types.Route.Bgp then
              Some (Fact.F_main_rib { host; entry })
            else None
          in
          let facts =
            List.concat_map
              (fun j ->
                List.filter_map learned
                  (Stable_state.main_lookup state host (Netgen.lan j)))
              (List.init sc.Netgen.net.Netgen.n_routers Fun.id)
          in
          if facts = [] then hunt (seed + 1) else (sc, state, host, facts)
  in
  hunt 1

let test_revalidate_hosts () =
  let sc, state, host, facts = policied_state () in
  let cache = Rules.create_sim_cache () in
  let g, _, _ = Materialize.run (Rules.make_ctx ~cache state) ~tested:facts in
  let l0 = Rules.sim_cache_length cache in
  check_bool "cache populated" true (l0 > 0);
  (* The policied router's import clauses are in the graph: the cache,
     which answered every evaluation of this materialization, holds an
     evaluation of its import chain. *)
  let reg = Stable_state.registry state in
  check_bool "import chain evaluated" true
    (List.exists
       (fun (_, eid) ->
         let e = Registry.element reg eid in
         e.Element.device = host
         && Element.etype_of e = Element.Route_policy_clause)
       (Ifg.config_nodes g));
  (* Replaying every entry against an identical state validates all of
     them (canonical-representative replay reproduces stored results),
     and a second replay validates them again: the first one stored
     each host's mask, with no analysis in between. *)
  let same =
    Stable_state.compute (Registry.build (Netgen.devices_of sc.Netgen.net))
  in
  List.iter
    (fun round ->
      let checked, dropped =
        Rules.sim_cache_revalidate_hosts cache same (fun _ -> true)
      in
      check_int (round ^ ": every entry replayed") l0 checked;
      check_int (round ^ ": identical state drops nothing") 0 dropped)
    [ "first replay"; "second replay" ];
  check_int "cache intact" l0 (Rules.sim_cache_length cache);
  (* A semantics-flipping edit that keeps every chain's attribute mask:
     each accepting term now rejects, its matches and modifiers
     untouched. The import chain's accepted evaluations now reject, so
     their entries are dropped because their verdicts changed; the
     evaluations of unchanged chains are kept. *)
  let flip (a : Policy_ast.action) =
    match a with Policy_ast.Accept -> Policy_ast.Reject | a -> a
  in
  let broken =
    List.map
      (fun (d : Netcov_config.Device.t) ->
        if d.Device.is_external then d
        else
          {
            d with
            Device.policies =
              List.map
                (fun (p : Policy_ast.policy) ->
                  {
                    p with
                    Policy_ast.terms =
                      List.map
                        (fun (t : Policy_ast.term) ->
                          {
                            t with
                            Policy_ast.actions =
                              List.map flip t.Policy_ast.actions;
                          })
                        p.Policy_ast.terms;
                  })
                d.Device.policies;
          })
      (Netgen.devices_of sc.Netgen.net)
  in
  let broken_state = Stable_state.compute (Registry.build broken) in
  let _, dropped =
    Rules.sim_cache_revalidate_hosts cache broken_state (fun _ -> true)
  in
  check_bool "invalid entries reported" true (dropped >= 1);
  check_bool "unchanged evaluations kept" true (dropped < l0);
  check_int "invalid entries removed" (l0 - dropped)
    (Rules.sim_cache_length cache);
  (* The replay stored the new devices' masks, so replaying the same
     edit again validates every surviving entry. *)
  let checked, dropped' =
    Rules.sim_cache_revalidate_hosts cache broken_state (fun _ -> true)
  in
  check_int "survivors replayed again" (l0 - dropped) checked;
  check_int "second replay drops nothing" 0 dropped'

(* ---------------- per-device coverage deltas ----------------------- *)

let test_by_device () =
  let state = Testnet.state_of (chain_devices ()) in
  let reg = Stable_state.registry state in
  let tested =
    List.map
      (fun entry -> Fact.F_main_rib { host = "c"; entry })
      (Stable_state.main_lookup state "c"
         (Netcov_types.Prefix.of_string "10.10.0.0/24"))
  in
  let baseline = Netcov.analyze state Netcov.no_tests in
  let current =
    Netcov.analyze state { Netcov.dp_facts = tested; cp_elements = [] }
  in
  let d =
    Coverage_diff.diff ~baseline:baseline.Netcov.coverage
      current.Netcov.coverage
  in
  check_bool "coverage gained" true
    (not (Element.Id_set.is_empty d.Coverage_diff.gained));
  let per = Coverage_diff.by_device reg d in
  check_bool "grouped by device" true (per <> []);
  check_bool "devices sorted" true
    (let names = List.map fst per in
     names = List.sort String.compare names);
  (* the per-device slices partition the global sets exactly *)
  let total =
    List.fold_left
      (fun acc (dev, delta) ->
        check_bool (dev ^ " slice non-empty") true
          (not (Coverage_diff.delta_is_empty delta));
        Element.Id_set.iter
          (fun id ->
            check_bool "owner matches" true
              ((Registry.element reg id).Element.device = dev))
          delta.Coverage_diff.d_gained;
        acc + Element.Id_set.cardinal delta.Coverage_diff.d_gained)
      0 per
  in
  check_int "slices partition gained" (Element.Id_set.cardinal d.Coverage_diff.gained) total;
  check_bool "empty delta recognized" true
    (Coverage_diff.delta_is_empty
       {
         Coverage_diff.d_gained = Element.Id_set.empty;
         d_lost = Element.Id_set.empty;
         d_strengthened = Element.Id_set.empty;
         d_weakened = Element.Id_set.empty;
       })

(* ---------------- incremental session ------------------------------ *)

let chain_tested state =
  let tested =
    List.map
      (fun entry -> Fact.F_main_rib { host = "c"; entry })
      (Stable_state.main_lookup state "c"
         (Netcov_types.Prefix.of_string "10.10.0.0/24"))
  in
  { Netcov.dp_facts = tested; cp_elements = [] }

let test_identity_update () =
  let state = Testnet.state_of (chain_devices ()) in
  let session, cold = Incr.create state [ chain_tested state ] in
  check_bool "cold run labels tested roots" true (cold.Incr.s_relabeled > 0);
  let fp0 = Json_export.coverage (Incr.report session).Netcov.coverage in
  (* same configuration, recomputed: everything must be reused *)
  let state' = Testnet.state_of (chain_devices ()) in
  let st = Incr.update session state' [ chain_tested state' ] in
  check_int "no changed elements" 0 st.Incr.s_changed;
  check_int "nothing relabeled" 0 st.Incr.s_relabeled;
  check_bool "tested roots reused" true (st.Incr.s_reused > 0);
  check_bool "full reuse ratio" true (st.Incr.s_reuse_ratio = 1.0);
  check_int "no sim evictions" 0 st.Incr.s_evicted_sim;
  check_bool "identity diff is empty" true
    (match Incr.last_diff session with
    | Some d -> Registry_diff.is_empty d
    | None -> false);
  check_bool "coverage unchanged" true
    (fp0 = Json_export.coverage (Incr.report session).Netcov.coverage)

let test_edit_update_matches_scratch () =
  let state = Testnet.state_of (chain_devices ()) in
  let session, _ = Incr.create state [ chain_tested state ] in
  (* live edit: a new static route on b *)
  let devs' = map_device add_static "b" (chain_devices ()) in
  let state' = Testnet.state_of devs' in
  let st = Incr.update session state' [ chain_tested state' ] in
  check_bool "edit was seen" true
    (match Incr.last_diff session with
    | Some d -> not (Registry_diff.is_empty d)
    | None -> false);
  check_bool "diff saw the added element" true (st.Incr.s_added >= 1);
  let merged =
    Netcov.merge_reports
      ~registry:(Stable_state.registry state')
      (Netcov.analyze_suite state' [ chain_tested state' ])
  in
  let scratch = Json_export.coverage merged.Netcov.coverage in
  check_bool "incremental equals scratch" true
    (Json_export.coverage (Incr.report session).Netcov.coverage = scratch)

let scratch_coverage state testeds =
  Json_export.coverage
    (Netcov.merge_reports
       ~registry:(Stable_state.registry state)
       (Netcov.analyze_suite state testeds))
      .Netcov.coverage

let check_scratch what session state testeds =
  check_bool (what ^ ": coverage equals scratch") true
    (Json_export.coverage (Incr.report session).Netcov.coverage
    = scratch_coverage state testeds)

(* Both update paths on a session whose tests each have many tested
   roots (the fat-tree k=4 datacenter suite). A description edit
   changes no behavior but is outside the fast path's element classes,
   so every test is re-analyzed. Then three edits in a row set the
   [upto] bound of one spine's IMPORT-WAN prefix match: behavior-free
   (the WAN stubs announce only the default route) and policy-class,
   so each takes the fast path. The later two hold only because a
   replay keeps the spine's attribute masks: the fast path runs no
   analysis that would memoize them again. After creation and after
   each edit the session's coverage must equal a scratch analysis byte
   for byte. *)
let test_fattree_paths () =
  let module Fattree = Netcov_workloads.Fattree in
  let ft = Fattree.generate ~k:4 () in
  let suite = Netcov_nettest.Datacenter.suite ft in
  let analyze devices =
    let state = Testnet.state_of devices in
    let testeds =
      List.map
        (fun (_, r) -> r.Netcov_nettest.Nettest.tested)
        (Netcov_nettest.Nettest.run_suite state suite)
    in
    (state, testeds)
  in
  let state, testeds = analyze ft.Fattree.devices in
  let session, cold = Incr.create state testeds in
  check_bool "tests have many tested roots" true
    (cold.Incr.s_relabeled > 2 * List.length testeds);
  check_scratch "create" session state testeds;
  let spine = List.hd ft.Fattree.spines in
  let described =
    map_device edit_interface (List.hd ft.Fattree.leaves) ft.Fattree.devices
  in
  let state, testeds = analyze described in
  let st = Incr.update session state testeds in
  check_int "description: one changed element" 1 st.Incr.s_changed;
  check_int "description: nothing reused" 0 st.Incr.s_reused;
  check_int "description: every root relabeled" cold.Incr.s_relabeled
    st.Incr.s_relabeled;
  check_scratch "description" session state testeds;
  let widen n (d : Device.t) =
    let widen_term (t : Policy_ast.term) =
      {
        t with
        Policy_ast.matches =
          List.map
            (function
              | Policy_ast.Match_prefix (p, _) ->
                  Policy_ast.Match_prefix (p, Policy_ast.Upto n)
              | m -> m)
            t.Policy_ast.matches;
      }
    in
    {
      d with
      Device.policies =
        List.map
          (fun (p : Policy_ast.policy) ->
            if p.Policy_ast.pol_name <> ft.Fattree.wan_import_policy then p
            else { p with Policy_ast.terms = List.map widen_term p.Policy_ast.terms })
          d.Device.policies;
    }
  in
  List.iter
    (fun n ->
      let what = Printf.sprintf "upto %d" n in
      let state, testeds = analyze (map_device (widen n) spine described) in
      let st = Incr.update session state testeds in
      check_int (what ^ ": one changed element") 1 st.Incr.s_changed;
      check_int (what ^ ": nothing relabeled") 0 st.Incr.s_relabeled;
      check_bool (what ^ ": full reuse ratio") true
        (st.Incr.s_reuse_ratio = 1.0);
      check_int (what ^ ": no sim entries evicted") 0 st.Incr.s_evicted_sim;
      check_scratch what session state testeds)
    [ 24; 20; 28 ]

(* The fat-tree k=4 datacenter suite, then a second suite of rib
   tests (each leaf subnet on each leaf), over one stable state. *)
let two_suites () =
  let module Fattree = Netcov_workloads.Fattree in
  let module Nettest = Netcov_nettest.Nettest in
  let ft = Fattree.generate ~k:4 () in
  let state = Testnet.state_of ft.Fattree.devices in
  let first =
    List.map
      (fun (_, r) -> r.Nettest.tested)
      (Nettest.run_suite state (Netcov_nettest.Datacenter.suite ft))
  in
  let second =
    List.concat_map
      (fun leaf ->
        List.map
          (fun (_, p) ->
            {
              Netcov.dp_facts = Nettest.main_facts state leaf p;
              cp_elements = [];
            })
          ft.Fattree.leaf_subnets)
      ft.Fattree.leaves
  in
  (state, first, second)

(* Registering a second suite on a live session (what netcov serve
   does) keeps the old tests as a prefix: only the appended tests are
   analyzed, as their own union, and merged into the stored labels. *)
let test_register_suite () =
  let state, first, second = two_suites () in
  let session, cold = Incr.create state first in
  check_scratch "first suite" session state first;
  let st = Incr.update session state (first @ second) in
  check_int "old roots reused" cold.Incr.s_relabeled st.Incr.s_reused;
  check_int "only the new tests' roots relabeled"
    (List.length (Netcov.union_tested second).Netcov.dp_facts)
    st.Incr.s_relabeled;
  check_bool "new tests have roots" true (st.Incr.s_relabeled > 0);
  check_scratch "both suites" session state (first @ second)

(* Dropping a test breaks the prefix: the whole union is re-analyzed. *)
let test_drop_test () =
  let state, first, second = two_suites () in
  let all = first @ second in
  let session, _ = Incr.create state all in
  let kept = List.filteri (fun i _ -> i <> 1) all in
  let st = Incr.update session state kept in
  check_int "nothing reused" 0 st.Incr.s_reused;
  check_int "every root of the remaining union relabeled"
    (List.length (Netcov.union_tested kept).Netcov.dp_facts)
    st.Incr.s_relabeled;
  check_scratch "after the drop" session state kept

let () =
  Alcotest.run "incr"
    [
      ( "registry-diff",
        [
          Alcotest.test_case "identity" `Quick test_diff_identity;
          Alcotest.test_case "added/removed" `Quick test_diff_added_removed;
          Alcotest.test_case "changed" `Quick test_diff_changed;
        ] );
      ( "sim-cache",
        [
          Alcotest.test_case "replay revalidation" `Quick test_revalidate_hosts;
        ] );
      ( "coverage-diff",
        [ Alcotest.test_case "by device" `Quick test_by_device ] );
      ( "session",
        [
          Alcotest.test_case "identity update" `Quick test_identity_update;
          Alcotest.test_case "edit matches scratch" `Quick
            test_edit_update_matches_scratch;
          Alcotest.test_case "fat-tree fast path and re-analysis" `Quick
            test_fattree_paths;
          Alcotest.test_case "registering a suite analyzes only its tests"
            `Quick test_register_suite;
          Alcotest.test_case "dropping a test re-analyzes the union" `Quick
            test_drop_test;
        ] );
    ]
