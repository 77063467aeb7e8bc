(* The fact interner (lib/core/intern.ml): dense stable ids, and the
   structural identity it hashes with, which must agree with Fact.key
   equality on every fact an analysis materializes. *)
open Netcov_types
open Netcov_config
open Netcov_sim
open Netcov_core
open Netcov_check

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let p = Prefix.of_string

let main_rib ?(metric = 0) host =
  Fact.F_main_rib
    {
      host;
      entry =
        {
          Rib.me_prefix = p "10.0.0.0/8";
          me_nexthop = Rib.Nh_discard;
          me_protocol = Route.Bgp;
          me_metric = metric;
        };
    }

let igp_rib ?(cost = 10) ?(dest_host = "b") host =
  Fact.F_igp_rib
    {
      host;
      entry =
        {
          Rib.ie_prefix = p "10.1.0.0/16";
          ie_nexthop = Ipv4.of_octets 10 1 0 1;
          ie_out_if = "ge-0/0/0";
          ie_cost = cost;
          ie_dest_host = dest_host;
          ie_dest_if = "ge-0/0/1";
        };
    }

let distinct_facts n =
  List.init n (fun i -> Fact.F_edge (Printf.sprintf "e%d" i))

(* ---------------- dense ids and stability ---------------- *)

let test_dense_stable () =
  let t = Intern.create () in
  let ids = List.map (Intern.intern t) (distinct_facts 8) in
  Alcotest.(check (list int)) "dense first-intern order" [ 0; 1; 2; 3; 4; 5; 6; 7 ] ids;
  let again = List.map (Intern.intern t) (distinct_facts 8) in
  Alcotest.(check (list int)) "re-intern returns the same ids" ids again;
  check_int "length counts distinct facts" 8 (Intern.length t)

let test_projected_fields_share_id () =
  let t = Intern.create () in
  let a = Intern.intern t (main_rib ~metric:0 "r1") in
  let b = Intern.intern t (main_rib ~metric:99 "r1") in
  check_int "main-RIB metric is outside the identity" a b;
  let c = Intern.intern t (igp_rib ~cost:10 ~dest_host:"b" "r2") in
  let d = Intern.intern t (igp_rib ~cost:77 ~dest_host:"z" "r2") in
  check_int "IGP cost and destination are outside the identity" c d;
  check_int "distinct hosts get distinct ids" 2 (Intern.length t)

(* ---------------- find and reverse lookup ---------------- *)

let test_find_roundtrip () =
  let t = Intern.create () in
  check_bool "find misses before intern" true (Intern.find t (main_rib "r1") = None);
  let id = Intern.intern t (main_rib "r1") in
  check_bool "find hits after intern" true (Intern.find t (main_rib "r1") = Some id);
  check_bool "fact inverts intern" true (Fact.equal (Intern.fact t id) (main_rib "r1"));
  Alcotest.check_raises "out-of-range id raises"
    (Invalid_argument "Intern.fact: id 1 out of [0, 1)") (fun () ->
      ignore (Intern.fact t 1))

let test_iter_snapshot () =
  let t = Intern.create () in
  let facts = distinct_facts 5 in
  List.iter (fun f -> ignore (Intern.intern t f)) facts;
  let seen = ref [] in
  Intern.iter t (fun id f -> seen := (id, Fact.key f) :: !seen);
  check_int "iter visits every fact" 5 (List.length !seen);
  List.iteri
    (fun i f ->
      check_bool "iter pairs ids with their facts" true
        (List.mem (i, Fact.key f) !seen))
    facts

(* ---------------- identity agrees with Fact.key ---------------- *)

(* Facts that differ from [f] only in fields the identity ignores: a
   main-RIB entry's metric, an IGP entry's cost and destination
   endpoint. *)
let ignored_field_variants = function
  | Fact.F_main_rib { host; entry } ->
      [
        Fact.F_main_rib
          { host; entry = { entry with Rib.me_metric = entry.Rib.me_metric + 1 } };
      ]
  | Fact.F_igp_rib { host; entry } ->
      List.map
        (fun entry -> Fact.F_igp_rib { host; entry })
        [
          { entry with Rib.ie_cost = entry.Rib.ie_cost + 1 };
          { entry with Rib.ie_dest_host = entry.Rib.ie_dest_host ^ "'" };
          { entry with Rib.ie_dest_if = entry.Rib.ie_dest_if ^ "'" };
        ]
  | _ -> []

(* Every fact of the IFG materialized from [tested] over [state], each
   followed by its ignored-field variants. *)
let ifg_facts (state, tested) =
  let g, _, _ = Materialize.run (Rules.make_ctx state) ~tested in
  let facts = ref [] in
  Intern.iter (Ifg.interner g) (fun _ f -> facts := f :: !facts);
  List.concat_map (fun f -> f :: ignored_field_variants f) !facts

(* The suites of a few generated scenarios, and a main-RIB lookup on
   the IGP diamond, whose iBGP next hops resolve through IGP-RIB facts
   (generated networks have none). *)
let identity_inputs () =
  let scenario seed =
    let sc = Gen.generate ~seed Netgen.scenario in
    let state =
      Stable_state.compute (Registry.build (Netgen.devices_of sc.Netgen.net))
    in
    let u =
      Netcov.union_tested (List.map (Netgen.tested_of state) sc.Netgen.tests)
    in
    (state, u.Netcov.dp_facts)
  in
  let diamond =
    let state = Testnet.state_of (Testnet.diamond ()) in
    ( state,
      List.map
        (fun entry -> Fact.F_main_rib { host = "d"; entry })
        (Stable_state.main_lookup state "d" (p "10.50.0.0/24")) )
  in
  diamond :: List.init 6 (fun i -> scenario (i + 1))

(* For every pair of facts of one graph: [Fact.equal a b] iff their
   keys are equal, and equal facts hash alike. *)
let test_equal_iff_same_key () =
  let main = ref 0 and igp = ref 0 in
  let check_graph input graph_facts =
    let facts = Array.of_list graph_facts in
    let keys = Array.map Fact.key facts in
    let hashes = Array.map Fact.hash facts in
    Array.iteri
      (fun i a ->
        (match a with
        | Fact.F_main_rib _ -> incr main
        | Fact.F_igp_rib _ -> incr igp
        | _ -> ());
        for j = i + 1 to Array.length facts - 1 do
          let equal = Fact.equal a facts.(j) in
          if equal <> String.equal keys.(i) keys.(j) then
            Alcotest.failf "input %d: Fact.equal is %b for keys %S and %S"
              input equal keys.(i) keys.(j);
          if equal && hashes.(i) <> hashes.(j) then
            Alcotest.failf "input %d: equal facts %S hash differently" input
              keys.(i)
        done)
      facts
  in
  List.iteri check_graph (List.map ifg_facts (identity_inputs ()));
  check_bool "main-RIB facts checked" true (!main > 0);
  check_bool "IGP-RIB facts checked" true (!igp > 0)

let () =
  Alcotest.run "intern"
    [
      ( "interner",
        [
          Alcotest.test_case "dense stable ids" `Quick test_dense_stable;
          Alcotest.test_case "identity projection" `Quick
            test_projected_fields_share_id;
          Alcotest.test_case "find/fact roundtrip" `Quick test_find_roundtrip;
          Alcotest.test_case "iter snapshot" `Quick test_iter_snapshot;
          Alcotest.test_case "equal iff same key" `Quick
            test_equal_iff_same_key;
        ] );
    ]
