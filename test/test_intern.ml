(* The fact interner (lib/core/intern.ml): dense stable ids, the
   structural-identity projection (equal to Fact.key equality) and the
   By_key reference mode. *)
open Netcov_types
open Netcov_sim
open Netcov_core

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

(* ---------------- modes agree ---------------- *)

let test_modes_assign_same_ids () =
  let s = Intern.create ~mode:Intern.Structural () in
  let k = Intern.create ~mode:Intern.By_key () in
  let facts =
    distinct_facts 4
    @ [ main_rib ~metric:0 "r1"; main_rib ~metric:5 "r1"; igp_rib "r2" ]
  in
  List.iter
    (fun f -> check_int (Fact.key f) (Intern.intern k f) (Intern.intern s f))
    facts;
  check_int "same distinct count" (Intern.length k) (Intern.length s)

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
          Alcotest.test_case "modes assign same ids" `Quick
            test_modes_assign_same_ids;
        ] );
    ]
