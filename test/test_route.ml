open Netcov_types

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let base = Route.originate (Prefix.of_string "10.1.0.0/16") ~next_hop:(Ipv4.of_string "1.1.1.1")

let test_originate_defaults () =
  check_int "lp" Route.default_local_pref base.Route.local_pref;
  check_int "med" 0 base.Route.med;
  check_int "path len" 0 (As_path.length base.Route.as_path);
  check_bool "origin igp" true (base.Route.origin = Route.Origin_igp)

let test_as_path_ops () =
  let p = As_path.of_list [ 2; 3 ] in
  let p' = As_path.prepend 1 p in
  Alcotest.(check (list int)) "prepend" [ 1; 2; 3 ] (As_path.to_list p');
  let p'' = As_path.prepend 9 ~times:3 p' in
  check_int "times" 6 (As_path.length p'');
  check_bool "mem" true (As_path.mem 3 p'');
  check_bool "head" true (As_path.head p'' = Some 9);
  check_bool "origin" true (As_path.origin p'' = Some 3);
  check_bool "empty origin" true (As_path.origin As_path.empty = None);
  Alcotest.(check string) "to_string" "1 2 3" (As_path.to_string p');
  check_bool "of_string" true (As_path.equal p' (As_path.of_string "1 2 3"))

let test_compare_total () =
  let r1 = { base with Route.local_pref = 200 } in
  check_bool "neq" false (Route.equal_bgp base r1);
  check_bool "eq self" true (Route.equal_bgp base base);
  check_bool "antisym" true
    (Route.compare_bgp base r1 = -Route.compare_bgp r1 base)

let test_compare_insensitive_to_community_order () =
  let c1 = Community.make 1 1 and c2 = Community.make 2 2 in
  let ra = Route.add_community (Route.add_community base c1) c2 in
  let rb = Route.add_community (Route.add_community base c2) c1 in
  check_bool "set equality" true (Route.equal_bgp ra rb)

let test_protocols () =
  check_bool "roundtrip" true
    (List.for_all
       (fun p -> Route.protocol_of_string (Route.protocol_to_string p) = Some p)
       [ Route.Connected; Route.Static; Route.Igp; Route.Bgp ]);
  check_bool "unknown" true (Route.protocol_of_string "ospfx" = None);
  check_bool "admin order" true
    (Route.compare_protocol Route.Connected Route.Bgp < 0)

let test_origin_rank () =
  check_bool "igp best" true (Route.origin_rank Route.Origin_igp < Route.origin_rank Route.Origin_egp);
  check_bool "incomplete worst" true
    (Route.origin_rank Route.Origin_egp < Route.origin_rank Route.Origin_incomplete)

(* The closure-list comparator [Route.compare_bgp] replaced: the
   reference its allocation-free chain must agree with. *)
let reference_compare_bgp (a : Route.bgp) (b : Route.bgp) =
  let cmp =
    [
      (fun () -> Prefix.compare a.prefix b.prefix);
      (fun () -> Ipv4.compare a.next_hop b.next_hop);
      (fun () -> As_path.compare a.as_path b.as_path);
      (fun () -> Int.compare a.local_pref b.local_pref);
      (fun () -> Int.compare a.med b.med);
      (fun () -> Community.Set.compare a.communities b.communities);
      (fun () -> Route.compare_origin a.origin b.origin);
      (fun () -> Int.compare a.cluster_len b.cluster_len);
    ]
  in
  let rec go = function
    | [] -> 0
    | f :: rest -> ( match f () with 0 -> go rest | c -> c)
  in
  go cmp

let sign c = Int.compare c 0

let prop_compare_reference =
  QCheck.Test.make ~name:"compare_bgp and equal_bgp agree with the reference"
    ~count:2000
    (QCheck.make
       QCheck.Gen.(
         pair Testnet.gen_route Testnet.gen_route >>= fun (a, b) ->
         (* half the pairs differ in the last field at most *)
         map
           (fun last ->
             if last then (a, { a with Route.cluster_len = b.cluster_len })
             else (a, b))
           bool))
    (fun (a, b) ->
      let want = reference_compare_bgp a b in
      sign (Route.compare_bgp a b) = sign want
      && Route.equal_bgp a b = (want = 0))

let () =
  Alcotest.run "route"
    [
      ( "unit",
        [
          Alcotest.test_case "originate defaults" `Quick test_originate_defaults;
          Alcotest.test_case "as-path ops" `Quick test_as_path_ops;
          Alcotest.test_case "compare total order" `Quick test_compare_total;
          Alcotest.test_case "community order-insensitive" `Quick
            test_compare_insensitive_to_community_order;
          Alcotest.test_case "protocols" `Quick test_protocols;
          Alcotest.test_case "origin rank" `Quick test_origin_rank;
        ] );
      ("props", [ QCheck_alcotest.to_alcotest prop_compare_reference ]);
    ]
