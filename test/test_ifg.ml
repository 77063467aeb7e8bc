open Netcov_types
open Netcov_config
open Netcov_sim
open Netcov_core

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let p = Prefix.of_string

(* ---------------- graph structure ---------------- *)

let f name = Fact.F_edge name

let test_add_dedup () =
  let g = Ifg.create () in
  let id1, new1 = Ifg.add_fact g (f "x") in
  let id2, new2 = Ifg.add_fact g (f "x") in
  check_bool "first new" true new1;
  check_bool "second reused" false new2;
  check_int "same id" id1 id2;
  check_int "one node" 1 (Ifg.n_nodes g)

let test_edges_idempotent () =
  let g = Ifg.create () in
  let a, _ = Ifg.add_fact g (f "a") in
  let b, _ = Ifg.add_fact g (f "b") in
  Ifg.add_edge g ~parent:a ~child:b;
  Ifg.add_edge g ~parent:a ~child:b;
  check_int "one edge" 1 (Ifg.n_edges g);
  Alcotest.(check (list int)) "parents" [ a ] (Ifg.parents g b);
  Alcotest.(check (list int)) "children" [ b ] (Ifg.children g a)

(* 25,000 distinct edges among 350 nodes (250 parents x 100 children),
   added in three orders: the edge set doubles several times during
   the first pass, and the later passes add nothing. *)
let test_many_edges () =
  let g = Ifg.create () in
  let node i = fst (Ifg.add_fact g (f (Printf.sprintf "n%d" i))) in
  let parents = Array.init 250 node in
  let children = Array.init 100 (fun i -> node (250 + i)) in
  let n = 25_000 in
  let edge k = (parents.(k mod 250), children.(k / 250)) in
  let add k =
    let parent, child = edge k in
    Ifg.add_edge g ~parent ~child
  in
  for k = 0 to n - 1 do
    add k
  done;
  check_int "every distinct edge counted once" n (Ifg.n_edges g);
  for k = n - 1 downto 0 do
    add k
  done;
  let rng = Random.State.make [| 7 |] in
  let order = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- x
  done;
  Array.iter add order;
  check_int "re-adding in other orders adds nothing" n (Ifg.n_edges g);
  (* Lists enumerate in reverse order of first insertion. *)
  let want_parents = Array.make 100 [] and want_children = Array.make 250 [] in
  for k = 0 to n - 1 do
    let p = k mod 250 and c = k / 250 in
    want_parents.(c) <- parents.(p) :: want_parents.(c);
    want_children.(p) <- children.(c) :: want_children.(p)
  done;
  Array.iteri
    (fun c child ->
      Alcotest.(check (list int)) "parents" want_parents.(c) (Ifg.parents g child))
    children;
  Array.iteri
    (fun p parent ->
      Alcotest.(check (list int)) "children" want_children.(p)
        (Ifg.children g parent))
    parents

let test_disj_nodes () =
  let g = Ifg.create () in
  let t, _ = Ifg.add_fact g (f "t") in
  let d1 = Ifg.add_disj g ~target:t [ f "p1"; f "p2" ] in
  let d2 = Ifg.add_disj g ~target:t [ f "p2"; f "p1" ] in
  check_int "disj deduped" d1 d2;
  check_bool "kind" true (Ifg.kind g d1 = Ifg.N_disj);
  check_int "two members" 2 (List.length (Ifg.parents g d1));
  check_bool "target wired" true (List.mem d1 (Ifg.parents g t))

let test_config_nodes () =
  let g = Ifg.create () in
  ignore (Ifg.add_fact g (Fact.F_config 7));
  ignore (Ifg.add_fact g (f "x"));
  ignore (Ifg.add_fact g (Fact.F_config 9));
  Alcotest.(check (list int)) "configs" [ 7; 9 ]
    (List.map snd (Ifg.config_nodes g))

(* ---------------- fact keys ---------------- *)

let test_fact_keys_distinct () =
  let entry =
    { Rib.me_prefix = p "10.0.0.0/8"; me_nexthop = Rib.Nh_discard; me_protocol = Route.Bgp; me_metric = 0 }
  in
  let facts =
    [
      Fact.F_config 1;
      Fact.F_config 2;
      Fact.F_main_rib { host = "a"; entry };
      Fact.F_main_rib { host = "b"; entry };
      Fact.F_edge "e1";
      Fact.F_redist_edge { host = "a"; proto = Route.Static };
      Fact.F_path { src = "a"; dst = Ipv4.zero; idx = 0 };
      Fact.F_path { src = "a"; dst = Ipv4.zero; idx = 1 };
      Fact.F_acl { host = "a"; acl = "x"; rule = Some 0 };
      Fact.F_acl { host = "a"; acl = "x"; rule = None };
    ]
  in
  let keys = List.map Fact.key facts in
  check_int "all distinct" (List.length facts)
    (List.length (List.sort_uniq String.compare keys))

let test_fact_host () =
  check_bool "config unbound" true (Fact.host_of (Fact.F_config 1) = None);
  check_bool "path src" true
    (Fact.host_of (Fact.F_path { src = "s"; dst = Ipv4.zero; idx = 0 }) = Some "s")

(* ---------------- materialization on the chain network ---------------- *)

let covered_names state report_cov =
  let reg = Stable_state.registry state in
  let acc = ref [] in
  Registry.iter_elements reg (fun e ->
      if Coverage.element_status report_cov e.Element.id <> Coverage.Not_covered
      then acc := (e.Element.device ^ ":" ^ Element.name_of e) :: !acc);
  List.sort String.compare !acc

let test_materialize_chain () =
  let state = Testnet.state_of (Testnet.chain ()) in
  (* test c's forwarding entry for a's LAN *)
  let tested =
    List.map
      (fun entry -> Fact.F_main_rib { host = "c"; entry })
      (Stable_state.main_lookup state "c" (p "10.10.0.0/24"))
  in
  check_bool "have tested facts" true (tested <> []);
  let report = Netcov.analyze state { Netcov.dp_facts = tested; cp_elements = [] } in
  let covered = covered_names state report.Netcov.coverage in
  let expect name = check_bool name true (List.mem name covered) in
  (* the whole derivation chain is covered *)
  expect "a:10.10.0.0/24";      (* network statement on a *)
  expect "a:lan0";              (* source interface *)
  expect "a:eth0";              (* session interface a-b *)
  expect "a:192.168.0.2";      (* a's peering toward b *)
  expect "b:192.168.0.1";      (* b's peering toward a *)
  expect "b:eth0";
  expect "b:eth1";
  expect "b:192.168.0.6";      (* b's peering toward c *)
  expect "c:192.168.0.5";      (* c's peering toward b *)
  expect "c:eth0";
  (* everything here is deterministic: all strong *)
  let stats = Coverage.line_stats report.Netcov.coverage in
  check_int "no weak lines" 0 stats.Coverage.weak_lines;
  check_bool "ifg non-trivial" true (report.Netcov.timing.ifg_nodes > 10)

let test_materialize_idempotent_union () =
  (* analyzing the same fact twice covers the same set *)
  let state = Testnet.state_of (Testnet.chain ()) in
  let tested =
    List.map
      (fun entry -> Fact.F_main_rib { host = "c"; entry })
      (Stable_state.main_lookup state "c" (p "10.10.0.0/24"))
  in
  let r1 = Netcov.analyze state { Netcov.dp_facts = tested; cp_elements = [] } in
  let r2 =
    Netcov.analyze state { Netcov.dp_facts = tested @ tested; cp_elements = [] }
  in
  check_bool "same coverage" true
    (covered_names state r1.Netcov.coverage = covered_names state r2.Netcov.coverage)

let test_empty_tested () =
  let state = Testnet.state_of (Testnet.chain ()) in
  let report = Netcov.analyze state Netcov.no_tests in
  let stats = Coverage.line_stats report.Netcov.coverage in
  check_int "nothing covered" 0 (Coverage.covered_lines stats)

let test_cp_elements_marked_strong () =
  let state = Testnet.state_of (Testnet.chain ()) in
  let reg = Stable_state.registry state in
  let id =
    Option.get (Registry.find reg ~device:"a" (Element.key Element.Interface "lan0"))
  in
  let report = Netcov.analyze state { Netcov.dp_facts = []; cp_elements = [ id ] } in
  check_bool "strong" true
    (Coverage.element_status report.Netcov.coverage id = Coverage.Strong)

let () =
  Alcotest.run "ifg"
    [
      ( "graph",
        [
          Alcotest.test_case "fact dedup" `Quick test_add_dedup;
          Alcotest.test_case "edge idempotence" `Quick test_edges_idempotent;
          Alcotest.test_case "edge set growth" `Quick test_many_edges;
          Alcotest.test_case "disjunctive nodes" `Quick test_disj_nodes;
          Alcotest.test_case "config nodes" `Quick test_config_nodes;
        ] );
      ( "facts",
        [
          Alcotest.test_case "keys distinct" `Quick test_fact_keys_distinct;
          Alcotest.test_case "host binding" `Quick test_fact_host;
        ] );
      ( "materialize",
        [
          Alcotest.test_case "chain derivation" `Quick test_materialize_chain;
          Alcotest.test_case "idempotent union" `Quick test_materialize_idempotent_union;
          Alcotest.test_case "empty tested" `Quick test_empty_tested;
          Alcotest.test_case "cp elements strong" `Quick test_cp_elements_marked_strong;
        ] );
    ]
