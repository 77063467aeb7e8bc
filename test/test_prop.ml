(* The property-based correctness harness: engine self-tests (seeded
   reproducibility, integrated shrinking to minimal counterexamples)
   and the seven differential oracles of lib/check/oracles.ml, each
   pinned at a fixed seed with a bounded iteration budget so tier-1
   stays fast. `netcov_cli fuzz` runs the same oracles with a larger
   budget; docs/TESTING.md explains how to replay a printed seed. *)
open Netcov_check

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Engine: generation determinism                                      *)
(* ------------------------------------------------------------------ *)

let generate ~seed g = Gen.generate1 ~rand:(Random.State.make [| seed |]) g

let test_gen_deterministic () =
  let g = Gen.list_size (Gen.int_bound 10) (Gen.int_range 0 1000) in
  check_bool "same seed, same value" true (generate ~seed:5 g = generate ~seed:5 g);
  let d () = generate ~seed:11 Netgen.device in
  check_str "device generation is reproducible"
    (Netcov_config.Emit_junos.to_string (d ()))
    (Netcov_config.Emit_junos.to_string (d ()))

(* ------------------------------------------------------------------ *)
(* Engine: shrinking and failure reporting                             *)
(* ------------------------------------------------------------------ *)

let print_int_list l =
  "[" ^ String.concat ";" (List.map string_of_int l) ^ "]"

(* A deliberately failing property: the harness must find the minimal
   counterexample ([90] / 500) and print a reproduction seed that
   replays the same failure in a single iteration. *)
let test_shrink_int () =
  let o =
    Check.run ~name:"int >= 500" ~seed:1 ~iters:200 ~print:string_of_int
      (Gen.int_range 0 1000)
      (fun x -> if x < 500 then Ok () else Error "too big")
  in
  match o.Check.failure with
  | None -> Alcotest.fail "expected a counterexample"
  | Some f ->
      check_str "shrinks to the boundary" "500" f.Check.minimal;
      check_bool "report names the seed" true
        (let r = Check.report o in
         let needle = Printf.sprintf "seed %d" f.Check.seed in
         (* substring check *)
         let n = String.length needle and m = String.length r in
         let rec scan i = i + n <= m && (String.sub r i n = needle || scan (i + 1)) in
         scan 0)

let test_shrink_list () =
  let gen = Gen.list_size (Gen.int_bound 20) (Gen.int_range 0 100) in
  let prop l = if List.for_all (fun x -> x < 90) l then Ok () else Error "big elem" in
  let o = Check.run ~name:"all < 90" ~seed:3 ~iters:500 ~print:print_int_list gen prop in
  match o.Check.failure with
  | None -> Alcotest.fail "expected a counterexample"
  | Some f -> check_str "minimal counterexample is [90]" "[90]" f.Check.minimal

let test_seed_replays () =
  let gen = Gen.list_size (Gen.int_bound 20) (Gen.int_range 0 100) in
  let prop l = if List.for_all (fun x -> x < 90) l then Ok () else Error "big elem" in
  let o = Check.run ~name:"all < 90" ~seed:3 ~iters:500 ~print:print_int_list gen prop in
  let f = Option.get o.Check.failure in
  let o' =
    Check.run ~name:"replay" ~seed:f.Check.seed ~iters:1 ~print:print_int_list gen prop
  in
  match o'.Check.failure with
  | None -> Alcotest.fail "printed seed did not replay the failure"
  | Some f' ->
      check_int "replay fails at iteration 0" 0 f'.Check.iteration;
      check_str "replay regenerates the same value" f.Check.original f'.Check.original;
      check_str "replay shrinks to the same minimum" f.Check.minimal f'.Check.minimal

let test_passing_outcome () =
  let o =
    Check.run ~name:"tautology" ~seed:9 ~iters:50 ~print:string_of_int
      (Gen.int_bound 10)
      (fun _ -> Ok ())
  in
  check_bool "passes" true (Check.passed o);
  Check.assert_ok o

(* ------------------------------------------------------------------ *)
(* The differential oracles (bounded budgets; @fuzz runs more)         *)
(* ------------------------------------------------------------------ *)

let oracle_case name iters =
  Alcotest.test_case name `Slow (fun () ->
      match Oracles.find name with
      | None -> Alcotest.fail ("unknown oracle " ^ name)
      | Some o -> Check.assert_ok (o.Oracles.run ~seed:42 ~iters))

let test_all_oracles_listed () =
  check_int "seven oracles" 7 (List.length Oracles.all);
  List.iter
    (fun n ->
      check_bool (n ^ " registered") true (Oracles.find n <> None))
    [
      "roundtrip";
      "parallel-determinism";
      "bdd-truth-table";
      "monotonicity-merge";
      "fault-isolation";
      "incremental-scratch";
      "mutation-falsifiability";
    ]

let () =
  Alcotest.run "prop"
    [
      ( "engine",
        [
          Alcotest.test_case "gen deterministic" `Quick test_gen_deterministic;
          Alcotest.test_case "shrink int to boundary" `Quick test_shrink_int;
          Alcotest.test_case "shrink list to singleton" `Quick test_shrink_list;
          Alcotest.test_case "failure seed replays" `Quick test_seed_replays;
          Alcotest.test_case "passing outcome" `Quick test_passing_outcome;
        ] );
      ( "oracles",
        [
          test_all_oracles_listed |> Alcotest.test_case "all seven registered" `Quick;
          oracle_case "roundtrip" 60;
          oracle_case "parallel-determinism" 20;
          oracle_case "bdd-truth-table" 50;
          oracle_case "monotonicity-merge" 20;
          oracle_case "fault-isolation" 10;
          oracle_case "incremental-scratch" 10;
          oracle_case "mutation-falsifiability" 5;
        ] );
    ]
