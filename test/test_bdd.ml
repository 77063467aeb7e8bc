open Netcov_bdd

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_terminals () =
  let m = Bdd.create () in
  check_bool "true" true (Bdd.is_true (Bdd.bdd_true m));
  check_bool "false" true (Bdd.is_false (Bdd.bdd_false m));
  check_bool "not true = false" true (Bdd.is_false (Bdd.bdd_not m (Bdd.bdd_true m)))

let test_hash_consing () =
  let m = Bdd.create () in
  let a = Bdd.var m 0 and b = Bdd.var m 1 in
  check_bool "same structure same node" true
    (Bdd.equal (Bdd.bdd_and m a b) (Bdd.bdd_and m b a));
  check_bool "idempotent" true (Bdd.equal (Bdd.bdd_and m a a) a);
  check_bool "double negation" true (Bdd.equal (Bdd.bdd_not m (Bdd.bdd_not m a)) a)

let test_boolean_laws () =
  let m = Bdd.create () in
  let a = Bdd.var m 0 and b = Bdd.var m 1 and c = Bdd.var m 2 in
  let ( &&& ) = Bdd.bdd_and m and ( ||| ) = Bdd.bdd_or m in
  check_bool "distributivity" true
    (Bdd.equal (a &&& (b ||| c)) ((a &&& b) ||| (a &&& c)));
  check_bool "de morgan" true
    (Bdd.equal (Bdd.bdd_not m (a &&& b)) (Bdd.bdd_not m a ||| Bdd.bdd_not m b));
  check_bool "excluded middle" true (Bdd.is_true (a ||| Bdd.bdd_not m a));
  check_bool "contradiction" true (Bdd.is_false (a &&& Bdd.bdd_not m a))

let test_restrict () =
  let m = Bdd.create () in
  let a = Bdd.var m 0 and b = Bdd.var m 1 in
  let f = Bdd.bdd_and m a b in
  check_bool "f|a=1 is b" true (Bdd.equal (Bdd.restrict m f ~var:0 ~value:true) b);
  check_bool "f|a=0 is false" true (Bdd.is_false (Bdd.restrict m f ~var:0 ~value:false));
  check_bool "restrict absent var" true
    (Bdd.equal (Bdd.restrict m f ~var:7 ~value:true) f)

let test_necessity () =
  let m = Bdd.create () in
  let a = Bdd.var m 0 and b = Bdd.var m 1 and c = Bdd.var m 2 in
  (* f = a and (b or c): a necessary, b and c are not *)
  let f = Bdd.bdd_and m a (Bdd.bdd_or m b c) in
  check_bool "a necessary" true (Bdd.is_necessary m f ~var:0);
  check_bool "b not necessary" false (Bdd.is_necessary m f ~var:1);
  check_bool "c not necessary" false (Bdd.is_necessary m f ~var:2)

let test_support () =
  let m = Bdd.create () in
  let a = Bdd.var m 3 and b = Bdd.var m 1 in
  Alcotest.(check (list int)) "sorted support" [ 1; 3 ]
    (Bdd.support m (Bdd.bdd_or m a b));
  Alcotest.(check (list int)) "terminal support" [] (Bdd.support m (Bdd.bdd_true m))

let test_any_sat () =
  let m = Bdd.create () in
  let a = Bdd.var m 0 and b = Bdd.var m 1 in
  check_bool "unsat" true (Bdd.any_sat m (Bdd.bdd_false m) = None);
  let f = Bdd.bdd_and m a (Bdd.bdd_not m b) in
  match Bdd.any_sat m f with
  | None -> Alcotest.fail "expected sat"
  | Some assignment ->
      let lookup v = List.assoc_opt v assignment |> Option.value ~default:false in
      check_bool "assignment satisfies" true (Bdd.eval m f lookup)

(* Property: BDD operations agree with direct boolean evaluation over
   random 4-variable formulas. *)
type formula =
  | Var of int
  | Not of formula
  | And of formula * formula
  | Or of formula * formula
  | Xor of formula * formula

let rec gen_formula size =
  let open QCheck.Gen in
  if size <= 1 then map (fun i -> Var i) (int_bound 3)
  else
    frequency
      [
        (1, map (fun i -> Var i) (int_bound 3));
        (2, map (fun f -> Not f) (gen_formula (size / 2)));
        (3, map2 (fun a b -> And (a, b)) (gen_formula (size / 2)) (gen_formula (size / 2)));
        (3, map2 (fun a b -> Or (a, b)) (gen_formula (size / 2)) (gen_formula (size / 2)));
        (2, map2 (fun a b -> Xor (a, b)) (gen_formula (size / 2)) (gen_formula (size / 2)));
      ]

let rec build m = function
  | Var i -> Bdd.var m i
  | Not f -> Bdd.bdd_not m (build m f)
  | And (a, b) -> Bdd.bdd_and m (build m a) (build m b)
  | Or (a, b) -> Bdd.bdd_or m (build m a) (build m b)
  | Xor (a, b) -> Bdd.bdd_xor m (build m a) (build m b)

let rec interp env = function
  | Var i -> env i
  | Not f -> not (interp env f)
  | And (a, b) -> interp env a && interp env b
  | Or (a, b) -> interp env a || interp env b
  | Xor (a, b) -> interp env a <> interp env b

let all_envs =
  List.init 16 (fun bits -> fun i -> (bits lsr i) land 1 = 1)

let prop_semantics =
  QCheck.Test.make ~name:"BDD agrees with truth table" ~count:200
    (QCheck.make (gen_formula 16))
    (fun f ->
      let m = Bdd.create () in
      let b = build m f in
      List.for_all (fun env -> Bdd.eval m b env = interp env f) all_envs)

let prop_canonical =
  QCheck.Test.make ~name:"equivalent formulas share a node" ~count:200
    (QCheck.make (QCheck.Gen.pair (gen_formula 12) (gen_formula 12)))
    (fun (f, g) ->
      let m = Bdd.create () in
      let bf = build m f and bg = build m g in
      let equivalent = List.for_all (fun env -> interp env f = interp env g) all_envs in
      Bdd.equal bf bg = equivalent)

(* ------------------------------------------------------------------ *)
(* restrict / is_necessary / any_sat edge cases                        *)
(* ------------------------------------------------------------------ *)

let test_restrict_terminals () =
  let m = Bdd.create () in
  let t = Bdd.bdd_true m and f = Bdd.bdd_false m in
  List.iter
    (fun value ->
      check_bool "restrict true is true" true
        (Bdd.equal (Bdd.restrict m t ~var:0 ~value) t);
      check_bool "restrict false is false" true
        (Bdd.equal (Bdd.restrict m f ~var:0 ~value) f))
    [ true; false ];
  (* is_necessary on terminals: nothing is necessary for a tautology,
     everything vacuously is for the unsatisfiable function. *)
  check_bool "no var necessary for true" false (Bdd.is_necessary m t ~var:0);
  check_bool "any var necessary for false" true (Bdd.is_necessary m f ~var:0);
  check_bool "tautology sat with empty assignment" true
    (Bdd.any_sat m t = Some [])

let test_restrict_uncached_var () =
  (* Restricting on a variable above [max_operand] cannot be packed
     into an apply-cache key; the implementation takes an uncached
     recompute path. Such a variable can never occur in a node (var
     creation rejects it), so the cofactor must rebuild to the very
     same hash-consed node. *)
  let m = Bdd.create () in
  let a = Bdd.var m 0 and b = Bdd.var m 1 and c = Bdd.var m 2 in
  let f = Bdd.bdd_or m (Bdd.bdd_and m a b) (Bdd.bdd_xor m b c) in
  let huge = 1 lsl 29 (* max_operand + 1 *) in
  check_bool "uncached restrict is identity" true
    (Bdd.equal (Bdd.restrict m f ~var:huge ~value:true) f);
  check_bool "uncached restrict is identity (false)" true
    (Bdd.equal (Bdd.restrict m f ~var:huge ~value:false) f);
  check_bool "var creation rejects huge index" true
    (match Bdd.var m huge with
    | _ -> false
    | exception Invalid_argument _ -> true)

let env_with env v value i = if i = v then value else env i

let prop_restrict_vs_eval =
  QCheck.Test.make ~name:"restrict agrees with eval under the cofactor"
    ~count:200
    (QCheck.make
       (QCheck.Gen.triple (gen_formula 12) (QCheck.Gen.int_bound 3)
          QCheck.Gen.bool))
    (fun (f, v, value) ->
      let m = Bdd.create () in
      let b = build m f in
      let r = Bdd.restrict m b ~var:v ~value in
      List.for_all
        (fun env ->
          (* the cofactor must ignore env's value for v... *)
          Bdd.eval m r env = interp (env_with env v value) f
          (* ...and not mention v at all *)
          && not (List.mem v (Bdd.support m r)))
        all_envs)

let prop_any_sat_sound_complete =
  QCheck.Test.make ~name:"any_sat is sound and complete" ~count:200
    (QCheck.make (gen_formula 12))
    (fun f ->
      let m = Bdd.create () in
      let b = build m f in
      let satisfiable = List.exists (fun env -> interp env f) all_envs in
      match Bdd.any_sat m b with
      | None -> not satisfiable
      | Some assignment ->
          satisfiable
          && interp
               (fun i ->
                 List.assoc_opt i assignment |> Option.value ~default:false)
               f)

let prop_necessity_semantics =
  QCheck.Test.make ~name:"is_necessary matches semantic necessity" ~count:200
    (QCheck.make (QCheck.Gen.pair (gen_formula 12) (QCheck.Gen.int_bound 3)))
    (fun (f, v) ->
      let m = Bdd.create () in
      let b = build m f in
      (* necessity: no satisfying assignment has v = false *)
      let semantic =
        List.for_all (fun env -> env v || not (interp env f)) all_envs
      in
      Bdd.is_necessary m b ~var:v = semantic)

(* ------------------------------------------------------------------ *)
(* essential_vars: single bottom-up pass vs the restrict reference     *)
(* ------------------------------------------------------------------ *)

let test_essential_vars () =
  let m = Bdd.create () in
  let a = Bdd.var m 0 and b = Bdd.var m 1 and c = Bdd.var m 2 in
  (* f = a and (b or c): only a is essential *)
  let f = Bdd.bdd_and m a (Bdd.bdd_or m b c) in
  Alcotest.(check (list int)) "only a essential" [ 0 ] (Bdd.essential_vars m f);
  Alcotest.(check (list int)) "conjunction: all essential" [ 0; 1; 2 ]
    (Bdd.essential_vars m (Bdd.bdd_and m (Bdd.bdd_and m a b) c));
  Alcotest.(check (list int)) "disjunction: none essential" []
    (Bdd.essential_vars m (Bdd.bdd_or m a b));
  (* terminals have empty support, so nothing is reported essential —
     the same answer the restrict loop gives when iterated over an
     empty support *)
  Alcotest.(check (list int)) "true terminal" []
    (Bdd.essential_vars m (Bdd.bdd_true m));
  Alcotest.(check (list int)) "false terminal" []
    (Bdd.essential_vars m (Bdd.bdd_false m));
  (* a tautology's support is empty even though it mentions a *)
  Alcotest.(check (list int)) "tautology" []
    (Bdd.essential_vars m (Bdd.bdd_or m a (Bdd.bdd_not m a)))

let prop_essential_vs_restrict =
  QCheck.Test.make
    ~name:"essential_vars = support filtered by is_necessary" ~count:300
    (QCheck.make (gen_formula 16))
    (fun f ->
      let m = Bdd.create () in
      let b = build m f in
      let reference =
        List.filter (fun v -> Bdd.is_necessary m b ~var:v) (Bdd.support m b)
      in
      Bdd.essential_vars m b = reference)

(* ------------------------------------------------------------------ *)
(* Arena lifecycle: fixed-size cache, reset                            *)
(* ------------------------------------------------------------------ *)

(* The apply cache is sized once, at [create]: it keeps its slot count
   while the node store outgrows it and across [reset], and its hit and
   miss counters run for the manager's lifetime. *)
let test_fixed_cache () =
  let m = Bdd.create ~cache_size:1024 () in
  let slots () = (Bdd.cache_stats m).Bdd.slots in
  check_int "slots as created" 1024 (slots ());
  ignore (List.init 2048 (Bdd.var m));
  check_bool "node store outgrew the cache" true (Bdd.node_count m > 1024);
  check_int "slots after growth" 1024 (slots ());
  let build () = ignore (Bdd.conj m (List.init 16 (Bdd.var m))) in
  build ();
  let st0 = Bdd.cache_stats m in
  check_bool "build records misses" true (st0.Bdd.misses > 0);
  Bdd.reset m;
  let st1 = Bdd.cache_stats m in
  check_int "slots after reset" 1024 st1.Bdd.slots;
  check_int "hits survive reset" st0.Bdd.hits st1.Bdd.hits;
  check_int "misses survive reset" st0.Bdd.misses st1.Bdd.misses;
  build ();
  let st2 = Bdd.cache_stats m in
  check_bool "reset emptied the cache: rebuild misses" true
    (st2.Bdd.misses > st1.Bdd.misses);
  build ();
  let st3 = Bdd.cache_stats m in
  check_bool "second rebuild hits" true (st3.Bdd.hits > st2.Bdd.hits)

let test_reset () =
  let m = Bdd.create () in
  let a = Bdd.var m 0 and b = Bdd.var m 1 in
  ignore (Bdd.bdd_xor m a b);
  check_bool "nodes allocated" true (Bdd.node_count m > 2);
  Bdd.reset m;
  check_bool "only terminals survive reset" true (Bdd.node_count m = 2);
  let a = Bdd.var m 0 in
  check_bool "usable after reset" true
    (Bdd.is_false (Bdd.bdd_and m a (Bdd.bdd_not m a)))

let () =
  Alcotest.run "bdd"
    [
      ( "unit",
        [
          Alcotest.test_case "terminals" `Quick test_terminals;
          Alcotest.test_case "hash consing" `Quick test_hash_consing;
          Alcotest.test_case "boolean laws" `Quick test_boolean_laws;
          Alcotest.test_case "restrict" `Quick test_restrict;
          Alcotest.test_case "necessity" `Quick test_necessity;
          Alcotest.test_case "support" `Quick test_support;
          Alcotest.test_case "any_sat" `Quick test_any_sat;
          Alcotest.test_case "restrict terminals" `Quick test_restrict_terminals;
          Alcotest.test_case "restrict uncached var" `Quick
            test_restrict_uncached_var;
          Alcotest.test_case "essential vars" `Quick test_essential_vars;
          Alcotest.test_case "fixed-size cache" `Quick test_fixed_cache;
          Alcotest.test_case "reset" `Quick test_reset;
        ] );
      ( "props",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_semantics;
            prop_canonical;
            prop_necessity_semantics;
            prop_restrict_vs_eval;
            prop_any_sat_sound_complete;
            prop_essential_vs_restrict;
          ] );
    ]
