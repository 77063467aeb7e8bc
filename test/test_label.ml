open Netcov_config
open Netcov_core

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let f name = Fact.F_edge name
let cfg id = Fact.F_config id

let set_of ids = Element.Id_set.of_list ids
let eq_set = Alcotest.testable
    (fun fmt s ->
      Format.fprintf fmt "{%s}"
        (String.concat "," (List.map string_of_int (Element.Id_set.elements s))))
    Element.Id_set.equal

(* Figure 5(b): F1 tested; F1 <- disj(F2,F3) and F1 <- F4;
   F2 <- c5, c6; F3 <- c6; F4 <- c7.
   Expected: c5 weak; c6, c7 strong. *)
let figure5 () =
  let g = Ifg.create () in
  let add x = fst (Ifg.add_fact g x) in
  let f1 = add (f "F1") and f2 = add (f "F2") and f3 = add (f "F3") in
  let f4 = add (f "F4") in
  let c5 = add (cfg 5) and c6 = add (cfg 6) and c7 = add (cfg 7) in
  ignore (Ifg.add_disj g ~target:f1 [ f "F2"; f "F3" ]);
  Ifg.add_edge g ~parent:f4 ~child:f1;
  Ifg.add_edge g ~parent:c5 ~child:f2;
  Ifg.add_edge g ~parent:c6 ~child:f2;
  Ifg.add_edge g ~parent:c6 ~child:f3;
  Ifg.add_edge g ~parent:c7 ~child:f4;
  (g, f1)

let test_figure5 () =
  let g, f1 = figure5 () in
  let r = Label.run g ~tested:[ f1 ] in
  Alcotest.check eq_set "covered" (set_of [ 5; 6; 7 ]) r.Label.covered;
  Alcotest.check eq_set "strong" (set_of [ 6; 7 ]) r.Label.strong;
  Alcotest.check eq_set "weak" (set_of [ 5 ]) r.Label.weak

let test_heuristic_reduces_vars () =
  let g, f1 = figure5 () in
  let r = Label.run g ~tested:[ f1 ] in
  (* c7 has a disjunction-free path: it must not get a variable *)
  check_bool "vars at most 2" true (r.Label.vars <= 2)

(* Pure conjunction: every config strong. *)
let test_all_conjunctive () =
  let g = Ifg.create () in
  let add x = fst (Ifg.add_fact g x) in
  let t = add (f "t") and m = add (f "m") in
  let c1 = add (cfg 1) and c2 = add (cfg 2) in
  Ifg.add_edge g ~parent:m ~child:t;
  Ifg.add_edge g ~parent:c1 ~child:m;
  Ifg.add_edge g ~parent:c2 ~child:t;
  let r = Label.run g ~tested:[ t ] in
  Alcotest.check eq_set "all strong" (set_of [ 1; 2 ]) r.Label.strong;
  check_int "no vars needed" 0 r.Label.vars

(* A disjunction where one branch is empty of configs: everything under
   the other branch is weak (the empty branch derives the fact alone). *)
let test_environment_alternative () =
  let g = Ifg.create () in
  let add x = fst (Ifg.add_fact g x) in
  let t = add (f "t") in
  let via_cfg = add (f "via-cfg") and via_env = add (f "via-env") in
  ignore via_env;
  let c1 = add (cfg 1) in
  ignore (Ifg.add_disj g ~target:t [ f "via-cfg"; f "via-env" ]);
  Ifg.add_edge g ~parent:c1 ~child:via_cfg;
  let r = Label.run g ~tested:[ t ] in
  Alcotest.check eq_set "c1 weak" (set_of [ 1 ]) r.Label.weak

(* Shared disjunction members: c appears in every alternative, so it is
   strong even through the disjunction. *)
let test_common_member_strong () =
  let g = Ifg.create () in
  let add x = fst (Ifg.add_fact g x) in
  let t = add (f "t") in
  let alt1 = add (f "alt1") and alt2 = add (f "alt2") in
  let shared = add (cfg 1) and only1 = add (cfg 2) in
  ignore (Ifg.add_disj g ~target:t [ f "alt1"; f "alt2" ]);
  Ifg.add_edge g ~parent:shared ~child:alt1;
  Ifg.add_edge g ~parent:shared ~child:alt2;
  Ifg.add_edge g ~parent:only1 ~child:alt1;
  let r = Label.run g ~tested:[ t ] in
  check_bool "shared strong" true (Element.Id_set.mem 1 r.Label.strong);
  check_bool "only1 weak" true (Element.Id_set.mem 2 r.Label.weak)

(* Multiple tested facts: strong for any one of them suffices. *)
let test_multiple_tested () =
  let g = Ifg.create () in
  let add x = fst (Ifg.add_fact g x) in
  let t1 = add (f "t1") and t2 = add (f "t2") in
  let alt1 = add (f "alt1") and alt2 = add (f "alt2") in
  let c1 = add (cfg 1) in
  (* weak for t1 (alternative exists), strong for t2 (direct) *)
  ignore (Ifg.add_disj g ~target:t1 [ f "alt1"; f "alt2" ]);
  Ifg.add_edge g ~parent:c1 ~child:alt1;
  ignore alt2;
  Ifg.add_edge g ~parent:c1 ~child:t2;
  let r = Label.run g ~tested:[ t1; t2 ] in
  Alcotest.check eq_set "strong overall" (set_of [ 1 ]) r.Label.strong

let test_empty_graph () =
  let g = Ifg.create () in
  let r = Label.run g ~tested:[] in
  check_bool "nothing" true (Element.Id_set.is_empty r.Label.covered)

let test_nested_disjunctions () =
  (* t <- disj(a, b); a <- disj(c1-fact, c2-fact); b <- c3.
     c3 strong? No: b is one alternative. c1/c2 weak; c3 weak too.
     But removing all three kills t, so no single one is necessary. *)
  let g = Ifg.create () in
  let add x = fst (Ifg.add_fact g x) in
  let t = add (f "t") in
  let a = add (f "a") and b = add (f "b") in
  let x1 = add (f "x1") and x2 = add (f "x2") in
  let c1 = add (cfg 1) and c2 = add (cfg 2) and c3 = add (cfg 3) in
  ignore (Ifg.add_disj g ~target:t [ f "a"; f "b" ]);
  ignore (Ifg.add_disj g ~target:a [ f "x1"; f "x2" ]);
  Ifg.add_edge g ~parent:c1 ~child:x1;
  Ifg.add_edge g ~parent:c2 ~child:x2;
  Ifg.add_edge g ~parent:c3 ~child:b;
  let r = Label.run g ~tested:[ t ] in
  Alcotest.check eq_set "all weak" (set_of [ 1; 2; 3 ]) r.Label.weak;
  Alcotest.check eq_set "none strong" Element.Id_set.empty r.Label.strong

(* ------------------------------------------------------------------ *)
(* Per-domain arena: domain counts, the variable cap, trimming         *)
(* ------------------------------------------------------------------ *)

module Pool = Netcov_parallel.Pool

(* Every scenario above, as (name, graph, tested roots) for the
   domain-count sweep. Graphs are rebuilt per call: Ifg.t is
   mutable and labeling consumes it per pass. *)
let scenarios () =
  let build make =
    let g = Ifg.create () in
    let add x = fst (Ifg.add_fact g x) in
    (g, make g add)
  in
  [
    ("figure5", (let g, f1 = figure5 () in (g, [ f1 ])));
    ( "conjunctive",
      build (fun g add ->
          let t = add (f "t") and m = add (f "m") in
          let c1 = add (cfg 1) and c2 = add (cfg 2) in
          Ifg.add_edge g ~parent:m ~child:t;
          Ifg.add_edge g ~parent:c1 ~child:m;
          Ifg.add_edge g ~parent:c2 ~child:t;
          [ t ]) );
    ( "nested-disj",
      build (fun g add ->
          let t = add (f "t") in
          let a = add (f "a") and b = add (f "b") in
          let x1 = add (f "x1") and x2 = add (f "x2") in
          let c1 = add (cfg 1) and c2 = add (cfg 2) and c3 = add (cfg 3) in
          ignore (Ifg.add_disj g ~target:t [ f "a"; f "b" ]);
          ignore (Ifg.add_disj g ~target:a [ f "x1"; f "x2" ]);
          Ifg.add_edge g ~parent:c1 ~child:x1;
          Ifg.add_edge g ~parent:c2 ~child:x2;
          Ifg.add_edge g ~parent:c3 ~child:b;
          ignore (a, b, x1, x2);
          [ t ]) );
    ( "multi-tested",
      build (fun g add ->
          let t1 = add (f "t1") and t2 = add (f "t2") in
          let alt1 = add (f "alt1") and alt2 = add (f "alt2") in
          let c1 = add (cfg 1) in
          ignore (Ifg.add_disj g ~target:t1 [ f "alt1"; f "alt2" ]);
          Ifg.add_edge g ~parent:c1 ~child:alt1;
          ignore alt2;
          Ifg.add_edge g ~parent:c1 ~child:t2;
          [ t1; t2 ]) );
  ]

(* One pass on the calling domain (one arena, cross-cone gamma memo
   fully engaged) and one over a 2-domain pool (cones split across
   private per-domain arenas) must label identically. *)
let test_domains_agree () =
  Pool.with_pool ~domains:2 (fun pool ->
      List.iter
        (fun (name, (g, tested)) ->
          let seq = Label.run g ~tested in
          let par = Label.run ~pool g ~tested in
          Alcotest.check eq_set (name ^ ": covered agrees") seq.Label.covered
            par.Label.covered;
          Alcotest.check eq_set (name ^ ": strong agrees") seq.Label.strong
            par.Label.strong;
          Alcotest.check eq_set (name ^ ": weak agrees") seq.Label.weak
            par.Label.weak)
        (scenarios ()))

(* The per-cone variable cap (8192) keeps variables for the first
   candidates in discovery order. One tested fact's two alternatives
   share a chain m_i <- c_i, m_(i+1) of n configs; c_i is m_i's first
   parent in iteration order, so discovery meets c_0, c_1, ... in
   turn, and the chain keeps the BDD linear. Every c_i is necessary,
   but only c_0 .. c_8191 get a variable: exactly those are strong,
   the other n - 8192 weak. *)
let test_capped_cone () =
  let n = 8300 and cap = 8192 in
  let g = Ifg.create () in
  let add x = fst (Ifg.add_fact g x) in
  let t = add (f "t") in
  ignore (Ifg.add_disj g ~target:t [ f "a1"; f "a2" ]);
  let m i = add (f (Printf.sprintf "m%d" i)) in
  Ifg.add_edge g ~parent:(m 0) ~child:(add (f "a1"));
  Ifg.add_edge g ~parent:(m 0) ~child:(add (f "a2"));
  for i = 0 to n - 1 do
    (* parents iterate in reverse insertion order: c_i goes in last *)
    if i + 1 < n then Ifg.add_edge g ~parent:(m (i + 1)) ~child:(m i);
    Ifg.add_edge g ~parent:(add (cfg i)) ~child:(m i)
  done;
  let r = Label.run g ~tested:[ t ] in
  check_int "covered" n (Element.Id_set.cardinal r.Label.covered);
  Alcotest.check eq_set "first candidates strong"
    (set_of (List.init cap Fun.id))
    r.Label.strong;
  Alcotest.check eq_set "the rest weak"
    (set_of (List.init (n - cap) (fun i -> cap + i)))
    r.Label.weak;
  check_int "vars capped" cap r.Label.vars

(* The cap must depend only on the cone. Root A is the capped chain
   above; root B has a direct edge from each of c_0 .. c_99, which
   makes them disjunction-free strong in a graph that holds both
   roots. They still take their positions in A's budget, so A numbers
   the same prefix c_0 .. c_8191 in the union graph as alone, and the
   union labels like the two separate graphs merged: 8192 strong, 108
   weak. *)
let test_capped_cone_union () =
  let n = 8300 and cap = 8192 and direct = 100 in
  let build ~a ~b =
    let g = Ifg.create () in
    let add x = fst (Ifg.add_fact g x) in
    let roots = ref [] in
    if a then begin
      let t = add (f "t") in
      ignore (Ifg.add_disj g ~target:t [ f "a1"; f "a2" ]);
      let m i = add (f (Printf.sprintf "m%d" i)) in
      Ifg.add_edge g ~parent:(m 0) ~child:(add (f "a1"));
      Ifg.add_edge g ~parent:(m 0) ~child:(add (f "a2"));
      for i = 0 to n - 1 do
        if i + 1 < n then Ifg.add_edge g ~parent:(m (i + 1)) ~child:(m i);
        Ifg.add_edge g ~parent:(add (cfg i)) ~child:(m i)
      done;
      roots := t :: !roots
    end;
    if b then begin
      let t = add (f "tb") in
      for i = 0 to direct - 1 do
        Ifg.add_edge g ~parent:(add (cfg i)) ~child:t
      done;
      roots := t :: !roots
    end;
    Label.run g ~tested:(List.rev !roots)
  in
  let ra = build ~a:true ~b:false and rb = build ~a:false ~b:true in
  let ru = build ~a:true ~b:true in
  let strong = Element.Id_set.union ra.Label.strong rb.Label.strong in
  let weak =
    Element.Id_set.(diff (union ra.Label.weak rb.Label.weak) strong)
  in
  Alcotest.check eq_set "union strong = merged strong" strong ru.Label.strong;
  Alcotest.check eq_set "union weak = merged weak" weak ru.Label.weak;
  check_int "strong" cap (Element.Id_set.cardinal ru.Label.strong);
  check_int "weak" (n - cap) (Element.Id_set.cardinal ru.Label.weak)

(* Trimming the calling domain's arena between passes must shrink it
   back to the creation footprint and leave labels unchanged. *)
let test_arena_trim () =
  Label.trim_arena ();
  let g, f1 = figure5 () in
  let r1 = Label.run g ~tested:[ f1 ] in
  check_bool "arena grew during the pass" true (Label.arena_node_count () >= 2);
  let grown = Label.arena_node_count () in
  Label.trim_arena ();
  check_bool "trim shrank the arena" true (Label.arena_node_count () <= grown);
  check_int "trim leaves only terminals" 2 (Label.arena_node_count ());
  let g2, f1' = figure5 () in
  let r2 = Label.run g2 ~tested:[ f1' ] in
  Alcotest.check eq_set "strong unchanged after trim" r1.Label.strong
    r2.Label.strong;
  Alcotest.check eq_set "weak unchanged after trim" r1.Label.weak
    r2.Label.weak

(* A tiny watermark forces a self-trim on entry to every labeling
   task; results must not change. *)
let test_arena_watermark () =
  check_bool "watermark below 2 rejected" true
    (match Label.set_arena_watermark 1 with
    | () -> false
    | exception Invalid_argument _ -> true);
  Label.set_arena_watermark 2;
  Fun.protect
    ~finally:(fun () -> Label.set_arena_watermark (1 lsl 20))
    (fun () ->
      let g, f1 = figure5 () in
      let r = Label.run g ~tested:[ f1 ] in
      Alcotest.check eq_set "strong under constant trimming"
        (set_of [ 6; 7 ]) r.Label.strong;
      Alcotest.check eq_set "weak under constant trimming" (set_of [ 5 ])
        r.Label.weak)

let () =
  Alcotest.run "label"
    [
      ( "strong-weak",
        [
          Alcotest.test_case "figure 5 scenario" `Quick test_figure5;
          Alcotest.test_case "variable heuristic" `Quick test_heuristic_reduces_vars;
          Alcotest.test_case "all conjunctive" `Quick test_all_conjunctive;
          Alcotest.test_case "environment alternative" `Quick test_environment_alternative;
          Alcotest.test_case "common member strong" `Quick test_common_member_strong;
          Alcotest.test_case "multiple tested" `Quick test_multiple_tested;
          Alcotest.test_case "empty graph" `Quick test_empty_graph;
          Alcotest.test_case "nested disjunctions" `Quick test_nested_disjunctions;
        ] );
      ( "arena",
        [
          Alcotest.test_case "sequential and 2-domain pool agree" `Quick
            test_domains_agree;
          Alcotest.test_case "capped cone keeps first 8192" `Quick
            test_capped_cone;
          Alcotest.test_case
            "capped cone labels the same alone and in a union graph" `Quick
            test_capped_cone_union;
          Alcotest.test_case "trim shrinks, labels unchanged" `Quick
            test_arena_trim;
          Alcotest.test_case "tiny watermark self-trims safely" `Quick
            test_arena_watermark;
        ] );
    ]
