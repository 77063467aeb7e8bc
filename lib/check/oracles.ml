open Netcov_config
open Netcov_core
open Gen.Syntax
module Pool = Netcov_parallel.Pool
module Stable_state = Netcov_sim.Stable_state

type t = {
  name : string;
  describe : string;
  run : seed:int -> iters:int -> Check.outcome;
}

let fail fmt = Printf.ksprintf (fun s -> Error s) fmt

(* ------------------------------------------------------------------ *)
(* 1. emit → parse roundtrip preserves the element registry            *)
(* ------------------------------------------------------------------ *)

(* Everything coverage accounting reads off a registry: every element's
   type, name and owned line numbers, plus the line totals. *)
let registry_fingerprint reg host =
  let elems =
    List.map
      (fun id ->
        let e = Registry.element reg id in
        Printf.sprintf "%s %s [%s]"
          (Element.etype_to_string (Element.etype_of e))
          (Element.name_of e)
          (String.concat "," (List.map string_of_int e.Element.lines)))
      (Registry.elements_of_device reg host)
  in
  Printf.sprintf "lines=%d considered=%d\n%s" (Registry.total_lines reg)
    (Registry.considered_lines reg)
    (String.concat "\n" elems)

let emit_of (d : Device.t) =
  match d.Device.syntax with
  | Device.Junos -> Emit_junos.to_string d
  | Device.Ios -> Emit_ios.to_string d

let parse_of (d : Device.t) text =
  match d.Device.syntax with
  | Device.Junos ->
      Result.map_error Parse_junos.error_to_string (Parse_junos.parse text)
  | Device.Ios ->
      Result.map_error Parse_ios.error_to_string (Parse_ios.parse text)

let print_device d =
  Printf.sprintf "syntax=%s\n%s"
    (match d.Device.syntax with Device.Junos -> "junos" | Device.Ios -> "ios")
    (emit_of d)

let roundtrip_prop (d : Device.t) =
  let text = emit_of d in
  match parse_of d text with
  | Error msg -> fail "emitted config does not parse back: %s" msg
  | Ok d' ->
      let text' = emit_of { d' with Device.syntax = d.Device.syntax } in
      if text <> text' then
        fail "emit is not idempotent across parse:\n--- first\n%s\n--- second\n%s"
          text text'
      else
        let fp = registry_fingerprint (Registry.build [ d ]) d.Device.hostname in
        let fp' =
          registry_fingerprint
            (Registry.build [ { d' with Device.syntax = d.Device.syntax } ])
            d'.Device.hostname
        in
        if d.Device.hostname <> d'.Device.hostname then
          fail "hostname changed: %s -> %s" d.Device.hostname d'.Device.hostname
        else if fp <> fp' then
          fail "element registry diverged across roundtrip:\n--- original\n%s\n--- reparsed\n%s"
            fp fp'
        else Ok ()

let roundtrip_oracle =
  {
    name = "roundtrip";
    describe = "emit -> parse preserves the element registry and line spans";
    run =
      (fun ~seed ~iters ->
        Check.run ~name:"roundtrip" ~seed ~iters ~print:print_device
          Netgen.device roundtrip_prop);
  }

(* ------------------------------------------------------------------ *)
(* Shared scaffolding for the pipeline oracles                         *)
(* ------------------------------------------------------------------ *)

let state_of (net : Netgen.network) =
  Stable_state.compute (Registry.build (Netgen.devices_of net))

let testeds_of state (sc : Netgen.scenario) =
  List.map (Netgen.tested_of state) sc.Netgen.tests

(* Reports must agree byte-for-byte on everything except wall-clock
   timing, which is never deterministic; the fingerprint is the full
   coverage JSON (statuses of every element, all aggregations). *)
let coverage_fp (r : Netcov.report) = Json_export.coverage r.Netcov.coverage

let first_diff la lb =
  let rec go i = function
    | [], [] -> None
    | a :: _, b :: _ when a <> b -> Some i
    | _ :: ta, _ :: tb -> go (i + 1) (ta, tb)
    | _ -> Some i
  in
  go 0 (la, lb)

(* ------------------------------------------------------------------ *)
(* 2. sequential pool vs multi-domain pool                             *)
(* ------------------------------------------------------------------ *)

let parallel_prop pool (sc : Netgen.scenario) =
  let state = state_of sc.Netgen.net in
  let testeds = testeds_of state sc in
  let seq = Netcov.analyze_suite ~pool:Pool.sequential state testeds in
  let par = Netcov.analyze_suite ~pool state testeds in
  let fps_seq = List.map coverage_fp seq and fps_par = List.map coverage_fp par in
  match first_diff fps_seq fps_par with
  | Some i -> fail "per-test report %d differs between 1 and %d domains" i
               (Pool.domains pool)
  | None ->
      let m_seq = coverage_fp (Netcov.merge_reports seq) in
      let m_par = coverage_fp (Netcov.merge_reports par) in
      if m_seq <> m_par then fail "merged suite report differs across domain counts"
      else Ok ()

let parallel_oracle =
  {
    name = "parallel-determinism";
    describe = "analyze_suite yields byte-identical reports at any domain count";
    run =
      (fun ~seed ~iters ->
        Pool.with_pool ~domains:3 (fun pool ->
            Check.run ~name:"parallel-determinism" ~seed ~iters
              ~print:Netgen.print_scenario Netgen.scenario (parallel_prop pool)));
  }

(* ------------------------------------------------------------------ *)
(* 3. BDD operations vs brute-force truth tables                       *)
(* ------------------------------------------------------------------ *)

(* Random cone predicates: the labeler builds conjunction/disjunction/
   negation shapes over config variables and then asks necessity
   questions; this oracle replays those shapes against exhaustive
   enumeration (practical because cones here have <= 12 variables). *)
type formula =
  | F_true
  | F_false
  | F_var of int
  | F_not of formula
  | F_and of formula * formula
  | F_or of formula * formula
  | F_xor of formula * formula

let rec print_formula = function
  | F_true -> "T"
  | F_false -> "F"
  | F_var v -> Printf.sprintf "x%d" v
  | F_not f -> Printf.sprintf "(not %s)" (print_formula f)
  | F_and (a, b) -> Printf.sprintf "(and %s %s)" (print_formula a) (print_formula b)
  | F_or (a, b) -> Printf.sprintf "(or %s %s)" (print_formula a) (print_formula b)
  | F_xor (a, b) -> Printf.sprintf "(xor %s %s)" (print_formula a) (print_formula b)

let rec eval_formula assign = function
  | F_true -> true
  | F_false -> false
  | F_var v -> assign v
  | F_not f -> not (eval_formula assign f)
  | F_and (a, b) -> eval_formula assign a && eval_formula assign b
  | F_or (a, b) -> eval_formula assign a || eval_formula assign b
  | F_xor (a, b) -> eval_formula assign a <> eval_formula assign b

let rec formula_gen ~n_vars depth =
  let leaf =
    Gen.oneof
      [
        Gen.map (fun v -> F_var v) (Gen.int_bound (n_vars - 1));
        Gen.oneofl [ F_true; F_false ];
      ]
  in
  if depth = 0 then leaf
  else
    let sub = formula_gen ~n_vars (depth - 1) in
    Gen.oneof
      [
        leaf;
        Gen.map (fun f -> F_not f) sub;
        Gen.map2 (fun a b -> F_and (a, b)) sub sub;
        Gen.map2 (fun a b -> F_or (a, b)) sub sub;
        Gen.map2 (fun a b -> F_xor (a, b)) sub sub;
      ]

type bdd_case = { n_vars : int; f : formula }

let bdd_case_gen =
  (* skew small: most cones are tiny, a few reach the 12-variable cap *)
  let* n_vars = Gen.oneof [ Gen.int_range 1 6; Gen.int_range 7 12 ] in
  let* f = formula_gen ~n_vars 4 in
  Gen.return { n_vars; f }

let print_bdd_case c = Printf.sprintf "n_vars=%d %s" c.n_vars (print_formula c.f)

let rec build_bdd m = function
  | F_true -> Netcov_bdd.Bdd.bdd_true m
  | F_false -> Netcov_bdd.Bdd.bdd_false m
  | F_var v -> Netcov_bdd.Bdd.var m v
  | F_not f -> Netcov_bdd.Bdd.bdd_not m (build_bdd m f)
  | F_and (a, b) -> Netcov_bdd.Bdd.bdd_and m (build_bdd m a) (build_bdd m b)
  | F_or (a, b) -> Netcov_bdd.Bdd.bdd_or m (build_bdd m a) (build_bdd m b)
  | F_xor (a, b) -> Netcov_bdd.Bdd.bdd_xor m (build_bdd m a) (build_bdd m b)

let bdd_prop { n_vars; f } =
  let module B = Netcov_bdd.Bdd in
  let m = B.create () in
  let node = build_bdd m f in
  let n_assignments = 1 lsl n_vars in
  let assign_of bits v = bits land (1 lsl v) <> 0 in
  let exception Diverged of string in
  try
    (* eval agrees with the truth table *)
    for bits = 0 to n_assignments - 1 do
      let a = assign_of bits in
      if B.eval m node a <> eval_formula a f then
        raise (Diverged (Printf.sprintf "eval diverges at assignment %#x" bits))
    done;
    (* necessity (the strong-label test) agrees with brute force *)
    List.iter
      (fun v ->
        let brute_necessary =
          (* [not v => not f]: no assignment with v=false satisfies f *)
          let sat_with_v_false = ref false in
          for bits = 0 to n_assignments - 1 do
            let a = assign_of bits in
            if (not (a v)) && eval_formula a f then sat_with_v_false := true
          done;
          not !sat_with_v_false
        in
        if B.is_necessary m node ~var:v <> brute_necessary then
          raise
            (Diverged
               (Printf.sprintf "is_necessary diverges on x%d (brute=%b)" v
                  brute_necessary)))
      (B.support m node);
    (* restrict is the semantic cofactor, under both values *)
    for v = 0 to n_vars - 1 do
      List.iter
        (fun value ->
          let r = B.restrict m node ~var:v ~value in
          for bits = 0 to n_assignments - 1 do
            let a = assign_of bits in
            let forced u = if u = v then value else a u in
            if B.eval m r a <> eval_formula forced f then
              raise
                (Diverged
                   (Printf.sprintf
                      "restrict diverges on x%d:=%b at assignment %#x" v value
                      bits))
          done)
        [ false; true ]
    done;
    (* any_sat is sound and complete *)
    (match B.any_sat m node with
    | Some partial ->
        let a v = match List.assoc_opt v partial with Some b -> b | None -> false in
        if not (eval_formula a f) then
          raise (Diverged "any_sat returned a non-satisfying assignment")
    | None ->
        for bits = 0 to n_assignments - 1 do
          if eval_formula (assign_of bits) f then
            raise (Diverged "any_sat returned None on a satisfiable formula")
        done);
    Ok ()
  with Diverged msg -> Error msg

let bdd_oracle =
  {
    name = "bdd-truth-table";
    describe =
      "BDD eval/necessity/restrict/any_sat match brute-force enumeration";
    run =
      (fun ~seed ~iters ->
        Check.run ~name:"bdd-truth-table" ~seed ~iters ~print:print_bdd_case
          bdd_case_gen bdd_prop);
  }

(* ------------------------------------------------------------------ *)
(* 4. coverage monotonicity + merge order-insensitivity                *)
(* ------------------------------------------------------------------ *)

let strong_set (r : Netcov.report) =
  let reg = Coverage.registry r.Netcov.coverage in
  List.filter
    (fun id -> Coverage.element_status r.Netcov.coverage id = Coverage.Strong)
    (List.init (Registry.n_elements reg) Fun.id)

let monotone_prop (sc : Netgen.scenario) =
  match sc.Netgen.tests with
  | [] -> Ok ()
  | extra :: rest ->
      let state = state_of sc.Netgen.net in
      let base =
        Netcov.union_tested (List.map (Netgen.tested_of state) rest)
      in
      let grown =
        Netcov.union_tested [ base; Netgen.tested_of state extra ]
      in
      let strong_base = strong_set (Netcov.analyze state base) in
      let strong_grown = strong_set (Netcov.analyze state grown) in
      let lost =
        List.filter (fun id -> not (List.mem id strong_grown)) strong_base
      in
      if lost <> [] then
        fail "adding a test lost strong coverage of elements [%s]"
          (String.concat ";" (List.map string_of_int lost))
      else
        (* merge_reports is order-insensitive on coverage, and one
           analysis of the suite's union equals the merged per-test
           reports (what Incr's union analysis relies on) *)
        let testeds = List.map (Netgen.tested_of state) sc.Netgen.tests in
        let reports =
          Netcov.analyze_suite ~pool:Pool.sequential state testeds
        in
        let fwd = coverage_fp (Netcov.merge_reports reports) in
        let rev = coverage_fp (Netcov.merge_reports (List.rev reports)) in
        let union =
          coverage_fp (Netcov.analyze state (Netcov.union_tested testeds))
        in
        if fwd <> rev then fail "merge_reports coverage depends on report order"
        else if union <> fwd then
          fail "analyzing the suite's union differs from the merged reports"
        else Ok ()

let monotone_oracle =
  {
    name = "monotonicity-merge";
    describe =
      "coverage grows monotonically with tests; merge is order-insensitive \
       and equals one analysis of the suite's union";
    run =
      (fun ~seed ~iters ->
        Check.run ~name:"monotonicity-merge" ~seed ~iters
          ~print:Netgen.print_scenario Netgen.scenario monotone_prop);
  }

(* ------------------------------------------------------------------ *)
(* 5. per-test fault isolation                                         *)
(* ------------------------------------------------------------------ *)

(* A tested fact referencing a nonexistent device makes its analysis
   raise (the registry lookup fails while deciding expandability) —
   the same failure mode as a crashing targeted simulation, injected
   deterministically. *)
let poison_tested i =
  let prefix =
    Option.get (Netcov_types.Prefix.of_string_opt "10.99.99.0/24")
  in
  let route =
    Netcov_types.Route.originate prefix ~next_hop:Netcov_types.Ipv4.zero
  in
  {
    Netcov.dp_facts =
      [
        Fact.F_bgp_rib
          {
            host = Printf.sprintf "no-such-device-%d" i;
            route;
            source = Netcov_sim.Rib.From_redistribute Netcov_types.Route.Static;
          };
      ];
    cp_elements = [];
  }

let isolation_prop (sc : Netgen.scenario) =
  let state = state_of sc.Netgen.net in
  let reg = Stable_state.registry state in
  let testeds = testeds_of state sc in
  let k = 2 in
  (* surround the healthy tests so exclusion is position-independent *)
  let mixed = (poison_tested 0 :: testeds) @ [ poison_tested 1 ] in
  let clean = Netcov.analyze_suite ~pool:Pool.sequential state testeds in
  let outcome = Netcov.analyze_suite_isolated ~pool:Pool.sequential state mixed in
  if List.length outcome.Netcov.failures <> k then
    fail "expected %d isolated failures, got %d" k
      (List.length outcome.Netcov.failures)
  else if
    not
      (List.for_all
         (fun (f : Netcov.test_failure) ->
           f.Netcov.tf_index = 0 || f.Netcov.tf_index = List.length mixed - 1)
         outcome.Netcov.failures)
  then fail "failure indices do not match the injected positions"
  else
    match
      first_diff
        (List.map coverage_fp outcome.Netcov.ok)
        (List.map coverage_fp clean)
    with
    | Some i ->
        fail
          "surviving report %d differs from analyzing the suite without the \
           injected tests"
          i
    | None ->
        let m_mixed =
          coverage_fp (Netcov.merge_reports ~registry:reg outcome.Netcov.ok)
        in
        let m_clean = coverage_fp (Netcov.merge_reports ~registry:reg clean) in
        if m_mixed <> m_clean then
          fail "merged coverage differs once the failures section is set aside"
        else Ok ()

let isolation_oracle =
  {
    name = "fault-isolation";
    describe =
      "a suite with k injected-failing tests analyzes like the suite without \
       them, modulo the failures section";
    run =
      (fun ~seed ~iters ->
        Check.run ~name:"fault-isolation" ~seed ~iters
          ~print:Netgen.print_scenario Netgen.scenario isolation_prop);
  }

(* ------------------------------------------------------------------ *)
(* 6. incremental engine vs from-scratch analysis                      *)
(* ------------------------------------------------------------------ *)

module Incr = Netcov_incr.Incr

(* One small deterministic configuration edit derived from [pick] — the
   "new version" side of the incremental oracle. Edits keep the network
   convergent (a tree stays a tree): a policy action value or an
   interface description is tweaked, or a static route appears. *)
let mutate_devices pick devs =
  let internals =
    List.filteri (fun _ (d : Device.t) -> not d.Device.is_external) devs
    |> List.map (fun (d : Device.t) -> d.Device.hostname)
  in
  match internals with
  | [] -> devs
  | _ ->
      let target = List.nth internals (pick mod List.length internals) in
      let edit_policy (d : Device.t) =
        match d.Device.policies with
        | [] -> None
        | p :: rest ->
            let terms =
              match p.Policy_ast.terms with
              | [] -> []
              | t :: ts ->
                  (* prepending a modifier is a live edit: it applies
                     before the term's verdict and alters route state *)
                  {
                    t with
                    Policy_ast.actions =
                      Policy_ast.Set_med 77 :: t.Policy_ast.actions;
                  }
                  :: ts
            in
            Some { d with Device.policies = { p with Policy_ast.terms } :: rest }
      in
      let edit_interface (d : Device.t) =
        match d.Device.interfaces with
        | [] -> None
        | i :: rest ->
            Some
              {
                d with
                Device.interfaces =
                  { i with Device.description = Some "edited" } :: rest;
              }
      in
      let add_static (d : Device.t) =
        Some
          {
            d with
            Device.static_routes =
              {
                Device.st_prefix = Netgen.lan 99;
                st_next_hop = Netcov_types.Ipv4.zero;
              }
              :: d.Device.static_routes;
          }
      in
      List.map
        (fun (d : Device.t) ->
          if d.Device.hostname <> target then d
          else
            let edits =
              match pick / List.length internals mod 3 with
              | 0 -> [ edit_policy; edit_interface; add_static ]
              | 1 -> [ edit_interface; add_static ]
              | _ -> [ add_static ]
            in
            List.fold_left
              (fun acc e -> match acc with Some _ -> acc | None -> e d)
              None edits
            |> Option.value ~default:d)
        devs

let scratch_fp state testeds =
  coverage_fp
    (Netcov.merge_reports
       ~registry:(Stable_state.registry state)
       (Netcov.analyze_suite ~pool:Pool.sequential state testeds))

let incr_prop ((sc : Netgen.scenario), pick) =
  let devs_old = Netgen.devices_of sc.Netgen.net in
  let devs_new = mutate_devices pick devs_old in
  let state_a = Stable_state.compute (Registry.build devs_old) in
  let state_b = Stable_state.compute (Registry.build devs_new) in
  let testeds_a = testeds_of state_a sc in
  let testeds_b = testeds_of state_b sc in
  (* The session starts on the first half of the suite, and the rest is
     registered on the live session: the old tests are a prefix of the
     new list, so only the appended ones are analyzed and merged in. *)
  let half =
    List.filteri (fun i _ -> 2 * i < List.length testeds_a) testeds_a
  in
  let session, _ = Incr.create state_a half in
  let diverges state testeds =
    coverage_fp (Incr.report session) <> scratch_fp state testeds
  in
  let update state testeds =
    ignore (Incr.update session state testeds : Incr.stats)
  in
  if diverges state_a half then
    fail "cold incremental run diverges from Netcov.analyze_suite"
  else begin
    update state_a testeds_a;
    if diverges state_a testeds_a then
      fail "registering tests on a live session diverges from scratch"
    else begin
      update state_b testeds_b;
      if diverges state_b testeds_b then
        fail "incremental update diverges from from-scratch analysis (edit %d)"
          pick
      else begin
        (* Edit reverted: this update must match from scratch too. *)
        let state_a' = Stable_state.compute (Registry.build devs_old) in
        let testeds_a' = testeds_of state_a' sc in
        update state_a' testeds_a';
        if diverges state_a' testeds_a' then
          fail "incremental revert diverges from from-scratch analysis"
        else Ok ()
      end
    end
  end

let print_incr (sc, pick) =
  Printf.sprintf "%s edit=%d" (Netgen.print_scenario sc) pick

let incr_oracle =
  {
    name = "incremental-scratch";
    describe =
      "incremental registration and update (diff -> fast path or union \
       re-analysis over the replay-validated sim cache) produces \
       byte-identical coverage to a from-scratch analysis";
    run =
      (fun ~seed ~iters ->
        Check.run ~name:"incremental-scratch" ~seed ~iters ~print:print_incr
          (Gen.pair Netgen.scenario (Gen.int_bound 1000))
          incr_prop);
  }

(* ------------------------------------------------------------------ *)
(* 7. mutation falsifiability                                          *)
(* ------------------------------------------------------------------ *)

(* Mutation coverage as ground truth (paper §3.1): mutating a strongly
   covered element must change some test outcome, mutating an uncovered
   element must change none — modulo the competitor class
   (Mutation.competitor_prone) and elements strong only by decree
   (cp_elements), both exempted by Incr.falsifiability. Piggybacked:
   warm (incremental) mutant execution must agree verdict-for-verdict
   with the scratch reference on a subsample. *)
let mutation_prop (sc : Netgen.scenario) =
  let state = state_of sc.Netgen.net in
  let testeds = testeds_of state sc in
  let session, (_ : Incr.stats) = Incr.create state testeds in
  let reg = Incr.registry session in
  let fz = Incr.falsifiability ~max_elements:16 session in
  if fz.Incr.fz_missed <> [] || fz.Incr.fz_divergent <> [] then
    fail "%s" (Incr.falsifiability_summary reg fz)
  else
    let sample =
      List.filteri
        (fun i _ -> i < 6)
        (fz.Incr.fz_strong @ fz.Incr.fz_uncovered)
    in
    if sample = [] then Ok ()
    else
      let facts =
        List.concat_map (fun (t : Netcov.tested) -> t.Netcov.dp_facts) testeds
      in
      let oracle = Mutation.facts_oracle facts in
      let run mode =
        Mutation.run reg ~oracle ~elements:sample ~mode ()
      in
      let warm = run Mutation.Warm and scratch = run Mutation.Scratch in
      if
        Element.Id_set.equal warm.Mutation.killed scratch.Mutation.killed
        && Element.Id_set.equal warm.Mutation.survived
             scratch.Mutation.survived
        && Element.Id_set.equal warm.Mutation.skipped scratch.Mutation.skipped
      then Ok ()
      else
        fail
          "warm and scratch mutant verdicts diverge: warm %d/%d/%d vs \
           scratch %d/%d/%d (killed/survived/skipped)"
          (Element.Id_set.cardinal warm.Mutation.killed)
          (Element.Id_set.cardinal warm.Mutation.survived)
          (Element.Id_set.cardinal warm.Mutation.skipped)
          (Element.Id_set.cardinal scratch.Mutation.killed)
          (Element.Id_set.cardinal scratch.Mutation.survived)
          (Element.Id_set.cardinal scratch.Mutation.skipped)

let mutation_oracle =
  {
    name = "mutation-falsifiability";
    describe =
      "mutating a covered element changes some test outcome, mutating an \
       uncovered one changes none (modulo the competitor class), and warm \
       mutant execution matches the scratch reference";
    run =
      (fun ~seed ~iters ->
        Check.run ~name:"mutation-falsifiability" ~seed ~iters
          ~print:Netgen.print_scenario Netgen.scenario mutation_prop);
  }

(* ------------------------------------------------------------------ *)

let all =
  [
    roundtrip_oracle;
    parallel_oracle;
    bdd_oracle;
    monotone_oracle;
    isolation_oracle;
    incr_oracle;
    mutation_oracle;
  ]

let find name = List.find_opt (fun o -> o.name = name) all

let run_all ?(out = stdout) ?names ~seed ~iters () =
  let chosen =
    match names with
    | None -> all
    | Some ns -> List.filter (fun o -> List.mem o.name ns) all
  in
  List.fold_left
    (fun ok o ->
      let outcome = o.run ~seed ~iters in
      Printf.fprintf out "%s\n%!" (Check.report outcome);
      ok && Check.passed outcome)
    true chosen
