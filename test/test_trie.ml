open Netcov_types

let p = Prefix.of_string
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

let sample =
  Prefix_trie.of_list
    [
      (p "0.0.0.0/0", "default");
      (p "10.0.0.0/8", "ten");
      (p "10.1.0.0/16", "ten-one");
      (p "10.1.2.0/24", "ten-one-two");
      (p "192.168.0.0/16", "rfc1918");
    ]

let test_cardinal () =
  check_int "cardinal" 5 (Prefix_trie.cardinal sample);
  check_int "empty" 0 (Prefix_trie.cardinal Prefix_trie.empty);
  check_bool "is_empty" true (Prefix_trie.is_empty Prefix_trie.empty)

let test_find_exact () =
  check_bool "exact hit" true
    (Prefix_trie.find_opt (p "10.1.0.0/16") sample = Some "ten-one");
  check_bool "exact miss (different len)" true
    (Prefix_trie.find_opt (p "10.1.0.0/17") sample = None);
  check_bool "mem" true (Prefix_trie.mem (p "0.0.0.0/0") sample)

let test_longest_match () =
  let lm addr =
    match Prefix_trie.longest_match (Ipv4.of_string addr) sample with
    | Some (q, v) -> Printf.sprintf "%s=%s" (Prefix.to_string q) v
    | None -> "none"
  in
  check_str "most specific" "10.1.2.0/24=ten-one-two" (lm "10.1.2.3");
  check_str "mid" "10.1.0.0/16=ten-one" (lm "10.1.3.1");
  check_str "top" "10.0.0.0/8=ten" (lm "10.9.9.9");
  check_str "default" "0.0.0.0/0=default" (lm "8.8.8.8")

let test_all_matches () =
  let ms =
    Prefix_trie.all_matches (Ipv4.of_string "10.1.2.3") sample
    |> List.map (fun (q, _) -> Prefix.to_string q)
  in
  Alcotest.(check (list string))
    "most specific first"
    [ "10.1.2.0/24"; "10.1.0.0/16"; "10.0.0.0/8"; "0.0.0.0/0" ]
    ms

let test_subsumed () =
  let under =
    Prefix_trie.subsumed (p "10.0.0.0/8") sample
    |> List.map (fun (q, _) -> Prefix.to_string q)
    |> List.sort String.compare
  in
  Alcotest.(check (list string))
    "subtree" [ "10.0.0.0/8"; "10.1.0.0/16"; "10.1.2.0/24" ] under

let test_remove_update () =
  let t = Prefix_trie.remove (p "10.1.0.0/16") sample in
  check_int "removed" 4 (Prefix_trie.cardinal t);
  check_bool "gone" true (Prefix_trie.find_opt (p "10.1.0.0/16") t = None);
  let t2 =
    Prefix_trie.update (p "10.0.0.0/8") (Option.map String.uppercase_ascii) t
  in
  check_bool "updated" true (Prefix_trie.find_opt (p "10.0.0.0/8") t2 = Some "TEN")

let test_fold_order () =
  let keys =
    Prefix_trie.to_list sample |> List.map (fun (q, _) -> Prefix.to_string q)
  in
  Alcotest.(check (list string))
    "ascending, each prefix before those inside it"
    [ "0.0.0.0/0"; "10.0.0.0/8"; "10.1.0.0/16"; "10.1.2.0/24"; "192.168.0.0/16" ]
    keys

let gen_prefix =
  QCheck.map
    (fun (a, l) -> Prefix.make (Ipv4.of_int a) l)
    QCheck.(pair (int_bound 0xFFFFFFF) (int_bound 32))

let gen_bindings = QCheck.(small_list (pair gen_prefix small_int))

(* Prefixes around a few addresses, so bindings nest and share paths:
   uniform prefixes almost never contain one another. *)
let gen_nested_prefix =
  QCheck.map
    (fun ((base, jitter), l) -> Prefix.make (Ipv4.of_int (base lxor jitter)) l)
    QCheck.(
      pair
        (pair (oneofl [ 0; 0x0A000000; 0x0A010200; 0x0A018000; 0xC0A80000 ])
           (int_bound 0x3FF))
        (int_bound 32))

let gen_nested_bindings =
  QCheck.(small_list (pair gen_nested_prefix small_int))

(* The list model: the last binding of each prefix, in [Prefix.compare]
   order. *)
let model bindings =
  List.fold_left
    (fun m (q, v) -> (q, v) :: List.filter (fun (q', _) -> not (Prefix.equal q q')) m)
    [] bindings
  |> List.sort (fun (a, _) (b, _) -> Prefix.compare a b)

let prop_to_list_ascending =
  QCheck.Test.make ~name:"to_list strictly ascending in Prefix.compare"
    ~count:300 gen_nested_bindings (fun bindings ->
      let rec ascending = function
        | (a, _) :: ((b, _) :: _ as rest) -> Prefix.compare a b < 0 && ascending rest
        | [ _ ] | [] -> true
      in
      let l = Prefix_trie.to_list (Prefix_trie.of_list bindings) in
      ascending l && l = model bindings)

let prop_subsumed_model =
  QCheck.Test.make ~name:"subsumed agrees with list model" ~count:300
    QCheck.(pair gen_nested_bindings gen_nested_prefix)
    (fun (bindings, q) ->
      Prefix_trie.subsumed q (Prefix_trie.of_list bindings)
      = List.filter (fun (q', _) -> Prefix.subsumes q q') (model bindings))

let prop_all_matches_model =
  QCheck.Test.make ~name:"all_matches agrees with list model" ~count:300
    QCheck.(pair gen_nested_bindings gen_nested_prefix)
    (fun (bindings, q) ->
      (* an address inside and one just past a drawn prefix *)
      List.for_all
        (fun a ->
          Prefix_trie.all_matches a (Prefix_trie.of_list bindings)
          = List.rev
              (List.filter (fun (q', _) -> Prefix.contains q' a) (model bindings)))
        [ Prefix.addr q; Ipv4.add (Prefix.addr q) (1 lsl (32 - max 1 (Prefix.len q))) ])

type op = Add of Prefix.t * int | Remove of Prefix.t | Update of Prefix.t * int option

let gen_ops =
  let open QCheck in
  small_list
    (oneof
       [
         map (fun (q, v) -> Add (q, v)) (pair gen_nested_prefix small_int);
         map (fun q -> Remove q) gen_nested_prefix;
         map (fun (q, v) -> Update (q, v)) (pair gen_nested_prefix (option small_int));
       ])

let prop_ops_model =
  QCheck.Test.make ~name:"add/remove/update sequences agree with list model"
    ~count:500 gen_ops (fun ops ->
      let unbind q m = List.filter (fun (q', _) -> not (Prefix.equal q q')) m in
      let t, m =
        List.fold_left
          (fun (t, m) op ->
            match op with
            | Add (q, v) -> (Prefix_trie.add q v t, (q, v) :: unbind q m)
            | Remove q -> (Prefix_trie.remove q t, unbind q m)
            | Update (q, v) ->
                (* [f] sees the current binding and bumps it, or binds
                   [v] where there is none *)
                let f = function Some x -> Some (x + 1) | None -> v in
                let m' =
                  match f (List.assoc_opt q m) with
                  | Some x -> (q, x) :: unbind q m
                  | None -> unbind q m
                in
                (Prefix_trie.update q f t, m'))
          (Prefix_trie.empty, []) ops
      in
      let m = List.sort (fun (a, _) (b, _) -> Prefix.compare a b) m in
      Prefix_trie.to_list t = m
      && Prefix_trie.cardinal t = List.length m
      && List.for_all (fun (q, v) -> Prefix_trie.find_opt q t = Some v) m
      (* the shape depends only on the bindings, so a trie built by
         edits equals one built fresh *)
      && Prefix_trie.equal Int.equal t (Prefix_trie.of_list m)
      && Prefix_trie.diff Int.equal t (Prefix_trie.of_list m) = [])

let prop_model_find =
  QCheck.Test.make ~name:"find agrees with assoc model" ~count:300 gen_bindings
    (fun bindings ->
      let t = Prefix_trie.of_list bindings in
      List.for_all
        (fun (q, _) ->
          (* last binding for q wins *)
          let expected =
            List.fold_left
              (fun acc (q', v) -> if Prefix.equal q q' then Some v else acc)
              None bindings
          in
          Prefix_trie.find_opt q t = expected)
        bindings)

let prop_lpm_sound =
  QCheck.Test.make ~name:"longest_match returns a containing, maximal prefix"
    ~count:300
    QCheck.(pair gen_bindings (int_bound 0xFFFFFFF))
    (fun (bindings, a) ->
      let t = Prefix_trie.of_list bindings in
      let addr = Ipv4.of_int a in
      match Prefix_trie.longest_match addr t with
      | None ->
          not (List.exists (fun (q, _) -> Prefix.contains q addr) bindings)
      | Some (q, _) ->
          Prefix.contains q addr
          && List.for_all
               (fun (q', _) ->
                 (not (Prefix.contains q' addr)) || Prefix.len q' <= Prefix.len q)
               bindings)

let prop_cardinal =
  QCheck.Test.make ~name:"cardinal = distinct keys" ~count:300 gen_bindings
    (fun bindings ->
      let distinct =
        List.sort_uniq Prefix.compare (List.map fst bindings) |> List.length
      in
      Prefix_trie.cardinal (Prefix_trie.of_list bindings) = distinct)

(* [Prefix_trie.diff]'s reference: the union's keys in [to_list] order,
   kept where the two lookups differ. *)
let diff_reference a b =
  let union = Prefix_trie.fold (fun q v t -> Prefix_trie.add q v t) b a in
  List.filter_map
    (fun (q, _) ->
      if Prefix_trie.find_opt q a <> Prefix_trie.find_opt q b then Some q
      else None)
    (Prefix_trie.to_list union)

let prop_diff =
  QCheck.Test.make ~name:"diff agrees with to_list reference" ~count:300
    QCheck.(
      triple gen_nested_bindings gen_nested_bindings
        (small_list (pair small_nat (option small_int))))
    (fun (bindings, others, edits) ->
      let a = Prefix_trie.of_list bindings in
      (* [shared] rebinds or removes some of [a]'s keys and adds a few
         more, so most of its subtrees are physically [a]'s *)
      let shared =
        List.fold_left
          (fun t (i, v) ->
            match bindings with
            | [] -> t
            | _ -> (
                let q = fst (List.nth bindings (i mod List.length bindings)) in
                match v with
                | Some v -> Prefix_trie.add q v t
                | None -> Prefix_trie.remove q t))
          a edits
      in
      let shared =
        match others with
        | (q, v) :: _ -> Prefix_trie.add q v shared
        | [] -> shared
      in
      let independent = Prefix_trie.of_list others in
      List.for_all
        (fun (x, y) ->
          List.equal Prefix.equal (Prefix_trie.diff Int.equal x y)
            (diff_reference x y))
        [ (a, shared); (shared, a); (a, independent); (independent, shared); (a, a) ])

let prop_iter_common =
  QCheck.Test.make ~name:"iter_common agrees with the list model"
    ~count:300
    QCheck.(pair gen_nested_bindings gen_nested_bindings)
    (fun (xs, ys) ->
      let a = Prefix_trie.of_list xs and b = Prefix_trie.of_list ys in
      let got = ref [] in
      Prefix_trie.iter_common (fun q va vb -> got := (q, va, vb) :: !got) a b;
      let expected =
        List.filter_map
          (fun (q, va) ->
            Option.map (fun vb -> (q, va, vb)) (List.assoc_opt q (model ys)))
          (model xs)
      in
      List.rev !got = expected)

let test_diff_skips_shared () =
  (* An [eq] that calls every pair different still finds nothing in a
     physically shared trie, and only the rebound prefix's path in a
     one-binding edit. *)
  let never _ _ = false in
  check_int "same trie" 0 (List.length (Prefix_trie.diff never sample sample));
  let edited = Prefix_trie.add (p "192.168.0.0/16") "private" sample in
  Alcotest.(check (list string))
    "edited path only"
    [ "0.0.0.0/0"; "192.168.0.0/16" ]
    (List.map Prefix.to_string (Prefix_trie.diff never sample edited))

let () =
  Alcotest.run "prefix_trie"
    [
      ( "unit",
        [
          Alcotest.test_case "cardinal" `Quick test_cardinal;
          Alcotest.test_case "find exact" `Quick test_find_exact;
          Alcotest.test_case "longest match" `Quick test_longest_match;
          Alcotest.test_case "all matches" `Quick test_all_matches;
          Alcotest.test_case "subsumed" `Quick test_subsumed;
          Alcotest.test_case "remove and update" `Quick test_remove_update;
          Alcotest.test_case "fold order" `Quick test_fold_order;
          Alcotest.test_case "diff skips shared subtrees" `Quick
            test_diff_skips_shared;
        ] );
      ( "props",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_model_find;
            prop_lpm_sound;
            prop_cardinal;
            prop_diff;
            prop_iter_common;
            prop_to_list_ascending;
            prop_subsumed_model;
            prop_all_matches_model;
            prop_ops_model;
          ] );
    ]
