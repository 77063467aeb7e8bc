(* Structured diagnostics (lib/diag): rendering, ordering, the JSON
   round-trip and the domain-safe collector. Schema in docs/ERRORS.md. *)
module Diag = Netcov_diag.Diag
module Json_import = Netcov_core.Json_import

let check_str = Alcotest.(check string)
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---------------- rendering ---------------- *)

let test_to_string_degradation () =
  check_str "full provenance" "r1.cfg:7: error: bad stanza"
    (Diag.to_string
       (Diag.error ~file:"r1.cfg" ~line:7 Diag.Parse_error "bad stanza"));
  check_str "no line" "r1.cfg: warning: odd"
    (Diag.to_string (Diag.warning ~file:"r1.cfg" Diag.Parse_recovered "odd"));
  check_str "device stands in for file" "r1: error: unknown device"
    (Diag.to_string (Diag.error ~device:"r1" Diag.Unknown_host "unknown device"));
  check_str "bare" "info: hello" (Diag.to_string (Diag.info Diag.Internal "hello"));
  (* a line without a file cannot render as [file:line] *)
  check_str "line without file falls back to device" "r2: error: x"
    (Diag.to_string (Diag.error ~device:"r2" ~line:9 Diag.Sim_failure "x"))

let test_severity_and_kinds () =
  check_bool "is_error" true (Diag.is_error (Diag.error Diag.Internal "x"));
  check_bool "warning is not error" false
    (Diag.is_error (Diag.warning Diag.Internal "x"));
  (match Diag.max_severity [] with
  | None -> ()
  | Some _ -> Alcotest.fail "max_severity [] should be None");
  (match
     Diag.max_severity
       [ Diag.info Diag.Internal "a"; Diag.error Diag.Internal "b";
         Diag.warning Diag.Internal "c" ]
   with
  | Some Diag.Error -> ()
  | _ -> Alcotest.fail "max_severity should pick Error");
  (* every kind has its own non-empty string form *)
  let names =
    List.map Diag.kind_to_string
      [ Diag.Parse_error; Diag.Parse_recovered; Diag.Duplicate_host;
        Diag.Unknown_host; Diag.No_convergence; Diag.Policy_eval;
        Diag.Sim_failure; Diag.Test_failure; Diag.Io_error; Diag.Internal ]
  in
  check_bool "non-empty" true (List.for_all (fun n -> n <> "") names);
  check_int "distinct" (List.length names)
    (List.length (List.sort_uniq String.compare names))

let test_compare_provenance_major () =
  let a = Diag.error ~file:"a.cfg" ~line:3 Diag.Parse_error "x" in
  let b = Diag.error ~file:"b.cfg" ~line:1 Diag.Parse_error "x" in
  check_bool "file major" true (Diag.compare a b < 0);
  let l1 = Diag.error ~file:"a.cfg" ~line:1 Diag.Parse_error "x" in
  check_bool "line within file" true (Diag.compare l1 a < 0);
  let w = Diag.warning ~file:"a.cfg" ~line:3 Diag.Parse_error "x" in
  check_bool "same location: errors sort first" true (Diag.compare a w < 0);
  check_int "equal diagnostics" 0 (Diag.compare a a)

(* ---------------- JSON ---------------- *)

(* [to_json] read back by the toolchain's JSON reader: every field of
   the diagnostic survives, and absent provenance fields are omitted. *)
let roundtrip (d : Diag.t) =
  let s = Diag.to_json d in
  match Json_import.parse s with
  | Error e -> Alcotest.failf "%s does not parse: %s" s e
  | Ok j ->
      let field k = Json_import.member k j in
      let check_field k expected =
        Alcotest.(check (option string))
          (Printf.sprintf "%s: %s" s k)
          expected
          (Option.bind (field k) Json_import.to_str)
      in
      check_field "severity" (Some (Diag.severity_to_string d.severity));
      check_field "kind" (Some (Diag.kind_to_string d.kind));
      check_field "message" (Some d.message);
      check_field "device" d.device;
      check_field "file" d.file;
      check_field "fact" d.fact;
      Alcotest.(check (option int))
        (s ^ ": line") d.line
        (Option.bind (field "line") Json_import.to_int);
      let optional = [ d.device <> None; d.file <> None; d.line <> None; d.fact <> None ] in
      check_int (s ^ ": absent fields omitted")
        (3 + List.length (List.filter Fun.id optional))
        (match j with Json_import.Obj fs -> List.length fs | _ -> -1)

let test_json_roundtrip () =
  roundtrip (Diag.error ~file:"r1.cfg" ~line:12 Diag.Parse_error "plain");
  roundtrip (Diag.warning ~device:"r1" Diag.Parse_recovered "no file");
  roundtrip (Diag.info Diag.Internal "no provenance at all");
  roundtrip
    (Diag.error ~device:"r-9" ~file:"cfgs/r-9.conf" ~line:1
       ~fact:"bgp_rib(r-9, 10.0.0.0/8)" Diag.Sim_failure "every field set");
  (* messages that exercise the escaper *)
  roundtrip (Diag.error Diag.Io_error "quote \" backslash \\ done");
  roundtrip (Diag.error Diag.Io_error "newline \n tab \t return \r");
  roundtrip (Diag.error Diag.Io_error "control \x01\x1f bytes");
  roundtrip (Diag.error ~fact:"key with \"quotes\"" Diag.Test_failure "msg")

let test_list_to_json () =
  let ds =
    [ Diag.error ~file:"a.cfg" ~line:1 Diag.Parse_error "one";
      Diag.warning Diag.Parse_recovered "two" ]
  in
  let s = Diag.list_to_json ds in
  check_bool "array" true
    (String.length s >= 2 && s.[0] = '[' && s.[String.length s - 1] = ']');
  (* elements survive individually *)
  List.iter
    (fun d ->
      let sub = Diag.to_json d in
      let found =
        let n = String.length s and m = String.length sub in
        let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
        go 0
      in
      check_bool "element embedded" true found)
    ds

(* ---------------- collector ---------------- *)

let test_collector_order () =
  let c = Diag.collector () in
  check_int "empty" 0 (Diag.length c);
  let ds = List.init 5 (fun i -> Diag.info Diag.Internal (string_of_int i)) in
  List.iter (Diag.add c) ds;
  check_int "length" 5 (Diag.length c);
  check_bool "insertion order" true (Diag.items c = ds)

let test_collector_concurrent () =
  let c = Diag.collector () in
  let sink = Diag.sink c in
  let per_domain = 500 in
  let domains =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            for i = 1 to per_domain do
              sink (Diag.info Diag.Internal (Printf.sprintf "%d-%d" d i))
            done))
  in
  List.iter Domain.join domains;
  check_int "no lost updates" (4 * per_domain) (Diag.length c)

let () =
  Alcotest.run "diag"
    [
      ( "render",
        [
          Alcotest.test_case "to_string degradation" `Quick
            test_to_string_degradation;
          Alcotest.test_case "severity and kinds" `Quick test_severity_and_kinds;
          Alcotest.test_case "compare is provenance-major" `Quick
            test_compare_provenance_major;
        ] );
      ( "json",
        [
          Alcotest.test_case "round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "list encoding" `Quick test_list_to_json;
        ] );
      ( "collector",
        [
          Alcotest.test_case "insertion order" `Quick test_collector_order;
          Alcotest.test_case "concurrent adds" `Quick test_collector_concurrent;
        ] );
    ]
