open Netcov_config
open Netcov_sim
open Netcov_core
module Diag = Netcov_diag.Diag
module Incr = Netcov_incr.Incr
module Registry_diff = Netcov_incr.Registry_diff
module Dpcov = Netcov_dpcov.Dpcov
module M = Netcov_obs.Metrics
module J = Json_export

type t = { tbl : Session_table.t; started_s : float }

let create ~table () = { tbl = table; started_s = Unix.gettimeofday () }
let table t = t.tbl

type response = {
  status : int;
  content_type : string;
  body : string;
  route : string;
}

(* Handlers signal user errors by raising; [handle] turns them into the
   uniform error envelope. *)
exception Reply of int * string (* code *) * string (* message *) * Diag.t list

let fail ?(diags = []) status code message =
  raise (Reply (status, code, message, diags))

let json ?(status = 200) body =
  { status; content_type = "application/json"; body; route = "" }

let error_body ~code ~message ~diags =
  J.to_string
    (J.J_obj
       [
         ( "error",
           J.J_obj
             [
               ("code", J.J_str code);
               ("message", J.J_str message);
               ("diagnostics", J.J_raw (Diag.list_to_json diags));
             ] );
       ])

(* ------------------------------------------------------------------ *)
(* Request JSON helpers (over the stdlib-only Json_import reader).     *)

let parse_body (req : Http.request) =
  match Json_import.parse req.body with
  | Ok j -> j
  | Error msg -> fail 400 "bad-json" ("request body is not valid JSON: " ^ msg)

let member_str j name =
  Option.bind (Json_import.member name j) Json_import.to_str

let member_int j name =
  Option.bind (Json_import.member name j) Json_import.to_int

let syntax_of_json j =
  match member_str j "syntax" with
  | None | Some "junos" -> `Junos
  | Some "ios" -> `Ios
  | Some other ->
      fail 400 "bad-request"
        (Printf.sprintf "unknown syntax %S (want \"junos\" or \"ios\")" other)

let syntax_to_string = function `Junos -> "junos" | `Ios -> "ios"

(* The uploaded configuration set: [{"file": "r1.cfg", "text": "…"}]. *)
let configs_of_json j =
  let bad () =
    fail 400 "bad-request"
      "\"configs\" must be a non-empty array of {\"file\", \"text\"} objects"
  in
  match Option.bind (Json_import.member "configs" j) Json_import.to_list with
  | None | Some [] -> bad ()
  | Some items ->
      List.map
        (fun item ->
          match (member_str item "file", member_str item "text") with
          | Some file, Some text when file <> "" -> (file, text)
          | _ -> bad ())
        items

(* ------------------------------------------------------------------ *)
(* Parse + simulate one uploaded configuration set. Lenient per PR 5:
   recoverable problems become diagnostics in the response; an
   unrecoverable file fails the whole request with 422 and the
   collected diagnostics, leaving any existing session untouched. *)

let build_state ~syntax configs =
  let coll = Diag.collector () in
  let fatals = ref [] in
  let devices =
    List.filter_map
      (fun (file, text) ->
        let hostname = Filename.remove_extension file in
        let parsed =
          match syntax with
          | `Junos -> Parse_junos.parse_lenient ~file ~hostname text
          | `Ios -> Parse_ios.parse_lenient ~file ~hostname text
        in
        match parsed with
        | Ok (d, warns) ->
            List.iter (Diag.add coll) warns;
            Some d
        | Error diag ->
            Diag.add coll diag;
            fatals := diag :: !fatals;
            None)
      configs
  in
  if !fatals <> [] then
    fail 422 "parse-failed"
      (Printf.sprintf "%d configuration file(s) failed to parse"
         (List.length !fatals))
      ~diags:(Diag.items coll);
  let reg, reg_diags = Registry.build_lenient devices in
  List.iter (Diag.add coll) reg_diags;
  let state = Stable_state.compute ~diags:(Diag.add coll) reg in
  (state, List.length devices, Diag.items coll)

(* ------------------------------------------------------------------ *)
(* Test-suite specs: uploaded as JSON, compiled against a stable state
   on every update (a spec outliving the device or prefix it names
   compiles to the empty test — registered suites never make an update
   fail; see docs/SERVE.md). *)

let spec_of_json j =
  match member_str j "kind" with
  | Some "dp-upper-bound" -> Session_table.Dp_upper_bound
  | Some "rib" -> (
      match (member_str j "host", member_str j "prefix") with
      | Some host, Some prefix -> (
          match
            try Some (Netcov_types.Prefix.of_string prefix) with _ -> None
          with
          | Some p -> Session_table.Rib { host; prefix = p }
          | None ->
              fail 400 "bad-request"
                (Printf.sprintf "malformed prefix %S in rib test" prefix))
      | _ -> fail 400 "bad-request" "rib test wants \"host\" and \"prefix\"")
  | Some "element" -> (
      match (member_str j "device", member_int j "line") with
      | Some device, Some line -> Session_table.Element { device; line }
      | _ ->
          fail 400 "bad-request" "element test wants \"device\" and \"line\"")
  | Some other ->
      fail 400 "bad-request"
        (Printf.sprintf
           "unknown test kind %S (want \"dp-upper-bound\", \"rib\" or \
            \"element\")"
           other)
  | None -> fail 400 "bad-request" "test is missing \"kind\""

let suites_of_json j =
  match Option.bind (Json_import.member "suites" j) Json_import.to_list with
  | None | Some [] ->
      fail 400 "bad-request" "\"suites\" must be a non-empty array"
  | Some items ->
      List.map
        (fun item ->
          let name =
            Option.value (member_str item "name") ~default:"unnamed"
          in
          match
            Option.bind (Json_import.member "tests" item) Json_import.to_list
          with
          | None | Some [] ->
              fail 400 "bad-request"
                (Printf.sprintf "suite %S has no \"tests\" array" name)
          | Some tests ->
              {
                Session_table.su_name = name;
                su_tests = List.map spec_of_json tests;
              })
        items

let compile_spec state reg = function
  | Session_table.Dp_upper_bound -> Dpcov.all_data_plane_tested state
  | Session_table.Rib { host; prefix } ->
      let entries =
        try Stable_state.main_lookup state host prefix with _ -> []
      in
      {
        Netcov.dp_facts =
          List.map (fun entry -> Fact.F_main_rib { host; entry }) entries;
        cp_elements = [];
      }
  | Session_table.Element { device; line } ->
      let owner = try Registry.line_owner reg device line with _ -> None in
      {
        Netcov.dp_facts = [];
        cp_elements = (match owner with Some id -> [ id ] | None -> []);
      }

(* One tested per registered test, suites flattened in registration
   order: a newly registered suite appends to the old list, so
   [Incr.update] keeps the old tests as a prefix and analyzes only the
   new suite. *)
let compile_suites state reg suites =
  List.concat_map
    (fun (s : Session_table.suite) ->
      List.map (compile_spec state reg) s.su_tests)
    suites

let n_tests suites =
  List.fold_left
    (fun a (s : Session_table.suite) -> a + List.length s.su_tests)
    0 suites

(* ------------------------------------------------------------------ *)
(* Response fragments.                                                 *)

let coverage_pct session =
  Coverage.pct (Coverage.line_stats (Incr.report session).Netcov.coverage)

let stats_json (s : Incr.stats) =
  J.J_obj
    [
      ("changed", J.J_int s.Incr.s_changed);
      ("added", J.J_int s.Incr.s_added);
      ("removed", J.J_int s.Incr.s_removed);
      ("reused_cones", J.J_int s.Incr.s_reused);
      ("relabeled_cones", J.J_int s.Incr.s_relabeled);
      ("evicted_sim_entries", J.J_int s.Incr.s_evicted_sim);
      ("sim_cache_hits", J.J_int s.Incr.s_sim_hits);
      ("sim_cache_misses", J.J_int s.Incr.s_sim_misses);
      ("reuse_ratio", J.J_float s.Incr.s_reuse_ratio);
      ("seconds", J.J_float s.Incr.s_seconds);
    ]

let entry_summary (e : Session_table.entry) =
  let reg = Incr.registry e.Session_table.e_session in
  J.J_obj
    [
      ("id", J.J_str e.Session_table.e_id);
      ("name", J.J_str e.Session_table.e_name);
      ("syntax", J.J_str (syntax_to_string e.Session_table.e_syntax));
      ("devices", J.J_int (List.length (Registry.devices reg)));
      ("elements", J.J_int (Registry.n_elements reg));
      ("suites", J.J_int (List.length e.Session_table.e_suites));
      ("tests", J.J_int (n_tests e.Session_table.e_suites));
      ("updates", J.J_int e.Session_table.e_updates);
      ("coverage_pct", J.J_float (coverage_pct e.Session_table.e_session));
    ]

(* ------------------------------------------------------------------ *)
(* Handlers.                                                           *)

let healthz t =
  json
    (J.to_string
       (J.J_obj
          [
            ("status", J.J_str "ok");
            ("networks", J.J_int (Session_table.count t.tbl));
            ("max_networks", J.J_int (Session_table.max_networks t.tbl));
            ("uptime_s", J.J_float (Unix.gettimeofday () -. t.started_s));
          ]))

let metrics () = json (M.to_json M.default)

let list_networks t =
  json
    (J.to_string
       (J.J_obj
          [
            ( "networks",
              J.J_list (List.map entry_summary (Session_table.list t.tbl)) );
          ]))

let upload t req =
  let j = parse_body req in
  let name = Option.value (member_str j "name") ~default:"" in
  let syntax = syntax_of_json j in
  let configs = configs_of_json j in
  let state, n_devices, diags = build_state ~syntax configs in
  let session, _stats = Incr.create state [] in
  match Session_table.add t.tbl ~name ~syntax ~session ~diags with
  | Error `Full ->
      fail 409 "too-many-networks"
        (Printf.sprintf
           "network table is full (%d registered, --max-networks %d); DELETE \
            one first"
           (Session_table.count t.tbl)
           (Session_table.max_networks t.tbl))
  | Ok e ->
      let reg = Stable_state.registry state in
      json ~status:201
        (J.to_string
           (J.J_obj
              [
                ("id", J.J_str e.Session_table.e_id);
                ("name", J.J_str e.Session_table.e_name);
                ("syntax", J.J_str (syntax_to_string syntax));
                ("devices", J.J_int n_devices);
                ("elements", J.J_int (Registry.n_elements reg));
                ("considered_lines", J.J_int (Registry.considered_lines reg));
                ("diagnostics", J.J_raw (Diag.list_to_json diags));
              ]))

let find_network t id =
  match Session_table.find t.tbl id with
  | Some e -> e
  | None -> fail 404 "unknown-network" (Printf.sprintf "no network %S" id)

let network_detail e =
  Session_table.with_entry e @@ fun () ->
  let suites =
    J.J_list
      (List.map
         (fun (s : Session_table.suite) ->
           J.J_obj
             [
               ("name", J.J_str s.Session_table.su_name);
               ("tests", J.J_int (List.length s.Session_table.su_tests));
             ])
         e.Session_table.e_suites)
  in
  match entry_summary e with
  | J.J_obj fields -> json (J.to_string (J.J_obj (fields @ [ ("suite_details", suites) ])))
  | _ -> assert false

let register_suites e req =
  let j = parse_body req in
  let new_suites = suites_of_json j in
  Session_table.with_entry e @@ fun () ->
  let session = e.Session_table.e_session in
  let state = Incr.state session in
  let reg = Incr.registry session in
  e.Session_table.e_suites <- e.Session_table.e_suites @ new_suites;
  let testeds = compile_suites state reg e.Session_table.e_suites in
  let stats = Incr.update session state testeds in
  json
    (J.to_string
       (J.J_obj
          [
            ("id", J.J_str e.Session_table.e_id);
            ("suites", J.J_int (List.length e.Session_table.e_suites));
            ("tests", J.J_int (n_tests e.Session_table.e_suites));
            ("incr", stats_json stats);
            ("coverage_pct", J.J_float (coverage_pct session));
          ]))

let update e req =
  let j = parse_body req in
  let configs = configs_of_json j in
  (* The upload fixed the network's syntax; a mixed-syntax update is
     almost certainly a client bug, so re-specifying a different one is
     rejected rather than silently honoured. *)
  (match member_str j "syntax" with
  | Some s when s <> syntax_to_string e.Session_table.e_syntax ->
      fail 400 "bad-request"
        (Printf.sprintf "network %s is %S; cannot update with %S configs"
           e.Session_table.e_id
           (syntax_to_string e.Session_table.e_syntax)
           s)
  | _ -> ());
  let state, n_devices, diags =
    build_state ~syntax:e.Session_table.e_syntax configs
  in
  Session_table.with_entry e @@ fun () ->
  let session = e.Session_table.e_session in
  let reg = Stable_state.registry state in
  let testeds = compile_suites state reg e.Session_table.e_suites in
  let stats = Incr.update session state testeds in
  e.Session_table.e_diags <- diags;
  e.Session_table.e_updates <- e.Session_table.e_updates + 1;
  let diff_json =
    match Incr.last_diff session with
    | None -> J.J_obj []
    | Some d ->
        J.J_obj
          [
            ("changed", J.J_int (List.length d.Registry_diff.changed));
            ("added", J.J_int (List.length d.Registry_diff.added));
            ("removed", J.J_int (List.length d.Registry_diff.removed));
            ( "devices_changed",
              J.J_list
                (List.map
                   (fun h -> J.J_str h)
                   d.Registry_diff.devices_changed) );
          ]
  in
  json
    (J.to_string
       (J.J_obj
          [
            ("id", J.J_str e.Session_table.e_id);
            ("update", J.J_int e.Session_table.e_updates);
            ("devices", J.J_int n_devices);
            ("diff", diff_json);
            ("incr", stats_json stats);
            ("coverage_pct", J.J_float (coverage_pct session));
            ("diagnostics", J.J_raw (Diag.list_to_json diags));
          ]))

let coverage e req =
  Session_table.with_entry e @@ fun () ->
  let session = e.Session_table.e_session in
  let rep = Incr.report session in
  match Option.value (Http.query_param req "format") ~default:"report" with
  | "report" ->
      json
        (J.report ~diags:e.Session_table.e_diags ~failures:[] rep)
  | "coverage" -> json (J.coverage rep.Netcov.coverage)
  | "lcov" ->
      {
        status = 200;
        content_type = "text/plain";
        body = Lcov.report rep.Netcov.coverage;
        route = "";
      }
  | other ->
      fail 400 "bad-request"
        (Printf.sprintf
           "unknown format %S (want \"report\", \"coverage\" or \"lcov\")"
           other)

let delete t id =
  if Session_table.remove t.tbl id then
    json (J.to_string (J.J_obj [ ("id", J.J_str id); ("deleted", J.J_raw "true") ]))
  else fail 404 "unknown-network" (Printf.sprintf "no network %S" id)

(* ------------------------------------------------------------------ *)
(* Dispatch.                                                           *)

let segments path =
  String.split_on_char '/' path |> List.filter (fun s -> s <> "")

(* (route template, handler thunk); 405 carries the template of the
   path it hit so the metrics label stays low-cardinality. *)
let dispatch t (req : Http.request) =
  let meth = req.meth in
  let not_allowed route = (route, fun () -> fail 405 "method-not-allowed"
      (Printf.sprintf "%s is not supported on %s" meth route)) in
  match (meth, segments req.path) with
  | "GET", [ "healthz" ] -> ("/healthz", fun () -> healthz t)
  | "GET", [ "metrics" ] -> ("/metrics", fun () -> metrics ())
  | _, [ "healthz" ] -> not_allowed "/healthz"
  | _, [ "metrics" ] -> not_allowed "/metrics"
  | "POST", [ "v1"; "networks" ] -> ("/v1/networks", fun () -> upload t req)
  | "GET", [ "v1"; "networks" ] -> ("/v1/networks", fun () -> list_networks t)
  | _, [ "v1"; "networks" ] -> not_allowed "/v1/networks"
  | "GET", [ "v1"; "networks"; id ] ->
      ("/v1/networks/:id", fun () -> network_detail (find_network t id))
  | "DELETE", [ "v1"; "networks"; id ] ->
      ("/v1/networks/:id", fun () -> delete t id)
  | _, [ "v1"; "networks"; _ ] -> not_allowed "/v1/networks/:id"
  | "POST", [ "v1"; "networks"; id; "suites" ] ->
      ( "/v1/networks/:id/suites",
        fun () -> register_suites (find_network t id) req )
  | _, [ "v1"; "networks"; _; "suites" ] ->
      not_allowed "/v1/networks/:id/suites"
  | "POST", [ "v1"; "networks"; id; "update" ] ->
      ( "/v1/networks/:id/update",
        fun () -> update (find_network t id) req )
  | _, [ "v1"; "networks"; _; "update" ] ->
      not_allowed "/v1/networks/:id/update"
  | "GET", [ "v1"; "networks"; id; "coverage" ] ->
      ( "/v1/networks/:id/coverage",
        fun () -> coverage (find_network t id) req )
  | _, [ "v1"; "networks"; _; "coverage" ] ->
      not_allowed "/v1/networks/:id/coverage"
  | _ ->
      ( "(unmatched)",
        fun () ->
          fail 404 "not-found"
            (Printf.sprintf "no route for %s %s" meth req.path) )

let handle t req =
  let route, run = dispatch t req in
  let hist =
    M.histogram M.default ~help:"HTTP request latency, by route"
      ~unit_:"seconds" ~buckets:M.seconds_buckets
      ~labels:[ ("route", route) ]
      "http.request_seconds"
  in
  let resp =
    M.time hist @@ fun () ->
    match run () with
    | resp -> { resp with route }
    | exception Reply (status, code, message, diags) ->
        {
          status;
          content_type = "application/json";
          body = error_body ~code ~message ~diags;
          route;
        }
    | exception e ->
        {
          status = 500;
          content_type = "application/json";
          body =
            error_body ~code:"internal"
              ~message:(Printexc.to_string e)
              ~diags:[];
          route;
        }
  in
  M.inc
    (M.counter M.default ~help:"HTTP requests served, by route and status"
       ~unit_:"requests"
       ~labels:
         [
           ("method", req.meth);
           ("route", route);
           ("status", string_of_int resp.status);
         ]
       "http.requests")
    1;
  resp
