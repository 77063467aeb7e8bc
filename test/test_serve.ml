(* Units for the daemon's hand-rolled HTTP layer — request-line,
   header and body framing with every documented size limit — plus a
   loopback end-to-end exercise: boot [Server] on an ephemeral port,
   drive upload → suites → update → coverage over real sockets, and
   hold the daemon to the audit CLI's bytes: the [?format=coverage]
   and [?format=lcov] payloads must be byte-identical to what the
   `netcov audit` code path computes on the same configuration texts.
   The warm-session property (a second update reuses every cone and
   does no full re-analysis) is asserted twice: from the update
   response's [incr] object and from the incr.* metrics in
   [/metrics]. *)
open Netcov_config
open Netcov_sim
open Netcov_core
module Diag = Netcov_diag.Diag
module Dpcov = Netcov_dpcov.Dpcov
module Http = Netcov_serve.Http
module Server = Netcov_serve.Server
module J = Json_export

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* ---------------- request parser ----------------------------------- *)

let parse s = Http.read_request (Http.of_string s)

let parse_ok s =
  match parse s with
  | Ok r -> r
  | Error _ -> Alcotest.fail ("request did not parse: " ^ String.escaped s)

let expect_bad name s =
  match parse s with
  | Error (Http.Bad_request _) -> ()
  | Ok _ -> Alcotest.fail (name ^ ": parsed a malformed request")
  | Error _ -> Alcotest.fail (name ^ ": wrong error kind")

let expect_too_large name ~what s =
  match parse s with
  | Error (Http.Too_large w) -> check_string (name ^ " limit") what w
  | Ok _ -> Alcotest.fail (name ^ ": parsed an oversized request")
  | Error _ -> Alcotest.fail (name ^ ": wrong error kind")

let test_parse_basic () =
  let r =
    parse_ok
      "get /v1/networks/n1/coverage?format=lcov&q=a%20b HTTP/1.1\r\n\
       Host: example\r\n\
       Content-Length: 3\r\n\
       \r\n\
       abc"
  in
  check_string "method uppercased" "GET" r.Http.meth;
  check_string "path split off query" "/v1/networks/n1/coverage" r.Http.path;
  check_string "query param" "lcov" (Option.get (Http.query_param r "format"));
  check_string "percent-decoded query" "a b"
    (Option.get (Http.query_param r "q"));
  check_string "version" "HTTP/1.1" r.Http.version;
  check_string "header names lowercased" "example"
    (Option.get (Http.header r "HOST"));
  check_string "body by content-length" "abc" r.Http.body;
  check_bool "1.1 defaults to keep-alive" true (Http.keep_alive r)

let test_parse_no_body () =
  let r = parse_ok "GET /healthz HTTP/1.1\r\n\r\n" in
  check_string "no content-length means empty body" "" r.Http.body;
  check_int "no headers" 0 (List.length r.Http.headers)

let test_keep_alive_semantics () =
  let ka v hs =
    Http.keep_alive
      { meth = "GET"; path = "/"; query = []; version = v; headers = hs;
        body = "" }
  in
  check_bool "1.1 default on" true (ka "HTTP/1.1" []);
  check_bool "1.1 close off" false (ka "HTTP/1.1" [ ("connection", "Close") ]);
  check_bool "1.0 default off" false (ka "HTTP/1.0" []);
  check_bool "1.0 keep-alive on" true
    (ka "HTTP/1.0" [ ("connection", "keep-alive") ])

let test_pipelined () =
  let r =
    Http.of_string
      "GET /healthz HTTP/1.1\r\n\r\nPOST /x HTTP/1.1\r\ncontent-length: 2\r\n\r\nhi"
  in
  let a = Result.get_ok (Http.read_request r) in
  let b = Result.get_ok (Http.read_request r) in
  check_string "first path" "/healthz" a.Http.path;
  check_string "second path" "/x" b.Http.path;
  check_string "second body" "hi" b.Http.body;
  check_bool "then clean EOF" true (Http.read_request r = Error Http.Eof)

let test_malformed_request_line () =
  check_bool "empty input is EOF" true (parse "" = Error Http.Eof);
  expect_bad "one token" "GARBAGE\r\n\r\n";
  expect_bad "two tokens" "GET /\r\n\r\n";
  expect_bad "bad version" "GET / HTTP/2.0\r\n\r\n";
  expect_bad "relative target" "GET healthz HTTP/1.1\r\n\r\n";
  expect_bad "bare LF terminator" "GET / HTTP/1.1\n\r\n";
  expect_bad "truncated mid-line" "GET / HTT";
  expect_bad "bad percent-encoding" "GET /a%zz HTTP/1.1\r\n\r\n"

let test_malformed_headers () =
  expect_bad "header without colon" "GET / HTTP/1.1\r\nno-colon-here\r\n\r\n";
  expect_bad "truncated headers" "GET / HTTP/1.1\r\nhost: x\r\n";
  expect_bad "chunked rejected"
    "POST / HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n";
  expect_bad "garbage content-length"
    "POST / HTTP/1.1\r\ncontent-length: ten\r\n\r\n";
  expect_bad "negative content-length"
    "POST / HTTP/1.1\r\ncontent-length: -4\r\n\r\n"

let test_oversized () =
  expect_too_large "request line" ~what:"request line"
    ("GET /" ^ String.make 9000 'a' ^ " HTTP/1.1\r\n\r\n");
  expect_too_large "header line" ~what:"header line"
    ("GET / HTTP/1.1\r\nx-big: " ^ String.make 9000 'b' ^ "\r\n\r\n");
  let many =
    String.concat ""
      (List.init 200 (fun i -> Printf.sprintf "x-%d: v\r\n" i))
  in
  expect_too_large "header count" ~what:"header count"
    ("GET / HTTP/1.1\r\n" ^ many ^ "\r\n");
  expect_too_large "declared body" ~what:"body"
    "POST / HTTP/1.1\r\ncontent-length: 999999999\r\n\r\n"

let test_truncated_body () =
  match parse "POST / HTTP/1.1\r\ncontent-length: 10\r\n\r\nabc" with
  | Error (Http.Bad_request msg) ->
      check_bool "names the body" true
        (String.length msg >= 9 && String.sub msg 0 9 = "truncated")
  | _ -> Alcotest.fail "truncated body must be a Bad_request"

let test_response_writer () =
  check_string "exact response bytes"
    "HTTP/1.1 404 Not Found\r\n\
     content-type: application/json\r\n\
     content-length: 2\r\n\
     connection: close\r\n\
     \r\n\
     {}"
    (Http.response ~status:404 ~keep_alive:false "{}");
  check_string "content type and keep-alive"
    "HTTP/1.1 200 OK\r\n\
     content-type: text/plain\r\n\
     content-length: 0\r\n\
     connection: keep-alive\r\n\
     \r\n"
    (Http.response ~content_type:"text/plain" ~status:200 ~keep_alive:true "")

(* ---------------- loopback client ---------------------------------- *)

let send_all fd s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let w = ref 0 in
  while !w < n do
    w := !w + Unix.write fd b !w (n - !w)
  done

(* The client always sends [connection: close], so reading to EOF
   yields exactly one response. *)
let read_all fd =
  let buf = Buffer.create 4096 in
  let chunk = Bytes.create 65536 in
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
        Buffer.add_subbytes buf chunk 0 n;
        go ()
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> ()
  in
  go ();
  Buffer.contents buf

let split_response raw =
  let len = String.length raw in
  let rec find i =
    if i + 3 >= len then Alcotest.fail "response has no header/body break"
    else if String.sub raw i 4 = "\r\n\r\n" then i
    else find (i + 1)
  in
  let i = find 0 in
  let head = String.sub raw 0 i in
  let body = String.sub raw (i + 4) (len - i - 4) in
  let status =
    match String.split_on_char ' ' head with
    | _ :: code :: _ -> int_of_string code
    | _ -> Alcotest.fail "bad status line"
  in
  (status, body)

let request ~port ?(meth = "GET") ?body path =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () ->
      try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let buf = Buffer.create 512 in
  Printf.bprintf buf "%s %s HTTP/1.1\r\nhost: test\r\nconnection: close\r\n"
    meth path;
  (match body with
  | Some b ->
      Printf.bprintf buf "content-length: %d\r\n\r\n" (String.length b);
      Buffer.add_string buf b
  | None -> Buffer.add_string buf "\r\n");
  send_all fd (Buffer.contents buf);
  split_response (read_all fd)

(* ---------------- JSON helpers over the responses ------------------- *)

let jparse body =
  match Json_import.parse body with
  | Ok j -> j
  | Error m -> Alcotest.fail ("response is not JSON (" ^ m ^ "): " ^ body)

let jmem j name =
  match Json_import.member name j with
  | Some v -> v
  | None -> Alcotest.fail ("response lacks field " ^ name)

let jstr j name = Option.get (Json_import.to_str (jmem j name))
let jint j name = Option.get (Json_import.to_int (jmem j name))
let jnum j name = Option.get (Json_import.to_num (jmem j name))

(* Sum of one integer field over every sample of a metric in a
   /metrics payload (incr.* metrics are label-free, so this is just
   that metric's field). *)
let metric_field field mjson name =
  match Json_import.to_list (jmem mjson "metrics") with
  | None -> Alcotest.fail "/metrics: \"metrics\" is not an array"
  | Some samples ->
      List.fold_left
        (fun acc s ->
          match
            ( Option.bind (Json_import.member "name" s) Json_import.to_str,
              Option.bind (Json_import.member field s) Json_import.to_int )
          with
          | Some n, Some v when n = name -> acc + v
          | _ -> acc)
        0 samples

(* A counter's value; a histogram's observation count. *)
let metric_total = metric_field "value"
let histogram_count = metric_field "count"

(* ---------------- fixtures ----------------------------------------- *)

(* Render fixture devices to the configuration text a client would
   upload; both the daemon and the scratch audit below re-parse it, so
   the comparison starts from identical bytes. *)
let configs_of devices =
  List.map
    (fun (d : Device.t) ->
      let lines, _ = Emit_junos.emit d in
      (d.Device.hostname ^ ".cfg", String.concat "\n" (Array.to_list lines) ^ "\n"))
    devices

let configs_json configs =
  J.J_list
    (List.map
       (fun (file, text) ->
         J.J_obj [ ("file", J.J_str file); ("text", J.J_str text) ])
       configs)

let upload_body configs =
  J.to_string
    (J.J_obj
       [
         ("name", J.J_str "chain");
         ("syntax", J.J_str "junos");
         ("configs", configs_json configs);
       ])

let update_body configs =
  J.to_string (J.J_obj [ ("configs", configs_json configs) ])

let suites_body =
  J.to_string
    (J.J_obj
       [
         ( "suites",
           J.J_list
             [
               J.J_obj
                 [
                   ("name", J.J_str "dp");
                   ( "tests",
                     J.J_list [ J.J_obj [ ("kind", J.J_str "dp-upper-bound") ] ]
                   );
                 ];
             ] );
       ])

let map_device f target devs =
  List.map
    (fun (d : Device.t) -> if d.Device.hostname = target then f d else d)
    devs

let add_static (d : Device.t) =
  {
    d with
    Device.static_routes =
      {
        Device.st_prefix = Netcov_types.Prefix.of_string "10.200.0.0/24";
        st_next_hop = Netcov_types.Ipv4.zero;
      }
      :: d.Device.static_routes;
  }

(* An interface description on a device. *)
let describe (d : Device.t) =
  match d.Device.interfaces with
  | [] -> d
  | i :: rest ->
      {
        d with
        Device.interfaces = { i with Device.description = Some "edited" } :: rest;
      }

(* A prefix list the lenient parser drops with a parse.recovered
   warning, leaving the device as it was. *)
let with_bad_list configs =
  List.map
    (fun (file, text) ->
      if file = "c.cfg" then
        ( file,
          text
          ^ "policy-options {\n    prefix-list BAD-LIST {\n        \
             999.1.2.3/99;\n    }\n}\n" )
      else (file, text))
    configs

(* A report payload without its "timing" object, the one part that
   differs between two runs of the same analysis. *)
let drop_timing report =
  let key = "\"timing\":{" in
  let klen = String.length key in
  let rec find i =
    if i + klen > String.length report then
      Alcotest.fail "report has no timing object"
    else if String.sub report i klen = key then i
    else find (i + 1)
  in
  let start = find 0 in
  let rec close i depth =
    match report.[i] with
    | '{' -> close (i + 1) (depth + 1)
    | '}' -> if depth = 1 then i else close (i + 1) (depth - 1)
    | _ -> close (i + 1) depth
  in
  let stop = close (start + klen - 1) 0 in
  String.sub report 0 start
  ^ String.sub report (stop + 2) (String.length report - stop - 2)

(* The `netcov audit` code path on the same uploaded texts: lenient
   parse, lenient registry, simulate, analyze the data-plane upper
   bound in isolation, merge. The daemon's [?format=coverage] and
   [?format=lcov] payloads are held byte-identical to this; the
   diagnostics are returned beside the merged report. *)
let audit_scratch configs =
  let coll = Diag.collector () in
  let devices =
    List.filter_map
      (fun (file, text) ->
        let hostname = Filename.remove_extension file in
        match Parse_junos.parse_lenient ~file ~hostname text with
        | Ok (d, warns) ->
            List.iter (Diag.add coll) warns;
            Some d
        | Error diag ->
            Diag.add coll diag;
            None)
      configs
  in
  let reg, reg_diags = Registry.build_lenient devices in
  List.iter (Diag.add coll) reg_diags;
  let state = Stable_state.compute ~diags:(Diag.add coll) reg in
  let all = Dpcov.all_data_plane_tested state in
  let outcome =
    Netcov.analyze_suite_isolated ~labels:[ "data-plane-upper-bound" ] state
      [ all ]
  in
  (Netcov.merge_reports ~registry:reg outcome.Netcov.ok, Diag.items coll)

(* ---------------- end-to-end over loopback ------------------------- *)

let test_lifecycle () =
  let srv =
    Server.create ~port:0 ~max_networks:2 ~handlers:2 ~idle_timeout_s:5. ()
  in
  let port = Server.port srv in
  let d = Domain.spawn (fun () -> Server.serve srv) in
  Fun.protect ~finally:(fun () ->
      Server.shutdown srv;
      Domain.join d)
  @@ fun () ->
  (* liveness *)
  let status, body = request ~port "/healthz" in
  check_int "healthz status" 200 status;
  check_string "healthz ok" "ok" (jstr (jparse body) "status");

  (* error envelopes: unknown network, bad method, invalid JSON *)
  let status, body = request ~port "/v1/networks/zz/coverage" in
  check_int "unknown network is 404" 404 status;
  let err = jmem (jparse body) "error" in
  check_string "error code" "unknown-network" (jstr err "code");
  check_bool "diagnostics array always present" true
    (Json_import.member "diagnostics" err <> None);
  let status, _ = request ~port ~meth:"DELETE" "/healthz" in
  check_int "bad method is 405" 405 status;
  let status, body = request ~port ~meth:"POST" ~body:"{nope" "/v1/networks" in
  check_int "invalid JSON is 400" 400 status;
  check_string "bad-json code" "bad-json" (jstr (jmem (jparse body) "error") "code");

  (* a config set that cannot parse at all: 422 with diagnostics *)
  let status, body =
    request ~port ~meth:"POST"
      ~body:(upload_body [ ("junk.cfg", "interfaces {\n") ])
      "/v1/networks"
  in
  check_int "unparseable upload is 422" 422 status;
  check_string "parse-failed code" "parse-failed"
    (jstr (jmem (jparse body) "error") "code");

  (* upload the chain fixture *)
  let configs = configs_of (Testnet.chain ()) in
  let status, body =
    request ~port ~meth:"POST" ~body:(upload_body configs) "/v1/networks"
  in
  check_int "upload created" 201 status;
  let up = jparse body in
  let id = jstr up "id" in
  check_int "three devices" 3 (jint up "devices");
  check_bool "elements counted" true (jint up "elements" > 0);
  let net path = "/v1/networks/" ^ id ^ path in

  (* register the data-plane-upper-bound suite *)
  let status, body =
    request ~port ~meth:"POST" ~body:suites_body (net "/suites")
  in
  check_int "suites registered" 200 status;
  let reg = jparse body in
  check_int "one suite" 1 (jint reg "suites");
  check_bool "coverage computed" true (jnum reg "coverage_pct" > 0.);

  (* coverage must be byte-identical to the audit path on these texts *)
  let scratch, _ = audit_scratch configs in
  let status, body = request ~port (net "/coverage?format=coverage") in
  check_int "coverage fetched" 200 status;
  check_string "coverage bytes == audit" (J.coverage scratch.Netcov.coverage)
    body;
  let status, body = request ~port (net "/coverage?format=lcov") in
  check_int "lcov fetched" 200 status;
  check_string "lcov bytes == audit" (Lcov.report scratch.Netcov.coverage) body;
  let status, _ = request ~port (net "/coverage?format=nope") in
  check_int "unknown format is 400" 400 status;

  (* update: a new static route on b, through the warm session *)
  let configs' = configs_of (map_device add_static "b" (Testnet.chain ())) in
  let status, body =
    request ~port ~meth:"POST" ~body:(update_body configs') (net "/update")
  in
  check_int "update applied" 200 status;
  let u1 = jparse body in
  check_int "first update" 1 (jint u1 "update");
  check_bool "diff saw the added element" true
    (jint (jmem u1 "diff") "added" >= 1);
  let scratch', _ = audit_scratch configs' in
  let _, body = request ~port (net "/coverage?format=coverage") in
  check_string "post-update coverage == audit"
    (J.coverage scratch'.Netcov.coverage)
    body;

  (* a second, identical update on the warm session: everything must
     be reused, with no relabeling, visible both in the response and in
     the incr.* metrics *)
  let _, m0 = request ~port "/metrics" in
  let m0 = jparse m0 in
  let status, body =
    request ~port ~meth:"POST" ~body:(update_body configs') (net "/update")
  in
  check_int "warm update applied" 200 status;
  let u2 = jparse body in
  let incr = jmem u2 "incr" in
  check_int "warm: no changed elements" 0 (jint incr "changed");
  check_int "warm: nothing relabeled" 0 (jint incr "relabeled_cones");
  check_bool "warm: cones reused" true (jint incr "reused_cones" > 0);
  check_bool "warm: full reuse ratio" true (jnum incr "reuse_ratio" = 1.0);
  let _, m1 = request ~port "/metrics" in
  let m1 = jparse m1 in
  check_int "metrics: one more incremental pass"
    (metric_total m0 "incr.updates" + 1)
    (metric_total m1 "incr.updates");
  check_bool "metrics: reused cones grew" true
    (metric_total m1 "incr.reused_cones" > metric_total m0 "incr.reused_cones");
  check_int "metrics: one more update timed"
    (histogram_count m0 "incr.update.seconds" + 1)
    (histogram_count m1 "incr.update.seconds");
  let _, body = request ~port (net "/coverage?format=coverage") in
  check_string "warm coverage still == audit"
    (J.coverage scratch'.Netcov.coverage)
    body;

  (* a dropped prefix list on c (a parse warning, the same device),
     then a description on b: the description-only update reuses the
     parse of every other file and the stable state, relabels nothing,
     and answers as the audit path does on the same texts, warning
     included *)
  let configs_w = with_bad_list configs' in
  let status, body =
    request ~port ~meth:"POST" ~body:(update_body configs_w) (net "/update")
  in
  check_int "warning update applied" 200 status;
  check_int "one parse warning" 1
    (List.length
       (Option.get (Json_import.to_list (jmem (jparse body) "diagnostics"))));
  let configs_d =
    with_bad_list
      (configs_of
         (map_device describe "b" (map_device add_static "b" (Testnet.chain ()))))
  in
  let _, m0 = request ~port "/metrics" in
  let m0 = jparse m0 in
  let status, body =
    request ~port ~meth:"POST" ~body:(update_body configs_d) (net "/update")
  in
  check_int "description update applied" 200 status;
  let incr = jmem (jparse body) "incr" in
  check_int "description: one changed element" 1 (jint incr "changed");
  check_int "description: nothing relabeled" 0 (jint incr "relabeled_cones");
  let _, m1 = request ~port "/metrics" in
  let m1 = jparse m1 in
  check_int "metrics: the stable state was reused"
    (metric_total m0 "sim.reused" + 1)
    (metric_total m1 "sim.reused");
  check_int "metrics: no simulation ran" (metric_total m0 "sim.runs")
    (metric_total m1 "sim.runs");
  let scratch_d, diags_d = audit_scratch configs_d in
  let _, body = request ~port (net "/coverage?format=coverage") in
  check_string "description: coverage bytes == audit"
    (J.coverage scratch_d.Netcov.coverage)
    body;
  let _, body = request ~port (net "/coverage?format=lcov") in
  check_string "description: lcov bytes == audit"
    (Lcov.report scratch_d.Netcov.coverage)
    body;
  let _, body = request ~port (net "/coverage?format=report") in
  check_string "description: report bytes == audit, timing aside"
    (drop_timing (J.report ~diags:diags_d ~failures:[] scratch_d))
    (drop_timing body);

  (* the same texts in reverse file order: every file hits the parse
     cache, but device order is a simulation input, so the state is
     simulated again *)
  let configs_r = List.rev configs_d in
  let _, m2 = request ~port "/metrics" in
  let m2 = jparse m2 in
  let status, _ =
    request ~port ~meth:"POST" ~body:(update_body configs_r) (net "/update")
  in
  check_int "reordered update applied" 200 status;
  let _, m3 = request ~port "/metrics" in
  let m3 = jparse m3 in
  check_int "reordered: the stable state was not reused"
    (metric_total m2 "sim.reused")
    (metric_total m3 "sim.reused");
  check_int "reordered: one simulation ran"
    (metric_total m2 "sim.runs" + 1)
    (metric_total m3 "sim.runs");
  let scratch_r, _ = audit_scratch configs_r in
  let _, body = request ~port (net "/coverage?format=coverage") in
  check_string "reordered: coverage bytes == audit"
    (J.coverage scratch_r.Netcov.coverage)
    body;

  (* listing, detail, deletion *)
  let _, body = request ~port "/v1/networks" in
  (match Json_import.to_list (jmem (jparse body) "networks") with
  | Some [ one ] -> check_string "listed id" id (jstr one "id")
  | _ -> Alcotest.fail "expected exactly one listed network");
  let status, body = request ~port (net "") in
  check_int "detail fetched" 200 status;
  check_int "detail counts updates" 5 (jint (jparse body) "updates");
  let status, _ = request ~port ~meth:"DELETE" (net "") in
  check_int "deleted" 200 status;
  let status, _ = request ~port (net "") in
  check_int "gone after delete" 404 status

(* Keep-alive over a real socket: two requests on one connection; the
   second carries [connection: close], so EOF frames the pair. *)
let test_keep_alive_connection () =
  let srv = Server.create ~port:0 ~max_networks:1 ~handlers:1 () in
  let port = Server.port srv in
  let d = Domain.spawn (fun () -> Server.serve srv) in
  Fun.protect ~finally:(fun () ->
      Server.shutdown srv;
      Domain.join d)
  @@ fun () ->
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () ->
      try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  send_all fd
    "GET /healthz HTTP/1.1\r\nhost: t\r\n\r\n\
     GET /healthz HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n";
  let raw = read_all fd in
  let count_200 =
    let n = ref 0 in
    let needle = "HTTP/1.1 200 OK" in
    for i = 0 to String.length raw - String.length needle do
      if String.sub raw i (String.length needle) = needle then incr n
    done;
    !n
  in
  check_int "two responses on one connection" 2 count_200;
  check_bool "first kept alive" true
    (let needle = "connection: keep-alive" in
     let found = ref false in
     for i = 0 to String.length raw - String.length needle do
       if String.sub raw i (String.length needle) = needle then found := true
     done;
     !found)

(* [~handlers:2] means two connections served at once: an idle
   keep-alive connection holds one handler until its idle timeout, and
   a request on a second connection must still be answered promptly,
   well inside that timeout. *)
let test_handlers_serve_concurrently () =
  let srv =
    Server.create ~port:0 ~max_networks:1 ~handlers:2 ~idle_timeout_s:5. ()
  in
  let port = Server.port srv in
  let d = Domain.spawn (fun () -> Server.serve srv) in
  Fun.protect ~finally:(fun () ->
      Server.shutdown srv;
      Domain.join d)
  @@ fun () ->
  let idle = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () ->
      try Unix.close idle with Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.connect idle (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  (* one keep-alive exchange, so a handler is known to own [idle] *)
  send_all idle "GET /healthz HTTP/1.1\r\nhost: t\r\n\r\n";
  let first = Bytes.create 4096 in
  check_bool "idle connection answered" true
    (Unix.read idle first 0 (Bytes.length first) > 0);
  let t0 = Unix.gettimeofday () in
  let status, _ = request ~port "/healthz" in
  let elapsed = Unix.gettimeofday () -. t0 in
  check_int "second connection answered" 200 status;
  check_bool
    (Printf.sprintf "second connection served in %.2fs (< 2s)" elapsed)
    true (elapsed < 2.)

let () =
  Alcotest.run "serve"
    [
      ( "parser",
        [
          Alcotest.test_case "basic request" `Quick test_parse_basic;
          Alcotest.test_case "no body" `Quick test_parse_no_body;
          Alcotest.test_case "keep-alive semantics" `Quick
            test_keep_alive_semantics;
          Alcotest.test_case "pipelined requests" `Quick test_pipelined;
          Alcotest.test_case "malformed request line" `Quick
            test_malformed_request_line;
          Alcotest.test_case "malformed headers" `Quick test_malformed_headers;
          Alcotest.test_case "size limits" `Quick test_oversized;
          Alcotest.test_case "truncated body" `Quick test_truncated_body;
          Alcotest.test_case "response writer" `Quick test_response_writer;
        ] );
      ( "loopback",
        [
          Alcotest.test_case "upload/suites/update/coverage" `Quick
            test_lifecycle;
          Alcotest.test_case "keep-alive connection" `Quick
            test_keep_alive_connection;
          Alcotest.test_case "two handlers serve two connections" `Quick
            test_handlers_serve_concurrently;
        ] );
    ]
