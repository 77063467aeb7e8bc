(* perfbench: the repository's benchmark. One process runs one workload
   for a fixed time and prints, as the last line of its standard output,
   one JSON object {"correct", "attempted", "failed", "metrics"}.

     perfbench.exe --workload NAME --seed N --seconds S --trace 0|1
                   [--expect DIGEST]

   Workloads (reasons and predictions in perfbench/workloads.json):
   fattree-audit, internet2-audit, serve-edits.

   With --trace 0 the run reports end-to-end metrics: every operation
   goes through the production entry points and nothing is timed
   inside them. With --trace 1 the run times each call into a layer's
   public function from this file and reports per-layer metrics; its
   analysis runs on [Pool.sequential], so allocation counters (which
   see only the calling domain) see all of it.

   A coverage report is checked by its digest: MD5 of the report JSON
   with its "timing" object removed. Any digest mismatch, non-2xx
   response or exception counts as a failed operation. *)

open Netcov_config
open Netcov_sim
open Netcov_core
open Netcov_nettest
open Netcov_workloads
module Pool = Netcov_parallel.Pool
module M = Netcov_obs.Metrics
module J = Json_export
module Ji = Json_import
module Prefix = Netcov_types.Prefix
module Diag = Netcov_diag.Diag
module Server = Netcov_serve.Server

let now = Unix.gettimeofday
let log fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s)) fmt

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)

(* Linear-interpolated quantile, [q] in [0, 1]. *)
let quantile q xs =
  let a = Array.of_list (List.sort Float.compare xs) in
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile 0.5 xs

(* The highest whole percentile with at least ten samples beyond it, if
   that is at least the median (twenty samples or more). *)
let tail xs =
  let n = List.length xs in
  if n < 20 then None
  else
    let p = Float.of_int (int_of_float (100. *. (1. -. (10. /. float_of_int n)))) in
    Some (p, quantile (p /. 100.) xs)

(* ------------------------------------------------------------------ *)
(* Samples, layer spans and operation accounting                       *)

let samples : (string, float list) Hashtbl.t = Hashtbl.create 64

let sample name v =
  Hashtbl.replace samples name
    (v :: Option.value (Hashtbl.find_opt samples name) ~default:[])

let samples_of name = Option.value (Hashtbl.find_opt samples name) ~default:[]
(* The median of a metric's samples; a metric no sample was taken for —
   a layer the workload never calls — reads 0. *)
let med name = match samples_of name with [] -> 0. | xs -> median xs

(* Per-iteration layer self times and counts, filled by [layer]/[bump]
   while [tracing] is set and flushed into [samples] by [flush_iter]. *)
let tracing = ref false
let iter_vals : (string, float) Hashtbl.t = Hashtbl.create 32

let bump name v =
  Hashtbl.replace iter_vals name
    (v +. Option.value (Hashtbl.find_opt iter_vals name) ~default:0.)

let layer name f =
  if not !tracing then f ()
  else
    let t0 = now () in
    let r = f () in
    bump (name ^ ".s") (now () -. t0);
    r

let iter_val name = Option.value (Hashtbl.find_opt iter_vals name) ~default:0.

let flush_iter () =
  Hashtbl.iter sample iter_vals;
  Hashtbl.reset iter_vals

let attempted = ref 0
let failed = ref 0

(* Runs one operation; an exception counts it as failed. *)
let op name f =
  incr attempted;
  match f () with
  | r -> Some r
  | exception e ->
      incr failed;
      log "%s failed: %s" name (Printexc.to_string e);
      None

let check_digest ~expect d =
  if expect <> "" && d <> expect then
    failwith (Printf.sprintf "digest %s, expected %s" d expect);
  d

(* ------------------------------------------------------------------ *)
(* Coverage digest                                                     *)

let find_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec matches i k = k = m || (s.[i + k] = sub.[k] && matches i (k + 1)) in
  let rec go i = if i + m > n then None else if matches i 0 then Some i else go (i + 1) in
  go 0

(* The report JSON without its flat ["timing"] object, whose wall times
   differ run to run. *)
let strip_timing json =
  match find_sub json ",\"timing\":{" with
  | None -> json
  | Some i ->
      let j = String.index_from json (i + 1) '}' in
      String.sub json 0 i ^ String.sub json (j + 1) (String.length json - j - 1)

let digest json = Digest.to_hex (Digest.string (strip_timing json))

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
    | _ -> scan ()
    | exception End_of_file -> 0
  in
  let kb = Fun.protect ~finally:(fun () -> close_in ic) scan in
  float_of_int kb /. 1024.

let shuffle rng xs =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* ------------------------------------------------------------------ *)
(* Machine-speed yardstick                                             *)

(* On a shared host the machine's speed drifts: neighbours slow every
   process on it by up to 2x, in bursts of seconds and spells of
   minutes, with almost no CPU steal time to show for it. Each timed
   operation is therefore bracketed by runs of a fixed unit of work
   that uses only the standard library and loads the machine the way
   the analysis does, through the allocator and the collector: it
   builds a list of 400,000 small boxed values and strings that stays
   live, then allocates 3,000,000 short arrays of which one in fifty
   survives. The operation's time is scaled to the speed at which that
   unit takes [reference_s]. Of the units tried (hash table, pointer
   chase, memory stream, arithmetic loop, this one) it tracked both the
   audit and the serve workloads most closely. The unit runs in a
   worker process of its own (this executable with
   --yardstick-worker), so its collections never touch the benchmarked
   heap and its time does not depend on the program's memory use. The
   unscaled medians are on the detail line. *)
let reference_s = 0.1

let yardstick () =
  let t0 = now () in
  let live = ref [] in
  for i = 0 to 400_000 do
    live := (Some i, string_of_int i) :: !live
  done;
  let kept = ref [] in
  for i = 0 to 3_000_000 do
    let x = Array.make 6 i in
    if i mod 50 = 0 then kept := x :: !kept
  done;
  ignore (Sys.opaque_identity (!live, !kept));
  now () -. t0

(* The worker: one yardstick run, from a collected heap, per byte read
   from standard input; its time is written back as one line. *)
let yardstick_worker () =
  try
    while true do
      ignore (input_char stdin);
      Gc.full_major ();
      Printf.printf "%.17g\n%!" (yardstick ())
    done
  with End_of_file -> ()

let worker =
  lazy
    (Unix.open_process_args Sys.executable_name
       [| Sys.executable_name; "--yardstick-worker" |])

let stop_worker () =
  if Lazy.is_val worker then ignore (Unix.close_process (Lazy.force worker))

let last_yard = ref nan

(* Collects the heap, so the next operation starts from the same state,
   runs the yardstick in the worker and returns the factor that scales
   a time taken since the previous call to reference speed:
   [reference_s] over the mean of the yardstick runs on either side of
   it. *)
let rescale () =
  let before = !last_yard in
  Gc.full_major ();
  let ic, oc = Lazy.force worker in
  output_char oc 'y';
  flush oc;
  let y = float_of_string (input_line ic) in
  last_yard := y;
  sample "yardstick_s" y;
  reference_s /. ((before +. y) /. 2.)

(* Set-up rounds per run; [setup_s] is their median. *)
let setup_rounds = 5

(* ------------------------------------------------------------------ *)
(* Analysis: the production entry point, or the same calls made layer  *)
(* by layer for the traced run                                         *)

(* The analysis pool, sized explicitly and recorded in the output: one
   domain. Two first analyses racing on two domains can raise
   CamlinternalLazy.Undefined from Materialize's lazily registered rule
   counters, and Gc allocation counters see only the calling domain. *)
let pool = Pool.sequential

let zero_timing =
  {
    Netcov.total_s = 0.;
    cpu_total_s = 0.;
    materialize_s = 0.;
    sim_s = 0.;
    label_s = 0.;
    sim_count = 0;
    sim_cache_hits = 0;
    sim_cache_misses = 0;
    ifg_nodes = 0;
    ifg_edges = 0;
    bdd_vars = 0;
  }

(* [Netcov.analyze] for one test, each stage timed as its layer. *)
let analyze_traced state reg (tested : Netcov.tested) =
  let g, ids, ms =
    layer "materialize" (fun () ->
        let ctx = Rules.make_ctx ~cache:(Rules.create_sim_cache ()) state in
        Materialize.run ctx ~tested:tested.Netcov.dp_facts)
  in
  let lab = layer "label" (fun () -> Label.run ~pool g ~tested:ids) in
  let coverage, dead =
    layer "aggregate" (fun () ->
        let cov =
          Coverage.of_sets reg ~strong:lab.Label.strong ~weak:lab.Label.weak
        in
        (Coverage.with_strong cov tested.Netcov.cp_elements, Deadcode.analyze reg))
  in
  bump "materialize.nodes" (float_of_int ms.Materialize.nodes);
  bump "materialize.edges" (float_of_int ms.Materialize.edges);
  bump "materialize.iterations" (float_of_int ms.Materialize.iterations);
  bump "targeted_sim.count" (float_of_int ms.Materialize.sim_count);
  bump "targeted_sim.s" ms.Materialize.sim_seconds;
  bump "sim_cache.hits" (float_of_int ms.Materialize.sim_cache_hits);
  bump "sim_cache.misses" (float_of_int ms.Materialize.sim_cache_misses);
  Hashtbl.replace iter_vals "label.bdd_vars"
    (Float.max (iter_val "label.bdd_vars") (float_of_int lab.Label.vars));
  Hashtbl.replace iter_vals "label.bdd_nodes"
    (Float.max (iter_val "label.bdd_nodes") (float_of_int lab.Label.bdd_nodes));
  { Netcov.coverage; timing = zero_timing; dead }

let analyze state reg testeds =
  if !tracing then List.map (analyze_traced state reg) testeds
  else Netcov.analyze_suite ~pool state testeds

(* Simulation, with its allocation and round count in the traced run. *)
let simulate ?diags reg =
  let a0 = Gc.allocated_bytes () in
  let state = layer "simulate" (fun () -> Stable_state.compute ?diags reg) in
  if !tracing then begin
    bump "simulate.alloc_mb" ((Gc.allocated_bytes () -. a0) /. 1048576.);
    bump "simulate.rounds" (float_of_int (Stable_state.rounds state))
  end;
  state

(* Layer sums of one traced iteration: the coverage time (analyze +
   aggregate + export), the residual and the Fig. 10(b) ratio. *)
let flush_report_iter ~total =
  let s name = iter_val (name ^ ".s") in
  let cov = s "materialize" +. s "label" +. s "aggregate" +. s "export" in
  let named =
    cov +. s "parse" +. s "registry" +. s "simulate" +. s "test_exec"
  in
  sample "trace.report_s" total;
  sample "trace.coverage_s" cov;
  sample "other.s" (total -. named);
  sample "fig10b.cov_exec_ratio" (cov /. Float.max 1e-9 (s "simulate" +. s "test_exec"));
  flush_iter ()

(* ------------------------------------------------------------------ *)
(* Audit workloads: configs text -> suite -> coverage JSON             *)

type slot = Text of string * string | Stub of Device.t

type audit = {
  slots : slot list;  (** devices in generator order *)
  parse : hostname:string -> string -> Device.t;
  tests : Nettest.t list;
}

(* Only the internal devices travel as text: the parsers never set
   [Device.is_external], so a parsed stub would join the coverage
   domain. Stubs are handed over as generated devices. *)
let slots_of emit devices =
  List.map
    (fun (d : Device.t) ->
      if d.Device.is_external then Stub d
      else Text (d.Device.hostname, emit d))
    devices

let strict ~hostname = function
  | Ok d -> d
  | Error msg -> failwith (Printf.sprintf "parse %s: %s" hostname msg)

(* The seed orders the suite's tests; the merged report does not depend
   on that order, so one digest is pinned per workload. *)
let fattree_audit rng () =
  let ft = Fattree.generate ~k:8 () in
  {
    slots = slots_of Emit_ios.to_string ft.Fattree.devices;
    parse =
      (fun ~hostname t ->
        strict ~hostname
          (Result.map_error Parse_ios.error_to_string (Parse_ios.parse ~hostname t)));
    tests = shuffle rng (Datacenter.suite ft);
  }

let internet2_audit rng () =
  let net = Internet2.generate Internet2.paper_params in
  {
    slots = slots_of Emit_junos.to_string net.Internet2.devices;
    parse =
      (fun ~hostname t ->
        strict ~hostname
          (Result.map_error Parse_junos.error_to_string
             (Parse_junos.parse ~hostname t)));
    tests = shuffle rng (Iterations.improved_suite net);
  }

(* One configs-text -> coverage-JSON report; returns the JSON, its wall
   time and the coverage time (analyze + aggregate + export). *)
let report_once a =
  let t0 = now () in
  let devices =
    layer "parse" (fun () ->
        List.map
          (function Text (hostname, text) -> a.parse ~hostname text | Stub d -> d)
          a.slots)
  in
  let reg = layer "registry" (fun () -> Registry.build devices) in
  let state = simulate reg in
  let testeds =
    layer "test_exec" (fun () ->
        List.map (fun (t : Nettest.t) -> (t.Nettest.run state).Nettest.tested) a.tests)
  in
  let t1 = now () in
  let reports = analyze state reg testeds in
  let merged =
    layer "aggregate" (fun () -> Netcov.merge_reports ~wall_s:(now () -. t1) reports)
  in
  let json = layer "export" (fun () -> J.report merged) in
  let t2 = now () in
  if !tracing then bump "export.bytes" (float_of_int (String.length json));
  (json, t2 -. t0, t2 -. t1)

(* Set-up generates and emits the inputs and runs one untimed warm-up
   report, five times; [setup_s] is the median round, scaled to
   reference speed. Every report is scaled the same way; a traced run's
   layer figures are not. *)
let run_audit ~make ~seconds ~trace ~expect =
  let checked_report a ~traced name =
    tracing := traced;
    let r =
      op name (fun () ->
          let json, total, cov = report_once a in
          (check_digest ~expect (digest json), total, cov))
    in
    tracing := false;
    r
  in
  ignore (rescale ());
  let rounds =
    List.init setup_rounds (fun _ ->
        let t0 = now () in
        let a = make () in
        let warm = checked_report a ~traced:false "warm-up" in
        let dt = now () -. t0 in
        (a, dt *. rescale (), warm))
  in
  let a, _, _ = List.nth rounds (setup_rounds - 1) in
  let setup_s = median (List.map (fun (_, s, _) -> s) rounds) in
  let deadline = now () +. seconds in
  let digests =
    ref (List.filter_map (fun (_, _, w) -> Option.map (fun (d, _, _) -> d) w) rounds)
  in
  let n = ref 0 in
  while !n < 2 || now () < deadline do
    let traced = trace && !n mod 2 = 1 in
    let r = checked_report a ~traced (if traced then "traced report" else "report") in
    let scale = rescale () in
    (match r with
    | Some (d, total, cov) ->
        digests := d :: !digests;
        if traced then flush_report_iter ~total
        else if trace then sample "untraced.report_s" total
        else begin
          sample "report_wall_s" total;
          sample "report_s" (total *. scale);
          sample "coverage_s" (cov *. scale)
        end
    | None -> Hashtbl.reset iter_vals);
    incr n
  done;
  (setup_s, !digests, peak_rss_mb ())

(* ------------------------------------------------------------------ *)
(* serve-edits: a keep-alive HTTP client against an in-process server  *)

type conn = { fd : Unix.file_descr; buf : Buffer.t; chunk : Bytes.t }

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  { fd; buf = Buffer.create 65536; chunk = Bytes.create 65536 }

let fill c =
  let n = Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) in
  if n = 0 then failwith "server closed the connection";
  Buffer.add_subbytes c.buf c.chunk 0 n

(* Reads one Content-Length-framed response: (status, body). *)
let read_response c =
  let rec head () =
    match find_sub (Buffer.contents c.buf) "\r\n\r\n" with
    | Some i -> i
    | None ->
        fill c;
        head ()
  in
  let hend = head () in
  let all = Buffer.contents c.buf in
  let lines = String.split_on_char '\n' (String.sub all 0 hend) in
  let status = Scanf.sscanf (List.hd lines) "HTTP/1.%_d %d" Fun.id in
  let len =
    List.fold_left
      (fun acc l ->
        match String.index_opt l ':' with
        | Some i
          when String.lowercase_ascii (String.sub l 0 i) = "content-length" ->
            int_of_string (String.trim (String.sub l (i + 1) (String.length l - i - 1)))
        | _ -> acc)
      0 (List.tl lines)
  in
  let total = hend + 4 + len in
  while Buffer.length c.buf < total do
    fill c
  done;
  let all = Buffer.contents c.buf in
  let body = String.sub all (hend + 4) len in
  let rest = String.sub all total (String.length all - total) in
  Buffer.clear c.buf;
  Buffer.add_string c.buf rest;
  (status, body)

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let rec go off =
    if off < Bytes.length b then go (off + Unix.write fd b off (Bytes.length b - off))
  in
  go 0

(* One request; returns (status, body, round-trip seconds). *)
let request c meth path body =
  let req =
    Printf.sprintf
      "%s %s HTTP/1.1\r\nHost: localhost\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s"
      meth path (String.length body) body
  in
  let t0 = now () in
  write_all c.fd req;
  let status, resp = read_response c in
  (status, resp, now () -. t0)

let expect_2xx what (status, body, rt) =
  if status < 200 || status > 299 then
    failwith
      (Printf.sprintf "%s: HTTP %d %s" what status
         (String.sub body 0 (min 200 (String.length body))));
  (body, rt)

let json_member path j =
  List.fold_left (fun j k -> Option.bind j (Ji.member k)) (Some j) path

let num path j = Option.value (Option.bind (json_member path j) Ji.to_num) ~default:nan

let configs_json files =
  J.J_list
    (Array.to_list
       (Array.map
          (fun (file, text) -> J.J_obj [ ("file", J.J_str file); ("text", J.J_str text) ])
          files))

(* Api.handle seconds recorded by the server for the edit routes. *)
let api_seconds () =
  List.fold_left
    (fun acc route ->
      match M.value M.default ~labels:[ ("route", route) ] "http.request_seconds" with
      | Some (M.Histogram h) -> acc +. h.M.sum
      | _ -> acc)
    0.
    [ "/v1/networks/:id/update"; "/v1/networks/:id/coverage" ]

type serve_inputs = {
  originals : (string * string) array;  (** (file, text), every device *)
  specs : (string * Prefix.t) list;  (** rib tests, registration order *)
  spines : string list;
  routers : string list;
}

let serve_inputs () =
  let ft = Fattree.generate ~k:6 () in
  let routers = ft.Fattree.leaves @ ft.Fattree.aggs @ ft.Fattree.spines in
  let default_route = Prefix.of_string "0.0.0.0/0" in
  {
    originals =
      Array.of_list
        (List.map
           (fun (d : Device.t) -> (d.Device.hostname ^ ".cfg", Emit_ios.to_string d))
           ft.Fattree.devices);
    specs =
      List.map (fun r -> (r, default_route)) routers
      @ List.concat_map
          (fun leaf -> List.map (fun (_, p) -> (leaf, p)) ft.Fattree.leaf_subnets)
          ft.Fattree.leaves;
    spines = ft.Fattree.spines;
    routers;
  }

let suites_json specs =
  J.to_string
    (J.J_obj
       [
         ( "suites",
           J.J_list
             [
               J.J_obj
                 [
                   ("name", J.J_str "datacenter-ribs");
                   ( "tests",
                     J.J_list
                       (List.map
                          (fun (host, p) ->
                            J.J_obj
                              [
                                ("kind", J.J_str "rib");
                                ("host", J.J_str host);
                                ("prefix", J.J_str (Prefix.to_string p));
                              ])
                          specs) );
                 ];
             ] );
       ])

(* Upload + suite registration; returns the network id and seconds. *)
let build_session c inp =
  let upload =
    J.to_string
      (J.J_obj
         [
           ("name", J.J_str "fattree-k6");
           ("syntax", J.J_str "ios");
           ("configs", configs_json inp.originals);
         ])
  in
  let suites = suites_json inp.specs in
  let body, rt1 = expect_2xx "upload" (request c "POST" "/v1/networks" upload) in
  let id =
    match Result.map (json_member [ "id" ]) (Ji.parse body) with
    | Ok (Some (Ji.Str id)) -> id
    | _ -> failwith "upload: no network id"
  in
  let _, rt2 =
    expect_2xx "suites" (request c "POST" ("/v1/networks/" ^ id ^ "/suites") suites)
  in
  (id, rt1 +. rt2)

(* One-line edits. Classes: an interface description on any router
   (re-materializes the tests); the value of the spine WAN import
   policy's prefix match (the stubs announce only the default route, so
   any [upto] length keeps the behaviour: Incr's policy fast path); and
   a revert of the file the previous edit touched to its original
   text. *)
type edit_class = Desc | Policy | Revert

let class_name = function Desc -> "desc" | Policy -> "policy" | Revert -> "revert"

(* The class schedule repeats, so each class's share is fixed. Every
   revert follows a description edit, so 6 of 8 updates re-materialize
   and the median sits well inside that class, away from the fast
   policy class. The seed picks the device, line and value of every
   edit. *)
let schedule = [| Desc; Revert; Desc; Policy; Desc; Revert; Desc; Policy |]

let lines_of text = Array.of_list (String.split_on_char '\n' text)
let text_of lines = String.concat "\n" (Array.to_list lines)

let file_index inp host =
  let rec go i = if fst inp.originals.(i) = host ^ ".cfg" then i else go (i + 1) in
  go 0

(* Applies one edit to [current]; returns the index of the file it
   changed. [last] is the file the previous edit changed. *)
let apply_edit rng inp current ~last cls stamp =
  let pick xs = List.nth xs (Random.State.int rng (List.length xs)) in
  let edit_line host matches replacement =
    let i = file_index inp host in
    let lines = lines_of (snd current.(i)) in
    let k = pick (List.filter (matches lines) (List.init (Array.length lines) Fun.id)) in
    lines.(k) <- replacement;
    current.(i) <- (fst current.(i), text_of lines);
    i
  in
  match cls with
  | Desc ->
      edit_line (pick inp.routers)
        (fun lines k -> String.starts_with ~prefix:" description " lines.(k))
        (Printf.sprintf " description edited %d" stamp)
  | Policy ->
      let host = pick inp.spines in
      edit_line host
        (fun lines k -> k > 0 && lines.(k - 1) = "route-map IMPORT-WAN permit 10")
        (Printf.sprintf " match ip address prefix 0.0.0.0/0 upto %d"
           (1 + Random.State.int rng 32))
  | Revert ->
      current.(last) <- inp.originals.(last);
      last

(* The scratch reference for a warm session: parse the files as the
   server does, compile the rib tests, analyze from scratch, merge and
   export. Each call is a layer span in the traced run. *)
let scratch_report inp files =
  let coll = Diag.collector () in
  let devices =
    layer "parse" (fun () ->
        Array.to_list
          (Array.map
             (fun (file, text) ->
               match
                 Parse_ios.parse_lenient ~file
                   ~hostname:(Filename.remove_extension file) text
               with
               | Ok (d, warns) ->
                   List.iter (Diag.add coll) warns;
                   d
               | Error d -> failwith (Diag.to_string d))
             files))
  in
  let reg =
    layer "registry" (fun () ->
        let reg, diags = Registry.build_lenient devices in
        List.iter (Diag.add coll) diags;
        reg)
  in
  let state = simulate ~diags:(Diag.add coll) reg in
  let testeds =
    layer "test_exec" (fun () ->
        List.map
          (fun (host, prefix) ->
            {
              Netcov.dp_facts =
                List.map
                  (fun entry -> Fact.F_main_rib { host; entry })
                  (try Stable_state.main_lookup state host prefix with _ -> []);
              cp_elements = [];
            })
          inp.specs)
  in
  let reports = analyze state reg testeds in
  let merged = layer "aggregate" (fun () -> Netcov.merge_reports reports) in
  let json =
    layer "export" (fun () -> J.report ~diags:(Diag.items coll) ~failures:[] merged)
  in
  if !tracing then bump "export.bytes" (float_of_int (String.length json));
  json

(* Set-up starts the server, then five times generates and emits the
   inputs and warms up with one session and one description edit;
   [setup_s] is the server start plus the median round, scaled to
   reference speed as every edit step is. *)
let run_serve ~rng ~seconds ~trace ~expect =
  let t_server = now () in
  let srv = Server.create ~port:0 ~handlers:1 ~max_networks:8 () in
  let dom = Domain.spawn (fun () -> Server.serve srv) in
  let c = connect (Server.port srv) in
  let server_s = now () -. t_server in
  let stop () =
    (try Unix.close c.fd with _ -> ());
    Server.shutdown srv;
    Domain.join dom
  in
  Fun.protect ~finally:stop @@ fun () ->
  let stamp = ref 0 and last = ref 0 in
  let update_body current =
    J.to_string (J.J_obj [ ("configs", configs_json current) ])
  in
  (* One edit step: POST /update with every file, then GET /coverage. *)
  let edit_step inp current id cls =
    incr stamp;
    last := apply_edit rng inp current ~last:!last cls !stamp;
    let body = update_body current in
    let a0 = api_seconds () in
    let resp, rt_u =
      expect_2xx "update" (request c "POST" ("/v1/networks/" ^ id ^ "/update") body)
    in
    let cov, rt_r =
      expect_2xx "coverage" (request c "GET" ("/v1/networks/" ^ id ^ "/coverage") "")
    in
    let stats = match Ji.parse resp with Ok j -> j | Error e -> failwith e in
    (cov, rt_u, rt_r, api_seconds () -. a0, stats)
  in
  let delete id =
    ignore (expect_2xx "delete" (request c "DELETE" ("/v1/networks/" ^ id) ""))
  in
  (* Each round builds a session (upload + suite registration: the
     serve.session_build.s samples) and applies one description edit.
     The last round's session stays for the timed edit loop. *)
  ignore (rescale ());
  let rounds =
    List.init setup_rounds (fun i ->
        let t0 = now () in
        let inp = serve_inputs () in
        let session =
          op "warm-up" (fun () ->
              let id, build_s = build_session c inp in
              sample "serve.session_build.s" build_s;
              let current = Array.copy inp.originals in
              ignore (edit_step inp current id Desc);
              if i < setup_rounds - 1 then delete id;
              (id, current))
        in
        let dt = now () -. t0 in
        (inp, dt *. rescale (), session))
  in
  let setup_s = server_s +. median (List.map (fun (_, s, _) -> s) rounds) in
  let inp, _, session = List.nth rounds (setup_rounds - 1) in
  let id, current =
    match session with
    | Some (id, current) -> (ref id, current)
    | None -> (ref "", Array.copy inp.originals)
  in
  let warm = List.for_all (fun (_, _, s) -> s <> None) rounds in
  (* Untimed: a fresh session on the original files. Incr evicts the
     cones an edit dirties and does not relabel them, so a session's
     reusable cones shrink edit by edit; each schedule cycle after the
     first starts on a fresh session, so an edit's cost does not drift
     with the run's history. *)
  let reset () =
    delete !id;
    let fresh, build_s = build_session c inp in
    sample "serve.session_build.s" build_s;
    id := fresh;
    Array.blit inp.originals 0 current 0 (Array.length current);
    Gc.full_major ()
  in
  let deadline = now () +. seconds in
  let last_cov = ref "" in
  let step = ref 0 in
  if warm then
    while !step < 2 || now () < deadline do
      let cls = schedule.(!step mod Array.length schedule) in
      if !step > 0 && !step mod Array.length schedule = 0 then
        ignore (op "session reset" reset);
      let t0 = now () in
      let r = op ("edit " ^ class_name cls) (fun () -> edit_step inp current !id cls) in
      let step_s = now () -. t0 in
      let scale = rescale () in
      (match r with
      | Some (cov, rt_u, rt_r, api, stats) ->
          last_cov := cov;
          let incr_s = num [ "incr"; "seconds" ] stats in
          sample "report_wall_s" (rt_u +. rt_r);
          sample "report_s" ((rt_u +. rt_r) *. scale);
          sample "coverage_s" ((incr_s +. rt_r) *. scale);
          sample "serve.update.s" rt_u;
          sample "serve.read.s" rt_r;
          sample "serve.api.s" api;
          sample "serve.http.s" (rt_u +. rt_r -. api);
          sample "other.s" (step_s -. rt_u -. rt_r);
          sample ("incr.update." ^ class_name cls ^ ".s") incr_s;
          List.iter
            (fun (k, name) -> sample name (num [ "incr"; k ] stats))
            [
              ("reused_cones", "incr.reused");
              ("relabeled_cones", "incr.relabeled");
              ("dirty_cones", "incr.dirty_cones");
            ]
      | None -> ());
      incr step
    done;
  let rss = peak_rss_mb () in
  (* Untimed checks: the warm coverage equals a scratch analysis of the
     same files; reverting every edit restores the pinned digest. *)
  ignore
    (op "scratch comparison" (fun () ->
         if strip_timing (scratch_report inp current) <> strip_timing !last_cov then
           failwith "warm coverage differs from a scratch analysis"));
  let final =
    op "revert all" (fun () ->
        Array.blit inp.originals 0 current 0 (Array.length current);
        ignore
          (expect_2xx "update"
             (request c "POST" ("/v1/networks/" ^ !id ^ "/update") (update_body current)));
        let cov, _ =
          expect_2xx "coverage" (request c "GET" ("/v1/networks/" ^ !id ^ "/coverage") "")
        in
        check_digest ~expect (digest cov))
  in
  if trace then begin
    (* The same scratch pipeline untraced and traced, on one domain: the
       layer figures of the serve-edits network, and the tracing
       overhead. *)
    for _ = 1 to 2 do
      ignore
        (op "scratch report" (fun () ->
             let t0 = now () in
             ignore (scratch_report inp inp.originals);
             sample "untraced.report_s" (now () -. t0)));
      tracing := true;
      ignore
        (op "traced scratch report" (fun () ->
             let t0 = now () in
             ignore (scratch_report inp inp.originals);
             flush_report_iter ~total:(now () -. t0)));
      tracing := false;
      Hashtbl.reset iter_vals
    done
  end;
  (setup_s, Option.to_list final, rss)

(* ------------------------------------------------------------------ *)
(* Output                                                              *)

let per_layer =
  [
    ("parse.s", "s"); ("registry.s", "s"); ("simulate.s", "s");
    ("simulate.alloc_mb", "MB"); ("simulate.rounds", "count");
    ("test_exec.s", "s"); ("materialize.s", "s"); ("materialize.nodes", "count");
    ("materialize.edges", "count"); ("materialize.iterations", "count");
    ("targeted_sim.count", "count"); ("targeted_sim.s", "s");
    ("sim_cache.hit_ratio", "ratio"); ("label.s", "s"); ("label.bdd_vars", "count");
    ("label.bdd_nodes", "count"); ("aggregate.s", "s"); ("export.s", "s");
    ("export.bytes", "bytes"); ("other.s", "s"); ("fig10b.cov_exec_ratio", "ratio");
    ("trace.overhead_s", "s"); ("incr.update.desc.s", "s");
    ("incr.update.policy.s", "s"); ("incr.update.revert.s", "s");
    ("incr.reused", "count"); ("incr.relabeled", "count");
    ("incr.dirty_cones", "count"); ("incr.reuse_ratio", "ratio");
    ("serve.api.s", "s"); ("serve.http.s", "s"); ("serve.session_build.s", "s");
    ("serve.update.s", "s"); ("serve.read.s", "s");
  ]

let layer_value name =
  match name with
  | "sim_cache.hit_ratio" ->
      let h = med "sim_cache.hits" and m = med "sim_cache.misses" in
      if h +. m = 0. then 0. else h /. (h +. m)
  | "incr.reuse_ratio" ->
      let r = List.fold_left ( +. ) 0. (samples_of "incr.reused")
      and l = List.fold_left ( +. ) 0. (samples_of "incr.relabeled") in
      if r +. l = 0. then 0. else r /. (r +. l)
  | "trace.overhead_s" -> (
      match (samples_of "trace.report_s", samples_of "untraced.report_s") with
      | [], _ | _, [] -> 0.
      | t, u -> median t -. median u)
  | _ -> med name

let metric_json (name, unit_) v =
  let v = if Float.is_finite v then v else 0. in
  (name, J.J_raw (Printf.sprintf "{\"value\":%.17g,\"unit\":\"%s\"}" v unit_))

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10. in
  let trace = ref 0 and expect = ref "" and yardstick_only = ref false in
  Arg.parse
    [
      ("--yardstick-worker", Arg.Set yardstick_only, " run as the yardstick worker");
      ("--workload", Arg.Set_string workload, "NAME");
      ("--seed", Arg.Set_int seed, "N");
      ("--seconds", Arg.Set_float seconds, "S");
      ("--trace", Arg.Set_int trace, "0|1");
      ("--expect", Arg.Set_string expect, "DIGEST pinned coverage digest");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !yardstick_only then exit (yardstick_worker (); 0);
  (* Started before any socket is open: a worker holding a copy of the
     client's connection would keep the server's read of it open at
     shutdown. *)
  ignore (Lazy.force worker);
  at_exit stop_worker;
  let trace = !trace = 1 in
  let rng = Random.State.make [| !seed |] in
  let setup_s, digests, rss =
    match !workload with
    | "fattree-audit" ->
        run_audit ~make:(fattree_audit rng) ~seconds:!seconds ~trace ~expect:!expect
    | "internet2-audit" ->
        run_audit ~make:(internet2_audit rng) ~seconds:!seconds ~trace ~expect:!expect
    | "serve-edits" -> run_serve ~rng ~seconds:!seconds ~trace ~expect:!expect
    | w ->
        log "unknown workload %S" w;
        exit 2
  in
  let report_tail =
    match tail (samples_of "report_s") with
    | None -> J.J_raw "null"
    | Some (p, v) -> J.J_obj [ ("percentile", J.J_float p); ("s", J.J_float v) ]
  in
  let digest = match digests with d :: _ -> d | [] -> "" in
  let correct =
    !failed = 0 && digests <> [] && List.for_all (String.equal digest) digests
  in
  print_endline
    (J.to_string
       (J.J_obj
          [
            ("workload", J.J_str !workload);
            ("seed", J.J_int !seed);
            ("pool_domains", J.J_int (Pool.domains pool));
            ("nproc", J.J_int (Domain.recommended_domain_count ()));
            ("report_samples", J.J_int (List.length (samples_of "report_s")));
            ("report_tail", report_tail);
            ("failed_share", J.J_float (float_of_int !failed /. float_of_int (max 1 !attempted)));
            ("digest", J.J_str digest);
            ("report_wall_s", J.J_float (med "report_wall_s"));
            ("yardstick_s", J.J_float (med "yardstick_s"));
            ("reference_s", J.J_float reference_s);
          ]));
  let metrics =
    if trace then List.map (fun m -> metric_json m (layer_value (fst m))) per_layer
    else
      [
        metric_json ("setup_s", "s") setup_s;
        metric_json ("report_s", "s") (med "report_s");
        metric_json ("coverage_s", "s") (med "coverage_s");
        metric_json ("peak_rss_mb", "MB") rss;
      ]
  in
  print_endline
    (J.to_string
       (J.J_obj
          [
            ("correct", J.J_raw (string_of_bool correct));
            ("attempted", J.J_int !attempted);
            ("failed", J.J_int !failed);
            ("metrics", J.J_obj metrics);
          ]))
