open Netcov_types
open Netcov_config

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let p = Prefix.of_string

(* A small two-router fixture exercising most element kinds. *)
let r1 =
  Device.make ~syntax:Device.Junos
    ~interfaces:
      [
        Device.interface ~address:(Ipv4.of_string "192.168.1.1", 30) "eth0";
        Device.interface ~address:(Ipv4.of_string "10.99.0.1", 24) ~igp_enabled:true "eth1";
        Device.interface "unused0";
      ]
    ~static_routes:
      [ { Device.st_prefix = p "172.20.0.0/16"; st_next_hop = Ipv4.of_string "192.168.1.2" } ]
    ~prefix_lists:
      [
        { Device.pl_name = "PL1"; pl_entries = [ { ple_prefix = p "10.0.0.0/8"; ple_ge = None; ple_le = Some 24 } ] };
        { Device.pl_name = "PL-UNUSED"; pl_entries = [ { ple_prefix = p "203.0.113.0/24"; ple_ge = None; ple_le = None } ] };
      ]
    ~community_lists:[ { Device.cl_name = "CL1"; cl_members = [ Community.make 1 2 ] } ]
    ~as_path_lists:
      [ { Device.al_name = "AL1"; al_patterns = [ As_regex.compile "_65000_" ] } ]
    ~policies:
      [
        {
          Policy_ast.pol_name = "IMPORT";
          terms =
            [
              {
                term_name = "t1";
                matches = [ Policy_ast.Match_prefix_list "PL1" ];
                actions = [ Policy_ast.Set_local_pref 120; Policy_ast.Accept ];
              };
              { term_name = "t2"; matches = []; actions = [ Policy_ast.Reject ] };
            ];
        };
        {
          Policy_ast.pol_name = "ORPHAN";
          terms =
            [ { term_name = "t"; matches = [ Policy_ast.Match_community_list "CL1" ]; actions = [ Policy_ast.Accept ] } ];
        };
      ]
    ~acls:
      [
        {
          Device.acl_name = "FILTER1";
          rules = [ { Device.permit = true; rule_prefix = p "0.0.0.0/0" } ];
        };
      ]
    ~bgp:
      {
        Device.local_as = 65001;
        router_id = Ipv4.of_string "10.99.0.1";
        networks = [ p "10.99.0.0/24" ];
        aggregates = [ { Device.ag_prefix = p "10.0.0.0/8"; ag_summary_only = false } ];
        redistributes = [ { Device.rd_from = Route.Static; rd_policy = None } ];
        groups =
          [
            {
              Device.pg_name = "EXT";
              pg_remote_as = Some 65002;
              pg_import = [ "IMPORT" ];
              pg_export = [];
              pg_local_pref = Some 110;
              pg_description = None;
            };
            {
              Device.pg_name = "EMPTY-GROUP";
              pg_remote_as = None;
              pg_import = [];
              pg_export = [];
              pg_local_pref = None;
              pg_description = None;
            };
          ];
        neighbors =
          [
            {
              Device.nb_ip = Ipv4.of_string "192.168.1.2";
              nb_remote_as = 65002;
              nb_group = Some "EXT";
              nb_import = [];
              nb_export = [];
              nb_local_addr = None;
              nb_next_hop_self = false;
              nb_rr_client = false;
              nb_description = None;
            };
          ];
        multipath = 1;
      }
    "r1"

let r1_ios = { r1 with Device.hostname = "r1ios"; syntax = Device.Ios }

let ext =
  Device.make ~is_external:true
    ~interfaces:[ Device.interface ~address:(Ipv4.of_string "192.168.1.2", 30) "eth0" ]
    "ext0"

let reg = Registry.build [ r1; r1_ios; ext ]

let test_device_helpers () =
  check_bool "find_interface" true (Device.find_interface r1 "eth1" <> None);
  check_bool "find_interface miss" true (Device.find_interface r1 "nope" = None);
  check_bool "find_policy" true (Device.find_policy r1 "IMPORT" <> None);
  check_bool "interface_with_address" true
    (match Device.interface_with_address r1 (Ipv4.of_string "10.99.0.1") with
    | Some i -> i.Device.if_name = "eth1"
    | None -> false);
  check_int "connected prefixes" 2 (List.length (Device.connected_prefixes r1));
  let nb = List.hd (Option.get r1.Device.bgp).Device.neighbors in
  Alcotest.(check (list string)) "import chain" [ "IMPORT" ] (Device.neighbor_import r1 nb)

let test_prefix_list_matches () =
  let pl = Option.get (Device.find_prefix_list r1 "PL1") in
  check_bool "in range" true (Device.prefix_list_matches pl (p "10.1.0.0/16"));
  check_bool "too long" false (Device.prefix_list_matches pl (p "10.1.0.0/25"));
  check_bool "self" true (Device.prefix_list_matches pl (p "10.0.0.0/8"));
  check_bool "outside" false (Device.prefix_list_matches pl (p "11.0.0.0/16"));
  let pl_exact = Option.get (Device.find_prefix_list r1 "PL-UNUSED") in
  check_bool "exact hit" true (Device.prefix_list_matches pl_exact (p "203.0.113.0/24"));
  check_bool "exact longer" false (Device.prefix_list_matches pl_exact (p "203.0.113.0/25"))

let test_acl_eval () =
  let acl = Option.get (Device.find_acl r1 "FILTER1") in
  let permit, rule = Device.acl_permits acl (Ipv4.of_string "8.8.8.8") in
  check_bool "permit" true permit;
  check_bool "rule 0" true (rule = Some 0);
  let deny_acl =
    { Device.acl_name = "D"; rules = [ { Device.permit = false; rule_prefix = p "10.0.0.0/8" } ] }
  in
  let permit, rule = Device.acl_permits deny_acl (Ipv4.of_string "10.0.0.1") in
  check_bool "deny" false permit;
  check_bool "rule idx" true (rule = Some 0);
  let permit, rule = Device.acl_permits deny_acl (Ipv4.of_string "11.0.0.1") in
  check_bool "default permit" true permit;
  check_bool "no rule" true (rule = None)

let test_element_keys_cover_all_kinds () =
  let keys = Device.element_keys r1 in
  let kinds = List.sort_uniq compare (List.map (fun (k : Element.key) -> k.etype) keys) in
  check_int "distinct kinds" 12 (List.length kinds)

let test_registry_basics () =
  check_bool "device lookup" true (Registry.device_opt reg "r1" <> None);
  check_bool "external flagged" true (Registry.is_external reg "ext0");
  (* external devices register no elements *)
  check_int "ext elements" 0 (List.length (Registry.elements_of_device reg "ext0"));
  check_bool "find element" true
    (Registry.find reg ~device:"r1" (Element.key Element.Interface "eth0") <> None);
  check_bool "find on external" true
    (Registry.find reg ~device:"ext0" (Element.key Element.Interface "eth0") = None);
  (* every element id round-trips *)
  Registry.iter_elements reg (fun e ->
      check_bool "roundtrip" true
        (Registry.find reg ~device:e.Element.device e.Element.ekey = Some e.Element.id))

let test_line_ownership_consistency () =
  (* every line listed by an element is owned by that element, for both
     syntaxes *)
  List.iter
    (fun host ->
      List.iter
        (fun id ->
          let e = Registry.element reg id in
          List.iter
            (fun ln ->
              check_bool
                (Printf.sprintf "%s line %d" host ln)
                true
                (Registry.line_owner reg host ln = Some id))
            e.Element.lines)
        (Registry.elements_of_device reg host))
    [ "r1"; "r1ios" ];
  check_bool "considered < total" true
    (Registry.considered_lines reg < Registry.total_lines reg)

let test_emitters_nonempty_ownership () =
  List.iter
    (fun (emit, name) ->
      let text, owners = emit r1 in
      check_bool (name ^ " lines") true (Array.length text > 30);
      check_int (name ^ " same length") (Array.length text) (Array.length owners);
      let owned = Array.to_list owners |> List.filter Option.is_some |> List.length in
      check_bool (name ^ " has owned lines") true (owned > 10))
    [ (Emit_junos.emit, "junos"); (Emit_ios.emit, "ios") ]

let test_deadcode () =
  let report = Deadcode.analyze reg in
  let dead_names =
    List.map
      (fun (id, reason) ->
        let e = Registry.element reg id in
        (Element.name_of e, reason))
      report.Deadcode.details
  in
  check_bool "orphan policy dead" true
    (List.exists (fun (n, r) -> n = "ORPHAN/t" && r = Deadcode.Unused_policy) dead_names);
  check_bool "unused pl dead" true
    (List.exists (fun (n, _) -> n = "PL-UNUSED") dead_names);
  check_bool "empty group dead" true
    (List.exists (fun (n, r) -> n = "EMPTY-GROUP" && r = Deadcode.Empty_peer_group) dead_names);
  check_bool "used policy alive" true
    (not (List.exists (fun (n, _) -> n = "IMPORT/t1") dead_names));
  check_bool "used pl alive" true (not (List.exists (fun (n, _) -> n = "PL1") dead_names));
  (* CL1 is referenced only by the dead ORPHAN policy, so it is dead too *)
  check_bool "cl referenced by dead policy is dead" true
    (List.exists (fun (n, _) -> n = "CL1") dead_names);
  check_bool "unattached acl dead" true
    (List.exists (fun (n, r) -> n = "FILTER1" && r = Deadcode.Unused_acl) dead_names);
  check_bool "dead lines positive" true (Deadcode.dead_lines reg report > 0)

let test_masks () =
  check_bool "netmask 24" true
    (Ipv4.equal (Masks.netmask_of_len 24) (Ipv4.of_string "255.255.255.0"));
  check_bool "wildcard 24" true
    (Ipv4.equal (Masks.wildcard_of_len 24) (Ipv4.of_string "0.0.0.255"));
  check_bool "len roundtrip" true
    (List.for_all (fun l -> Masks.len_of_netmask (Masks.netmask_of_len l) = Some l)
       (List.init 33 Fun.id));
  check_bool "bad mask" true (Masks.len_of_netmask (Ipv4.of_string "255.0.255.0") = None)

let test_duplicate_hostname () =
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Registry.build: duplicate hostname r1") (fun () ->
      ignore (Registry.build [ r1; r1 ]))

(* The (device, key) index on two workload networks: every element is
   found under its own device and key. The same name under the next
   device, or under the next element type, resolves exactly as a scan
   of the registry's elements says it should. *)
let test_key_index () =
  let check_network name devices =
    let reg = Registry.build devices in
    let hosts =
      Array.of_list (List.map (fun (d : Device.t) -> d.hostname) devices)
    in
    let next_host = Hashtbl.create 64 in
    Array.iteri
      (fun i h ->
        Hashtbl.replace next_host h hosts.((i + 1) mod Array.length hosts))
      hosts;
    let scan = Hashtbl.create 4096 in
    Registry.iter_elements reg (fun e ->
        Hashtbl.replace scan (e.Element.device, e.Element.ekey) e.Element.id);
    let etypes = Array.of_list Element.all_etypes in
    let next_etype t =
      let i = ref 0 in
      while Element.compare_etype etypes.(!i) t <> 0 do
        incr i
      done;
      etypes.((!i + 1) mod Array.length etypes)
    in
    let misses = ref 0 in
    let expect device key =
      let want = Hashtbl.find_opt scan (device, key) in
      if want = None then incr misses;
      if Registry.find reg ~device key <> want then
        Alcotest.failf "%s: find %s %s disagrees with the element scan" name device
          (Format.asprintf "%a" Element.pp_key key)
    in
    Registry.iter_elements reg (fun e ->
        let device = e.Element.device and key = e.Element.ekey in
        if Registry.find reg ~device key <> Some e.Element.id then
          Alcotest.failf "%s: element %d not found under its own key" name
            e.Element.id;
        expect (Hashtbl.find next_host device) key;
        expect device { key with Element.etype = next_etype key.Element.etype });
    check_bool (name ^ ": some probes resolve to nothing") true (!misses > 0)
  in
  check_network "internet2"
    (Netcov_workloads.Internet2.generate Netcov_workloads.Internet2.default_params)
      .Netcov_workloads.Internet2.devices;
  check_network "fat-tree k=4"
    (Netcov_workloads.Fattree.generate ~k:4 ()).Netcov_workloads.Fattree.devices

let () =
  Alcotest.run "config"
    [
      ( "device",
        [
          Alcotest.test_case "helpers" `Quick test_device_helpers;
          Alcotest.test_case "prefix list matching" `Quick test_prefix_list_matches;
          Alcotest.test_case "acl evaluation" `Quick test_acl_eval;
          Alcotest.test_case "element kinds" `Quick test_element_keys_cover_all_kinds;
        ] );
      ( "registry",
        [
          Alcotest.test_case "basics" `Quick test_registry_basics;
          Alcotest.test_case "line ownership" `Quick test_line_ownership_consistency;
          Alcotest.test_case "emitters" `Quick test_emitters_nonempty_ownership;
          Alcotest.test_case "duplicate hostname" `Quick test_duplicate_hostname;
          Alcotest.test_case "key index on workloads" `Quick test_key_index;
        ] );
      ( "analysis",
        [
          Alcotest.test_case "dead code" `Quick test_deadcode;
          Alcotest.test_case "masks" `Quick test_masks;
        ] );
    ]
