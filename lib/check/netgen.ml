open Netcov_types
open Netcov_config
let ( let* ) = Gen.( let* )

(* ------------------------------------------------------------------ *)
(* Single round-trippable devices (the emit→parse oracle input space)  *)
(* ------------------------------------------------------------------ *)

let name_gen prefix =
  Gen.map (fun n -> Printf.sprintf "%s%d" prefix n) (Gen.int_bound 999)

let distinct_names prefix n = List.init n (fun i -> Printf.sprintf "%s%d" prefix i)

let ip_gen =
  Gen.map
    (fun n -> Ipv4.of_int (0x0A000000 lor (n land 0xFFFFFF)))
    (Gen.int_bound 0xFFFFFF)

let prefix_gen =
  Gen.map2
    (fun a len -> Prefix.make (Ipv4.of_int a) len)
    (Gen.int_bound 0xFFFFFFF) (Gen.int_range 8 32)

let community_gen =
  Gen.map2 Community.make (Gen.int_bound 65535) (Gen.int_bound 65535)

let regex_gen =
  Gen.oneof
    [
      Gen.map (fun n -> As_regex.compile (Printf.sprintf "_%d_" n)) (Gen.int_bound 65535);
      Gen.map (fun n -> As_regex.compile (Printf.sprintf "^%d" n)) (Gen.int_bound 65535);
      Gen.map2
        (fun a b -> As_regex.compile (Printf.sprintf "(%d|%d)$" a b))
        (Gen.int_bound 65535) (Gen.int_bound 65535);
    ]

let interface_gen idx =
  let* has_addr = Gen.bool in
  let* addr = ip_gen in
  let* len = Gen.int_range 8 32 in
  let* described = Gen.bool in
  let* igp = Gen.bool in
  let* metric = Gen.int_range 1 100 in
  Gen.return
    {
      Device.if_name = Printf.sprintf "eth%d" idx;
      address = (if has_addr then Some (addr, len) else None);
      description = (if described then Some (Printf.sprintf "link-%d" idx) else None);
      in_acl = None;
      out_acl = None;
      igp_enabled = igp && has_addr;
      igp_metric = (if igp && has_addr then metric else 10);
    }

let prefix_list_entry_gen =
  let* p = prefix_gen in
  let* ge = Gen.opt (Gen.int_range (Prefix.len p) 32) in
  let* le = Gen.opt (Gen.int_range (Prefix.len p) 32) in
  Gen.return { Device.ple_prefix = p; ple_ge = ge; ple_le = le }

let match_gen =
  Gen.oneof
    [
      Gen.map (fun n -> Policy_ast.Match_prefix_list ("PL" ^ string_of_int n)) (Gen.int_bound 4);
      Gen.map2
        (fun p mode -> Policy_ast.Match_prefix (p, mode))
        prefix_gen
        (Gen.oneof
           [
             Gen.return Policy_ast.Exact;
             Gen.return Policy_ast.Orlonger;
             Gen.map (fun n -> Policy_ast.Upto n) (Gen.int_range 0 32);
           ]);
      Gen.map (fun n -> Policy_ast.Match_community_list ("CL" ^ string_of_int n)) (Gen.int_bound 3);
      Gen.map (fun c -> Policy_ast.Match_community c) community_gen;
      Gen.map (fun n -> Policy_ast.Match_as_path_list ("AL" ^ string_of_int n)) (Gen.int_bound 3);
      Gen.oneofl
        [
          Policy_ast.Match_protocol Route.Connected;
          Policy_ast.Match_protocol Route.Static;
          Policy_ast.Match_protocol Route.Bgp;
        ];
      Gen.map (fun ip -> Policy_ast.Match_next_hop ip) ip_gen;
    ]

let modifier_gen =
  Gen.oneof
    [
      Gen.map (fun n -> Policy_ast.Set_local_pref n) (Gen.int_bound 400);
      Gen.map (fun n -> Policy_ast.Set_med n) (Gen.int_bound 1000);
      Gen.map (fun c -> Policy_ast.Add_community c) community_gen;
      Gen.map (fun c -> Policy_ast.Remove_community c) community_gen;
      Gen.map (fun n -> Policy_ast.Delete_community_in ("CL" ^ string_of_int n)) (Gen.int_bound 3);
      Gen.map2
        (fun asn times -> Policy_ast.Prepend_as (asn, times))
        (Gen.int_range 1 65535) (Gen.int_range 1 4);
    ]

(* IOS-normal-form term — modifiers then exactly one terminator — so
   the same AST round-trips through both concrete syntaxes. *)
let term_gen idx =
  let* matches = Gen.list_size (Gen.int_bound 3) match_gen in
  let* mods = Gen.list_size (Gen.int_bound 3) modifier_gen in
  let* terminator =
    Gen.oneofl [ Policy_ast.Accept; Policy_ast.Reject; Policy_ast.Next_term ]
  in
  Gen.return
    {
      Policy_ast.term_name = string_of_int ((idx + 1) * 10);
      matches;
      actions = mods @ [ terminator ];
    }

let policy_gen name =
  let* n_terms = Gen.int_range 1 4 in
  let* terms = Gen.flatten_l (List.init n_terms term_gen) in
  Gen.return { Policy_ast.pol_name = name; terms }

let neighbor_gen ~groups idx =
  let* group = if groups = [] then Gen.return None else Gen.opt (Gen.oneofl groups) in
  let* remote_as = Gen.int_range 1 65535 in
  let* import = Gen.list_size (Gen.int_bound 2) (name_gen "POLIN") in
  let* export = Gen.list_size (Gen.int_bound 2) (name_gen "POLOUT") in
  let* local = Gen.opt ip_gen in
  let* nhs = Gen.bool in
  let* described = Gen.bool in
  Gen.return
    {
      (* distinct, deterministic neighbor addresses *)
      Device.nb_ip = Ipv4.of_octets 172 20 (idx / 250) (idx mod 250);
      nb_remote_as = remote_as;
      nb_group = group;
      nb_import = import;
      nb_export = export;
      nb_local_addr = local;
      nb_next_hop_self = nhs;
      nb_rr_client = false;
      nb_description = (if described then Some (Printf.sprintf "peer-%d" idx) else None);
    }

let group_gen name =
  let* remote_as = Gen.opt (Gen.int_range 1 65535) in
  let* import = Gen.list_size (Gen.int_bound 2) (name_gen "GIN") in
  let* export = Gen.list_size (Gen.int_bound 2) (name_gen "GOUT") in
  let* lp = Gen.opt (Gen.int_bound 400) in
  Gen.return
    {
      Device.pg_name = name;
      pg_remote_as = remote_as;
      pg_import = import;
      pg_export = export;
      pg_local_pref = lp;
      pg_description = None;
    }

let bgp_gen =
  let* local_as = Gen.int_range 1 65535 in
  let* router_id = ip_gen in
  let* nets = Gen.list_size (Gen.int_bound 3) prefix_gen in
  let networks = List.sort_uniq Prefix.compare nets in
  let* aggs = Gen.list_size (Gen.int_bound 2) prefix_gen in
  let* summary = Gen.bool in
  let aggregates =
    List.sort_uniq Prefix.compare aggs
    |> List.map (fun p -> { Device.ag_prefix = p; ag_summary_only = summary })
  in
  let* redistribute_static = Gen.bool in
  let* rd_policy = Gen.opt (name_gen "RD") in
  let redistributes =
    if redistribute_static then [ { Device.rd_from = Route.Static; rd_policy } ]
    else []
  in
  let* n_groups = Gen.int_bound 2 in
  let group_names = distinct_names "PG" n_groups in
  let* groups = Gen.flatten_l (List.map group_gen group_names) in
  let* n_neighbors = Gen.int_bound 4 in
  let* neighbors =
    Gen.flatten_l (List.init n_neighbors (neighbor_gen ~groups:group_names))
  in
  let* multipath = Gen.int_range 1 8 in
  Gen.return
    {
      Device.local_as;
      router_id;
      networks;
      aggregates;
      redistributes;
      groups;
      neighbors;
      multipath;
    }

let device =
  let* host = name_gen "dev" in
  let* n_ifaces = Gen.int_bound 5 in
  let* interfaces = Gen.flatten_l (List.init n_ifaces interface_gen) in
  let* static_prefixes = Gen.list_size (Gen.int_bound 3) prefix_gen in
  let* static_nh = ip_gen in
  let static_routes =
    List.sort_uniq Prefix.compare static_prefixes
    |> List.map (fun p -> { Device.st_prefix = p; st_next_hop = static_nh })
  in
  let* n_acls = Gen.int_bound 2 in
  let* acls =
    Gen.flatten_l
      (List.init n_acls (fun i ->
           let* rules =
             Gen.list_size (Gen.int_range 1 3)
               (let* permit = Gen.bool in
                let* p = prefix_gen in
                Gen.return { Device.permit; rule_prefix = p })
           in
           Gen.return { Device.acl_name = Printf.sprintf "ACL%d" i; rules }))
  in
  let* n_pls = Gen.int_bound 3 in
  let* prefix_lists =
    Gen.flatten_l
      (List.init n_pls (fun i ->
           let* entries = Gen.list_size (Gen.int_range 1 4) prefix_list_entry_gen in
           Gen.return { Device.pl_name = Printf.sprintf "PL%d" i; pl_entries = entries }))
  in
  let* n_cls = Gen.int_bound 2 in
  let* community_lists =
    Gen.flatten_l
      (List.init n_cls (fun i ->
           let* members = Gen.list_size (Gen.int_range 1 3) community_gen in
           Gen.return
             {
               Device.cl_name = Printf.sprintf "CL%d" i;
               cl_members = List.sort_uniq Community.compare members;
             }))
  in
  let* n_als = Gen.int_bound 2 in
  let* as_path_lists =
    Gen.flatten_l
      (List.init n_als (fun i ->
           let* patterns = Gen.list_size (Gen.int_range 1 3) regex_gen in
           Gen.return { Device.al_name = Printf.sprintf "AL%d" i; al_patterns = patterns }))
  in
  let* n_policies = Gen.int_bound 3 in
  let* policies = Gen.flatten_l (List.map policy_gen (distinct_names "RM" n_policies)) in
  let* bgp = Gen.opt bgp_gen in
  let* syntax = Gen.oneofl [ Device.Junos; Device.Ios ] in
  Gen.return
    (Device.make ~syntax ~interfaces ~static_routes ~acls ~prefix_lists
       ~community_lists ~as_path_lists ~policies ?bgp host)

(* ------------------------------------------------------------------ *)
(* Tree eBGP networks + symbolic test suites                           *)
(* ------------------------------------------------------------------ *)

type network = {
  n_routers : int;
  parent : int array;
  multipath : int;
  policied : int list;
}

(* Index spills into the second octet past 255 so mega-networks
   (Netgen.balanced with ~1000 routers) keep distinct addresses; for
   [i < 256] the values are what they always were. *)
let lan i = Prefix.make (Ipv4.of_octets 10 (64 + (i / 256)) (i mod 256) 0) 24
let host i = Printf.sprintf "r%d" i

type test_spec = { probes : (int * int) list; cp_picks : int list }
type scenario = { net : network; tests : test_spec list }

let network =
  let* n_routers = Gen.int_range 2 7 in
  let* parents =
    Gen.flatten_l (List.init (n_routers - 1) (fun i -> Gen.int_bound i))
  in
  let parent = Array.of_list (0 :: parents) in
  let* multipath = Gen.oneofl [ 1; 2 ] in
  let* policied = Gen.sublist (List.init (n_routers - 1) (fun i -> i + 1)) in
  Gen.return { n_routers; parent; multipath; policied }

let test_spec n_routers =
  let idx = Gen.int_bound (n_routers - 1) in
  let* probes = Gen.list_size (Gen.int_bound 3) (Gen.pair idx idx) in
  let* cp_picks = Gen.list_size (Gen.int_bound 3) (Gen.int_bound 9999) in
  Gen.return { probes; cp_picks }

let scenario =
  let* net = network in
  let* tests = Gen.list_size (Gen.int_range 1 4) (test_spec net.n_routers) in
  Gen.return { net; tests }

(* The uplink import policy of a policied router: one prefix-list term
   (accept with a local-pref bump), one direct-prefix reject term, and
   a catch-all accept — enough structure to give the IFG policy-clause,
   prefix-list and disjunction nodes to label. *)
let uplink_policy i n_routers =
  let target = lan ((i * 3 + 1) mod n_routers) in
  let rejected = lan ((i * 5 + 2) mod n_routers) in
  {
    Policy_ast.pol_name = Printf.sprintf "IMP%d" i;
    terms =
      [
        {
          term_name = "10";
          matches = [ Policy_ast.Match_prefix_list "LANS" ];
          actions = [ Policy_ast.Set_local_pref (110 + i); Policy_ast.Accept ];
        };
        {
          term_name = "20";
          matches = [ Policy_ast.Match_prefix (target, Policy_ast.Orlonger) ];
          actions = [ Policy_ast.Set_med (10 * i); Policy_ast.Accept ];
        };
        {
          term_name = "30";
          matches = [ Policy_ast.Match_prefix (rejected, Policy_ast.Exact) ];
          actions = [ Policy_ast.Reject ];
        };
        { term_name = "99"; matches = []; actions = [ Policy_ast.Accept ] };
      ];
  }

(* A deterministic complete [fanout]-ary tree: the mega-workload shape
   behind the netgen-1000 bench rows. No randomness — every [i >= 1]
   hangs off [(i - 1) / fanout], and every [policy_every]-th router
   carries the uplink policy chain. *)
let balanced ?(multipath = 1) ?(policy_every = 7) ~fanout n =
  if n < 1 then invalid_arg "Netgen.balanced: need at least one router";
  if fanout < 1 then invalid_arg "Netgen.balanced: fanout must be >= 1";
  if policy_every < 1 then invalid_arg "Netgen.balanced: policy_every must be >= 1";
  {
    n_routers = n;
    parent = Array.init n (fun i -> if i = 0 then 0 else (i - 1) / fanout);
    multipath;
    policied =
      List.filter
        (fun i -> i > 0 && i mod policy_every = 1)
        (List.init n Fun.id);
  }

(* Deterministic probe striding by coprime steps: spreads sources and
   destinations over the whole tree without randomness, so bench runs
   are reproducible and coverage is comparable across schedulers. *)
let balanced_specs ?(n_tests = 32) ?(probes_per_test = 8) (net : network) =
  let n = net.n_routers in
  List.init n_tests (fun t ->
      {
        probes =
          List.init probes_per_test (fun p ->
              ((t * 37 + p * 11) mod n, (t * 53 + p * 29 + 1) mod n));
        cp_picks = List.init 4 (fun p -> t * 97 + p * 13);
      })

let devices_of (s : network) =
  (* link i<->parent(i) gets subnet 192.168.i.0/30, spilling into the
     second octet past 255 (mega-networks) *)
  let link_subnet i = Ipv4.of_octets 192 (168 + (i / 256)) (i mod 256) 0 in
  let asn i = 65001 + i in
  List.init s.n_routers (fun i ->
      let up_iface =
        if i = 0 then []
        else
          [
            Device.interface
              ~address:(Ipv4.succ (link_subnet i), 30)
              (Printf.sprintf "up%d" i);
          ]
      in
      let children =
        List.filter
          (fun j -> j > 0 && s.parent.(j) = i)
          (List.init s.n_routers Fun.id)
      in
      let down_ifaces =
        List.map
          (fun j ->
            Device.interface
              ~address:(Ipv4.add (link_subnet j) 2, 30)
              (Printf.sprintf "down%d" j))
          children
      in
      let lan_iface =
        Device.interface ~address:(Prefix.first_host (lan i), 24) "lan0"
      in
      let policied = List.mem i s.policied in
      let neighbor ?(import = []) ip remote_as =
        {
          Device.nb_ip = ip;
          nb_remote_as = remote_as;
          nb_group = None;
          nb_import = import;
          nb_export = [];
          nb_local_addr = None;
          nb_next_hop_self = false;
          nb_rr_client = false;
          nb_description = None;
        }
      in
      let up_nb =
        if i = 0 then []
        else
          [
            neighbor
              ~import:(if policied then [ Printf.sprintf "IMP%d" i ] else [])
              (Ipv4.add (link_subnet i) 2)
              (asn s.parent.(i));
          ]
      in
      let down_nbs =
        List.map (fun j -> neighbor (Ipv4.succ (link_subnet j)) (asn j)) children
      in
      let policies = if policied then [ uplink_policy i s.n_routers ] else [] in
      let prefix_lists =
        if policied then
          [
            {
              Device.pl_name = "LANS";
              pl_entries =
                [
                  {
                    (* /10 covers the spilled LAN octets of
                       mega-networks; matches exactly the same routes
                       as the old /16 on small ones *)
                    Device.ple_prefix = Prefix.make (Ipv4.of_octets 10 64 0 0) 10;
                    ple_ge = Some 24;
                    ple_le = Some 24;
                  };
                ];
            };
          ]
        else []
      in
      Device.make
        ~interfaces:((lan_iface :: up_iface) @ down_ifaces)
        ~policies ~prefix_lists
        ~bgp:
          {
            Device.local_as = asn i;
            router_id = Prefix.first_host (lan i);
            networks = [ lan i ];
            aggregates = [];
            redistributes = [];
            groups = [];
            neighbors = up_nb @ down_nbs;
            multipath = s.multipath;
          }
        (host i))

let tested_of state (spec : test_spec) =
  let open Netcov_core in
  let reg = Netcov_sim.Stable_state.registry state in
  let n_elems = Registry.n_elements reg in
  let dp_facts =
    List.concat_map
      (fun (ri, li) ->
        List.map
          (fun entry -> Fact.F_main_rib { host = host ri; entry })
          (Netcov_sim.Stable_state.main_lookup state (host ri) (lan li)))
      spec.probes
  in
  let cp_elements =
    if n_elems = 0 then []
    else List.sort_uniq Int.compare (List.map (fun p -> p mod n_elems) spec.cp_picks)
  in
  { Netcov.dp_facts; cp_elements }

let print_network s =
  Printf.sprintf "n=%d parents=[%s] multipath=%d policied=[%s]" s.n_routers
    (String.concat ";" (Array.to_list (Array.map string_of_int s.parent)))
    s.multipath
    (String.concat ";" (List.map string_of_int s.policied))

let print_scenario sc =
  let test t =
    Printf.sprintf "probes=[%s] cp=[%s]"
      (String.concat ";"
         (List.map (fun (r, l) -> Printf.sprintf "r%d@lan%d" r l) t.probes))
      (String.concat ";" (List.map string_of_int t.cp_picks))
  in
  Printf.sprintf "%s\ntests:\n%s" (print_network sc.net)
    (String.concat "\n" (List.map (fun t -> "  " ^ test t) sc.tests))
