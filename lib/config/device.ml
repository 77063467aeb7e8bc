open Netcov_types

type interface = {
  if_name : string;
  address : (Ipv4.t * int) option;
  description : string option;
  in_acl : string option;
  out_acl : string option;
  igp_enabled : bool;
  igp_metric : int;
}

let interface ?address ?description ?in_acl ?out_acl ?(igp_enabled = false)
    ?(igp_metric = 10) if_name =
  { if_name; address; description; in_acl; out_acl; igp_enabled; igp_metric }

type peer_group = {
  pg_name : string;
  pg_remote_as : int option;
  pg_import : string list;
  pg_export : string list;
  pg_local_pref : int option;
  pg_description : string option;
}

type neighbor = {
  nb_ip : Ipv4.t;
  nb_remote_as : int;
  nb_group : string option;
  nb_import : string list;
  nb_export : string list;
  nb_local_addr : Ipv4.t option;
  nb_next_hop_self : bool;
  nb_rr_client : bool;
  nb_description : string option;
}

type aggregate = { ag_prefix : Prefix.t; ag_summary_only : bool }
type redistribute = { rd_from : Route.protocol; rd_policy : string option }

type bgp_config = {
  local_as : int;
  router_id : Ipv4.t;
  networks : Prefix.t list;
  aggregates : aggregate list;
  redistributes : redistribute list;
  groups : peer_group list;
  neighbors : neighbor list;
  multipath : int;
}

type static_route = { st_prefix : Prefix.t; st_next_hop : Ipv4.t }
type acl_rule = { permit : bool; rule_prefix : Prefix.t }
type acl = { acl_name : string; rules : acl_rule list }

type prefix_list_entry = {
  ple_prefix : Prefix.t;
  ple_ge : int option;
  ple_le : int option;
}

type prefix_list = { pl_name : string; pl_entries : prefix_list_entry list }
type community_list = { cl_name : string; cl_members : Community.t list }
type as_path_list = { al_name : string; al_patterns : As_regex.t list }

type syntax = Junos | Ios

type t = {
  hostname : string;
  syntax : syntax;
  is_external : bool;
  interfaces : interface list;
  static_routes : static_route list;
  acls : acl list;
  prefix_lists : prefix_list list;
  community_lists : community_list list;
  as_path_lists : as_path_list list;
  policies : Policy_ast.policy list;
  bgp : bgp_config option;
}

(* The erased fields, and only these: a field read anywhere outside
   the emitters and parsers must not be erased here. *)
let behaviour d =
  {
    d with
    interfaces =
      List.map (fun i -> { i with description = None }) d.interfaces;
    bgp =
      Option.map
        (fun b ->
          {
            b with
            groups =
              List.map (fun g -> { g with pg_description = None }) b.groups;
            neighbors =
              List.map (fun n -> { n with nb_description = None }) b.neighbors;
          })
        d.bgp;
  }

let make ?(syntax = Junos) ?(is_external = false) ?(interfaces = [])
    ?(static_routes = []) ?(acls = []) ?(prefix_lists = [])
    ?(community_lists = []) ?(as_path_lists = []) ?(policies = []) ?bgp
    hostname =
  {
    hostname;
    syntax;
    is_external;
    interfaces;
    static_routes;
    acls;
    prefix_lists;
    community_lists;
    as_path_lists;
    policies;
    bgp;
  }

let find_by name_of lst n = List.find_opt (fun x -> String.equal (name_of x) n) lst
let find_interface d n = find_by (fun i -> i.if_name) d.interfaces n
let find_policy d n = find_by (fun (p : Policy_ast.policy) -> p.pol_name) d.policies n
let find_prefix_list d n = find_by (fun p -> p.pl_name) d.prefix_lists n
let find_community_list d n = find_by (fun c -> c.cl_name) d.community_lists n
let find_as_path_list d n = find_by (fun a -> a.al_name) d.as_path_lists n
let find_acl d n = find_by (fun a -> a.acl_name) d.acls n

let find_group d n =
  match d.bgp with
  | None -> None
  | Some bgp -> find_by (fun g -> g.pg_name) bgp.groups n

let neighbor_group d nb =
  match nb.nb_group with None -> None | Some g -> find_group d g

let neighbor_import d nb =
  let group_chain =
    match neighbor_group d nb with None -> [] | Some g -> g.pg_import
  in
  nb.nb_import @ group_chain

let neighbor_export d nb =
  let group_chain =
    match neighbor_group d nb with None -> [] | Some g -> g.pg_export
  in
  nb.nb_export @ group_chain

let interface_with_address d ip =
  List.find_opt
    (fun i -> match i.address with Some (a, _) -> Ipv4.equal a ip | None -> false)
    d.interfaces

let connected_prefixes d =
  List.filter_map
    (fun i ->
      match i.address with
      | Some (a, len) -> Some (i, Prefix.interface_prefix a len)
      | None -> None)
    d.interfaces

let element_keys d =
  let open Element in
  let ifaces = List.map (fun i -> key Interface i.if_name) d.interfaces in
  let statics =
    List.map (fun s -> key Static_route (Prefix.to_string s.st_prefix)) d.static_routes
  in
  let acls = List.map (fun a -> key Acl_def a.acl_name) d.acls in
  let pls = List.map (fun p -> key Prefix_list p.pl_name) d.prefix_lists in
  let cls = List.map (fun c -> key Community_list c.cl_name) d.community_lists in
  let als = List.map (fun a -> key As_path_list a.al_name) d.as_path_lists in
  let clauses =
    List.concat_map
      (fun (p : Policy_ast.policy) ->
        List.map
          (fun (t : Policy_ast.term) ->
            key Route_policy_clause
              (Policy_ast.term_element_name ~policy_name:p.pol_name
                 ~term_name:t.term_name))
          p.terms)
      d.policies
  in
  let bgp_keys =
    match d.bgp with
    | None -> []
    | Some bgp ->
        List.map (fun g -> key Bgp_peer_group g.pg_name) bgp.groups
        @ List.map (fun n -> key Bgp_peer (Ipv4.to_string n.nb_ip)) bgp.neighbors
        @ List.map (fun p -> key Bgp_network (Prefix.to_string p)) bgp.networks
        @ List.map
            (fun a -> key Bgp_aggregate (Prefix.to_string a.ag_prefix))
            bgp.aggregates
        @ List.map
            (fun r -> key Bgp_redistribute (Route.protocol_to_string r.rd_from))
            bgp.redistributes
  in
  ifaces @ statics @ acls @ pls @ cls @ als @ clauses @ bgp_keys

let prefix_list_matches pl p =
  let len = Prefix.len p in
  let entry_matches e =
    let base = e.ple_prefix in
    match (e.ple_ge, e.ple_le) with
    | None, None -> Prefix.equal base p
    | ge, le ->
        let lo = Option.value ge ~default:(Prefix.len base) in
        let hi = Option.value le ~default:32 in
        Prefix.subsumes base p && len >= lo && len <= hi
  in
  List.exists entry_matches pl.pl_entries

let acl_permits acl ip =
  let rec go idx = function
    | [] -> (true, None)
    | r :: rest ->
        if Prefix.contains r.rule_prefix ip then (r.permit, Some idx)
        else go (idx + 1) rest
  in
  go 0 acl.rules
