(** Vendor-neutral device configuration model. Workload generators build
    these ASTs; emitters render them to concrete JunOS-like or IOS-like
    text; parsers read such text back. *)

open Netcov_types

type interface = {
  if_name : string;
  address : (Ipv4.t * int) option;  (** address and prefix length *)
  description : string option;
  in_acl : string option;
  out_acl : string option;
  igp_enabled : bool;  (** participates in the internal IGP *)
  igp_metric : int;
}

val interface :
  ?address:Ipv4.t * int ->
  ?description:string ->
  ?in_acl:string ->
  ?out_acl:string ->
  ?igp_enabled:bool ->
  ?igp_metric:int ->
  string ->
  interface

type peer_group = {
  pg_name : string;
  pg_remote_as : int option;
  pg_import : string list;  (** import policy chain, evaluated in order *)
  pg_export : string list;
  pg_local_pref : int option;
  pg_description : string option;
}

type neighbor = {
  nb_ip : Ipv4.t;
  nb_remote_as : int;
  nb_group : string option;
  nb_import : string list;  (** prepended to the group's chain *)
  nb_export : string list;
  nb_local_addr : Ipv4.t option;  (** session source (update-source) *)
  nb_next_hop_self : bool;
  nb_rr_client : bool;
      (** receiver is a route-reflector client of this device: routes
          learned over iBGP are reflected to it, and routes it sends are
          reflected to all other iBGP peers *)
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
  multipath : int;  (** maximum ECMP paths, 1 = disabled *)
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
      (** stub devices modeling the environment; excluded from the
          coverage domain *)
  interfaces : interface list;
  static_routes : static_route list;
  acls : acl list;
  prefix_lists : prefix_list list;
  community_lists : community_list list;
  as_path_lists : as_path_list list;
  policies : Policy_ast.policy list;
  bgp : bgp_config option;
}

(** [behaviour d] is [d] with the fields that nothing outside the
    emitters and parsers reads erased: the interface, peer-group and
    neighbor descriptions. Two configurations of a device with equal
    behaviours simulate and analyze alike, so this one projection
    decides that an edit is behaviour-free, for the stable-state reuse
    of [Stable_state.recompute] and for the incremental engine's fast
    path. *)
val behaviour : t -> t

val make :
  ?syntax:syntax ->
  ?is_external:bool ->
  ?interfaces:interface list ->
  ?static_routes:static_route list ->
  ?acls:acl list ->
  ?prefix_lists:prefix_list list ->
  ?community_lists:community_list list ->
  ?as_path_lists:as_path_list list ->
  ?policies:Policy_ast.policy list ->
  ?bgp:bgp_config ->
  string ->
  t

val find_interface : t -> string -> interface option
val find_policy : t -> string -> Policy_ast.policy option
val find_prefix_list : t -> string -> prefix_list option
val find_community_list : t -> string -> community_list option
val find_as_path_list : t -> string -> as_path_list option
val find_acl : t -> string -> acl option
val find_group : t -> string -> peer_group option

(** [neighbor_import d nb] is the effective import chain of a neighbor:
    its own policies followed by its group's. Likewise for export. *)
val neighbor_import : t -> neighbor -> string list

val neighbor_export : t -> neighbor -> string list

(** Remote AS effective for the neighbor (own value; groups may supply
    one for parsing convenience but [nb_remote_as] is authoritative). *)
val neighbor_group : t -> neighbor -> peer_group option

(** [interface_with_address d ip] finds the interface carrying [ip]. *)
val interface_with_address : t -> Ipv4.t -> interface option

(** All interface connected prefixes of the device. *)
val connected_prefixes : t -> (interface * Prefix.t) list

(** Enumerate element keys defined by this configuration, in a stable
    order matching the emitters. *)
val element_keys : t -> Element.key list

(** [prefix_list_matches pl prefix] tests a prefix against a list,
    honouring [ge]/[le] bounds. *)
val prefix_list_matches : prefix_list -> Prefix.t -> bool

(** [acl_permits acl ip] evaluates the ACL on a destination address;
    returns the 0-based index of the first matching rule and its verdict.
    Default (no match) is permit with no rule index. *)
val acl_permits : acl -> Ipv4.t -> bool * int option
