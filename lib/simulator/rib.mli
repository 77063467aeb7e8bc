(** RIB entry types and per-host tables. The simulator fills these; the
    coverage core performs stable-state lookups against them (§4.2). *)

open Netcov_types

(** Forwarding next hop of a main-RIB entry. *)
type nexthop =
  | Nh_connected of string  (** out interface; destination on-link *)
  | Nh_ip of Ipv4.t  (** gateway address, possibly needing resolution *)
  | Nh_discard  (** null route (e.g. locally generated aggregate) *)

val nexthop_to_string : nexthop -> string
val compare_nexthop : nexthop -> nexthop -> int

type main_entry = {
  me_prefix : Prefix.t;
  me_nexthop : nexthop;
  me_protocol : Route.protocol;
  me_metric : int;  (** IGP cost; 0 for other protocols *)
}

val compare_main : main_entry -> main_entry -> int
val pp_main : Format.formatter -> main_entry -> unit

(** Provenance-free origin marker of a BGP RIB entry (part of the visible
    stable state, as a real RIB dump would show). *)
type bgp_source =
  | Learned of Ipv4.t  (** sender address (session address of the peer) *)
  | From_network  (** network statement pulled it from the main RIB *)
  | From_aggregate
  | From_redistribute of Route.protocol

val bgp_source_to_string : bgp_source -> string
val compare_bgp_source : bgp_source -> bgp_source -> int

type bgp_entry = {
  be_route : Route.bgp;
  be_source : bgp_source;
  be_from_ebgp : bool;  (** true when learned over an eBGP edge *)
  be_igp_cost : int;  (** cost to reach the next hop, for tie-breaks *)
  be_peer_id : Ipv4.t;  (** sender router-id / session ip for tie-breaks *)
  be_best : bool;
}

val compare_bgp_entry : bgp_entry -> bgp_entry -> int
val pp_bgp_entry : Format.formatter -> bgp_entry -> unit

type igp_entry = {
  ie_prefix : Prefix.t;
  ie_nexthop : Ipv4.t;
  ie_out_if : string;
  ie_cost : int;
  ie_dest_host : string;  (** host owning the destination prefix *)
  ie_dest_if : string;
}

val compare_igp : igp_entry -> igp_entry -> int

(** A per-host table of entries, multiple entries per prefix (ECMP /
    multiple learned paths). *)
type 'a table = 'a list Prefix_trie.t

val table_add : Prefix.t -> 'a -> 'a table -> 'a table
val table_find : Prefix.t -> 'a table -> 'a list
val table_entries : 'a table -> (Prefix.t * 'a) list
val table_count : 'a table -> int
val table_longest_match : Ipv4.t -> 'a table -> (Prefix.t * 'a list) option
