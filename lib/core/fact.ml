open Netcov_types
open Netcov_config
open Netcov_sim

type msg_kind = Pre_import | Post_import

type t =
  | F_config of Element.id
  | F_main_rib of { host : string; entry : Rib.main_entry }
  | F_bgp_rib of { host : string; route : Route.bgp; source : Rib.bgp_source }
  | F_connected_rib of { host : string; prefix : Prefix.t; ifname : string }
  | F_igp_rib of { host : string; entry : Rib.igp_entry }
  | F_acl of { host : string; acl : string; rule : int option }
  | F_msg of { kind : msg_kind; edge : string; route : Route.bgp }
  | F_edge of string
  | F_redist_edge of { host : string; proto : Route.protocol }
  | F_path of { src : string; dst : Ipv4.t; idx : int }

let route_key (r : Route.bgp) =
  Printf.sprintf "%s|%s|%s|%d|%d|%s|%s|%d"
    (Prefix.to_string r.prefix)
    (Ipv4.to_string r.next_hop)
    (As_path.to_string r.as_path)
    r.local_pref r.med
    (String.concat ","
       (List.map Community.to_string (Community.Set.elements r.communities)))
    (Route.origin_to_string r.origin)
    r.cluster_len

let key = function
  | F_config id -> Printf.sprintf "cfg:%d" id
  | F_main_rib { host; entry } ->
      Printf.sprintf "main:%s:%s:%s:%s" host
        (Prefix.to_string entry.me_prefix)
        (Rib.nexthop_to_string entry.me_nexthop)
        (Route.protocol_to_string entry.me_protocol)
  | F_bgp_rib { host; route; source } ->
      Printf.sprintf "bgp:%s:%s:%s" host (route_key route)
        (Rib.bgp_source_to_string source)
  | F_connected_rib { host; prefix; ifname } ->
      Printf.sprintf "conn:%s:%s:%s" host (Prefix.to_string prefix) ifname
  | F_igp_rib { host; entry } ->
      Printf.sprintf "igp:%s:%s:%s:%s" host
        (Prefix.to_string entry.ie_prefix)
        (Ipv4.to_string entry.ie_nexthop)
        entry.ie_out_if
  | F_acl { host; acl; rule } ->
      Printf.sprintf "acl:%s:%s:%s" host acl
        (match rule with Some i -> string_of_int i | None -> "default")
  | F_msg { kind; edge; route } ->
      Printf.sprintf "msg:%s:%s:%s"
        (match kind with Pre_import -> "pre" | Post_import -> "post")
        edge (route_key route)
  | F_edge k -> "edge:" ^ k
  | F_redist_edge { host; proto } ->
      Printf.sprintf "redist-edge:%s:%s" host (Route.protocol_to_string proto)
  | F_path { src; dst; idx } ->
      Printf.sprintf "path:%s:%s:%d" src (Ipv4.to_string dst) idx

let host_of = function
  | F_config _ -> None
  | F_main_rib { host; _ }
  | F_bgp_rib { host; _ }
  | F_connected_rib { host; _ }
  | F_igp_rib { host; _ }
  | F_acl { host; _ }
  | F_redist_edge { host; _ } ->
      Some host
  | F_msg _ | F_edge _ -> None
  | F_path { src; _ } -> Some src

let is_config = function F_config id -> Some id | _ -> None
let pp fmt f = Format.pp_print_string fmt (key f)

(* Structural identity, allocation-free. MUST project exactly the
   fields [key] prints — fact identity is part of the coverage
   semantics (it decides which derivations share an IFG node), so
   [equal a b <=> String.equal (key a) (key b)] is an invariant pinned
   by the fact-identity property test (test/test_intern.ml). In
   particular:
   - a main-RIB fact ignores [me_metric];
   - an IGP-RIB fact ignores [ie_cost], [ie_dest_host], [ie_dest_if]. *)

let nexthop_equal a b =
  match (a, b) with
  | Rib.Nh_connected x, Rib.Nh_connected y -> String.equal x y
  | Rib.Nh_ip x, Rib.Nh_ip y -> Ipv4.equal x y
  | Rib.Nh_discard, Rib.Nh_discard -> true
  | (Rib.Nh_connected _ | Rib.Nh_ip _ | Rib.Nh_discard), _ -> false

let source_equal a b =
  match (a, b) with
  | Rib.Learned x, Rib.Learned y -> Ipv4.equal x y
  | Rib.From_network, Rib.From_network -> true
  | Rib.From_aggregate, Rib.From_aggregate -> true
  | Rib.From_redistribute p, Rib.From_redistribute q -> p = q
  | ( ( Rib.Learned _ | Rib.From_network | Rib.From_aggregate
      | Rib.From_redistribute _ ),
      _ ) ->
      false

let equal a b =
  match (a, b) with
  | F_config i, F_config j -> Int.equal i j
  | F_main_rib a, F_main_rib b ->
      String.equal a.host b.host
      && Prefix.equal a.entry.Rib.me_prefix b.entry.Rib.me_prefix
      && nexthop_equal a.entry.Rib.me_nexthop b.entry.Rib.me_nexthop
      && a.entry.Rib.me_protocol = b.entry.Rib.me_protocol
  | F_bgp_rib a, F_bgp_rib b ->
      String.equal a.host b.host
      && Route.equal_bgp a.route b.route
      && source_equal a.source b.source
  | F_connected_rib a, F_connected_rib b ->
      String.equal a.host b.host
      && Prefix.equal a.prefix b.prefix
      && String.equal a.ifname b.ifname
  | F_igp_rib a, F_igp_rib b ->
      String.equal a.host b.host
      && Prefix.equal a.entry.Rib.ie_prefix b.entry.Rib.ie_prefix
      && Ipv4.equal a.entry.Rib.ie_nexthop b.entry.Rib.ie_nexthop
      && String.equal a.entry.Rib.ie_out_if b.entry.Rib.ie_out_if
  | F_acl a, F_acl b ->
      String.equal a.host b.host
      && String.equal a.acl b.acl
      && Option.equal Int.equal a.rule b.rule
  | F_msg a, F_msg b ->
      a.kind = b.kind
      && String.equal a.edge b.edge
      && Route.equal_bgp a.route b.route
  | F_edge a, F_edge b -> String.equal a b
  | F_redist_edge a, F_redist_edge b ->
      String.equal a.host b.host && a.proto = b.proto
  | F_path a, F_path b ->
      String.equal a.src b.src && Ipv4.equal a.dst b.dst && Int.equal a.idx b.idx
  | ( ( F_config _ | F_main_rib _ | F_bgp_rib _ | F_connected_rib _
      | F_igp_rib _ | F_acl _ | F_msg _ | F_edge _ | F_redist_edge _
      | F_path _ ),
      _ ) ->
      false

(* Hash over the same projection as [equal]; strings are stored data
   ([Hashtbl.hash] folds their bytes without allocating), never built
   here. Each constructor gets a distinct salt. *)

let mix h v = (h * 31) + v + 1

let nexthop_hash = function
  | Rib.Nh_connected ifname -> mix 1 (Hashtbl.hash ifname)
  | Rib.Nh_ip ip -> mix 2 (Ipv4.hash ip)
  | Rib.Nh_discard -> 3

let source_hash = function
  | Rib.Learned ip -> mix 1 (Ipv4.hash ip)
  | Rib.From_network -> 2
  | Rib.From_aggregate -> 3
  | Rib.From_redistribute p -> mix 4 (Hashtbl.hash p)

let hash = function
  | F_config id -> mix 0x11 id
  | F_main_rib { host; entry } ->
      mix
        (mix (mix (mix 0x22 (Hashtbl.hash host)) (Prefix.hash entry.Rib.me_prefix))
           (nexthop_hash entry.Rib.me_nexthop))
        (Hashtbl.hash entry.Rib.me_protocol)
  | F_bgp_rib { host; route; source } ->
      mix (mix (mix 0x33 (Hashtbl.hash host)) (Route.hash_bgp route)) (source_hash source)
  | F_connected_rib { host; prefix; ifname } ->
      mix (mix (mix 0x44 (Hashtbl.hash host)) (Prefix.hash prefix)) (Hashtbl.hash ifname)
  | F_igp_rib { host; entry } ->
      mix
        (mix
           (mix (mix 0x55 (Hashtbl.hash host)) (Prefix.hash entry.Rib.ie_prefix))
           (Ipv4.hash entry.Rib.ie_nexthop))
        (Hashtbl.hash entry.Rib.ie_out_if)
  | F_acl { host; acl; rule } ->
      mix
        (mix (mix 0x66 (Hashtbl.hash host)) (Hashtbl.hash acl))
        (match rule with Some i -> i + 2 | None -> 1)
  | F_msg { kind; edge; route } ->
      mix
        (mix (mix 0x77 (match kind with Pre_import -> 1 | Post_import -> 2))
           (Hashtbl.hash edge))
        (Route.hash_bgp route)
  | F_edge k -> mix 0x88 (Hashtbl.hash k)
  | F_redist_edge { host; proto } ->
      mix (mix 0x99 (Hashtbl.hash host)) (Hashtbl.hash proto)
  | F_path { src; dst; idx } ->
      mix (mix (mix 0xaa (Hashtbl.hash src)) (Ipv4.hash dst)) idx

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash f = hash f land max_int
end)
