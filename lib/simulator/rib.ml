open Netcov_types

type nexthop = Nh_connected of string | Nh_ip of Ipv4.t | Nh_discard

let nexthop_to_string = function
  | Nh_connected ifname -> "direct " ^ ifname
  | Nh_ip ip -> Ipv4.to_string ip
  | Nh_discard -> "discard"

let compare_nexthop a b =
  match (a, b) with
  | Nh_connected x, Nh_connected y -> String.compare x y
  | Nh_connected _, (Nh_ip _ | Nh_discard) -> -1
  | Nh_ip _, Nh_connected _ -> 1
  | Nh_ip x, Nh_ip y -> Ipv4.compare x y
  | Nh_ip _, Nh_discard -> -1
  | Nh_discard, (Nh_connected _ | Nh_ip _) -> 1
  | Nh_discard, Nh_discard -> 0

type main_entry = {
  me_prefix : Prefix.t;
  me_nexthop : nexthop;
  me_protocol : Route.protocol;
  me_metric : int;
}

let compare_main a b =
  match Prefix.compare a.me_prefix b.me_prefix with
  | 0 -> (
      match compare_nexthop a.me_nexthop b.me_nexthop with
      | 0 -> (
          match Route.compare_protocol a.me_protocol b.me_protocol with
          | 0 -> Int.compare a.me_metric b.me_metric
          | c -> c)
      | c -> c)
  | c -> c

let pp_main fmt e =
  Format.fprintf fmt "%s via %s [%s]"
    (Prefix.to_string e.me_prefix)
    (nexthop_to_string e.me_nexthop)
    (Route.protocol_to_string e.me_protocol)

type bgp_source =
  | Learned of Ipv4.t
  | From_network
  | From_aggregate
  | From_redistribute of Route.protocol

let bgp_source_to_string = function
  | Learned ip -> "learned from " ^ Ipv4.to_string ip
  | From_network -> "network statement"
  | From_aggregate -> "aggregate"
  | From_redistribute p -> "redistributed " ^ Route.protocol_to_string p

let compare_bgp_source a b =
  let rank = function
    | Learned _ -> 0
    | From_network -> 1
    | From_aggregate -> 2
    | From_redistribute _ -> 3
  in
  match (a, b) with
  | Learned x, Learned y -> Ipv4.compare x y
  | From_redistribute x, From_redistribute y -> Route.compare_protocol x y
  | _, _ -> Int.compare (rank a) (rank b)

type bgp_entry = {
  be_route : Route.bgp;
  be_source : bgp_source;
  be_from_ebgp : bool;
  be_igp_cost : int;
  be_peer_id : Ipv4.t;
  be_best : bool;
}

let compare_bgp_entry a b =
  let c = Route.compare_bgp a.be_route b.be_route in
  if c <> 0 then c
  else
    let c = compare_bgp_source a.be_source b.be_source in
    if c <> 0 then c
    else
      let c = Bool.compare a.be_from_ebgp b.be_from_ebgp in
      if c <> 0 then c
      else
        let c = Int.compare a.be_igp_cost b.be_igp_cost in
        if c <> 0 then c
        else
          let c = Ipv4.compare a.be_peer_id b.be_peer_id in
          if c <> 0 then c else Bool.compare a.be_best b.be_best

let pp_bgp_entry fmt e =
  Format.fprintf fmt "%a (%s%s)" Route.pp_bgp e.be_route
    (bgp_source_to_string e.be_source)
    (if e.be_best then ", best" else "")

type igp_entry = {
  ie_prefix : Prefix.t;
  ie_nexthop : Ipv4.t;
  ie_out_if : string;
  ie_cost : int;
  ie_dest_host : string;
  ie_dest_if : string;
}

let compare_igp a b =
  let c = Prefix.compare a.ie_prefix b.ie_prefix in
  if c <> 0 then c
  else
    let c = Ipv4.compare a.ie_nexthop b.ie_nexthop in
    if c <> 0 then c else Int.compare a.ie_cost b.ie_cost

type 'a table = 'a list Prefix_trie.t

let table_add p v t =
  Prefix_trie.update p
    (function None -> Some [ v ] | Some l -> Some (l @ [ v ]))
    t

let table_find p t = Option.value (Prefix_trie.find_opt p t) ~default:[]

let table_entries t =
  Prefix_trie.fold (fun p l acc -> List.map (fun v -> (p, v)) l @ acc) t []

let table_count t = Prefix_trie.fold (fun _ l acc -> acc + List.length l) t 0

let table_longest_match ip t =
  Option.map (fun (p, l) -> (p, l)) (Prefix_trie.longest_match ip t)
