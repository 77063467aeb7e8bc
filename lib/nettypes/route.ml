type protocol = Connected | Static | Igp | Bgp

let protocol_to_string = function
  | Connected -> "connected"
  | Static -> "static"
  | Igp -> "igp"
  | Bgp -> "bgp"

let protocol_of_string = function
  | "connected" -> Some Connected
  | "static" -> Some Static
  | "igp" -> Some Igp
  | "bgp" -> Some Bgp
  | _ -> None

let pp_protocol fmt p = Format.pp_print_string fmt (protocol_to_string p)

let protocol_rank = function Connected -> 0 | Static -> 1 | Igp -> 2 | Bgp -> 3
let compare_protocol a b = Int.compare (protocol_rank a) (protocol_rank b)

type origin_kind = Origin_igp | Origin_egp | Origin_incomplete

let origin_to_string = function
  | Origin_igp -> "igp"
  | Origin_egp -> "egp"
  | Origin_incomplete -> "incomplete"

let origin_rank = function
  | Origin_igp -> 0
  | Origin_egp -> 1
  | Origin_incomplete -> 2

let compare_origin a b = Int.compare (origin_rank a) (origin_rank b)

type bgp = {
  prefix : Prefix.t;
  next_hop : Ipv4.t;
  as_path : As_path.t;
  local_pref : int;
  med : int;
  communities : Community.Set.t;
  origin : origin_kind;
  cluster_len : int;
}

let default_local_pref = 100

let originate prefix ~next_hop =
  {
    prefix;
    next_hop;
    as_path = As_path.empty;
    local_pref = default_local_pref;
    med = 0;
    communities = Community.Set.empty;
    origin = Origin_igp;
    cluster_len = 0;
  }

let with_prefix r prefix = { r with prefix }
let add_community r c = { r with communities = Community.Set.add c r.communities }
let has_community r c = Community.Set.mem c r.communities

let compare_bgp a b =
  let c = Prefix.compare a.prefix b.prefix in
  if c <> 0 then c
  else
    let c = Ipv4.compare a.next_hop b.next_hop in
    if c <> 0 then c
    else
      let c = As_path.compare a.as_path b.as_path in
      if c <> 0 then c
      else
        let c = Int.compare a.local_pref b.local_pref in
        if c <> 0 then c
        else
          let c = Int.compare a.med b.med in
          if c <> 0 then c
          else
            let c = Community.Set.compare a.communities b.communities in
            if c <> 0 then c
            else
              let c = compare_origin a.origin b.origin in
              if c <> 0 then c else Int.compare a.cluster_len b.cluster_len

let equal_bgp a b =
  a == b
  || Prefix.equal a.prefix b.prefix
     && Ipv4.equal a.next_hop b.next_hop
     && As_path.equal a.as_path b.as_path
     && a.local_pref = b.local_pref && a.med = b.med
     && Community.Set.equal a.communities b.communities
     && origin_rank a.origin = origin_rank b.origin
     && a.cluster_len = b.cluster_len

let hash_bgp r =
  (* Covers every field [compare_bgp] compares, so hash-equal whenever
     [equal_bgp]; the community set folds element-wise (in-order, hence
     canonical) because tree shape may differ between equal sets. *)
  let mix h v = (h * 31) + v + 1 in
  let h = mix (Prefix.hash r.prefix) (Ipv4.hash r.next_hop) in
  let h = mix h (As_path.hash r.as_path) in
  let h = mix h r.local_pref in
  let h = mix h r.med in
  let h = Community.Set.fold (fun c h -> mix h (Community.hash c)) r.communities h in
  let h = mix h (origin_rank r.origin) in
  mix h r.cluster_len

let bgp_to_string r =
  Printf.sprintf "%s via %s as-path [%s] lp %d med %d comm {%s} origin %s"
    (Prefix.to_string r.prefix)
    (Ipv4.to_string r.next_hop)
    (As_path.to_string r.as_path)
    r.local_pref r.med
    (String.concat ","
       (List.map Community.to_string (Community.Set.elements r.communities)))
    (origin_to_string r.origin)

let pp_bgp fmt r = Format.pp_print_string fmt (bgp_to_string r)
