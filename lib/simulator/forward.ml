open Netcov_types
open Netcov_config

type acl_use = {
  au_host : string;
  au_acl : string;
  au_rule : int option;
  au_permit : bool;
}

type hop = {
  hop_host : string;
  hop_entries : Rib.main_entry list;
  hop_out_if : string option;
  hop_acls : acl_use list;
}

type path = {
  path_src : string;
  path_dst : Ipv4.t;
  hops : hop list;
  reached : bool;
}

type env = {
  find_device : string -> Device.t option;
  main_rib : string -> Rib.main_entry Rib.table;
  topo : Topology.t;
}

let owns_address env host dst =
  match env.find_device host with
  | None -> false
  | Some d -> Device.interface_with_address d dst <> None

let eval_acl env host ifname ~inbound dst =
  match env.find_device host with
  | None -> []
  | Some d -> (
      match Device.find_interface d ifname with
      | None -> []
      | Some i -> (
          let acl_name = if inbound then i.in_acl else i.out_acl in
          match acl_name with
          | None -> []
          | Some name -> (
              match Device.find_acl d name with
              | None -> []
              | Some acl ->
                  let permit, rule = Device.acl_permits acl dst in
                  [ { au_host = host; au_acl = name; au_rule = rule; au_permit = permit } ])))

let blocks acls = List.exists (fun a -> not a.au_permit) acls

(* Resolve a main-RIB entry at [host] to concrete egress choices:
   (out_if, next_host option, extra entries consulted). *)
let rec resolve env host depth (entry : Rib.main_entry) dst =
  if depth > 8 then []
  else
    match entry.me_nexthop with
    | Rib.Nh_discard -> []
    | Rib.Nh_connected ifname ->
        (* Delivered onto the connected subnet: next host is the owner
           of [dst] if another device holds it, else local delivery. *)
        let next =
          match Topology.endpoint_of_ip env.topo dst with
          | Some ep when ep.host <> host -> Some ep.host
          | Some _ | None -> None
        in
        [ (Some ifname, next, []) ]
    | Rib.Nh_ip gw -> (
        match Topology.on_shared_subnet env.topo host gw with
        | Some local_ep ->
            let next =
              Option.map
                (fun (ep : Topology.endpoint) -> ep.host)
                (Topology.endpoint_of_ip env.topo gw)
            in
            [ (Some local_ep.ifname, next, []) ]
        | None -> (
            (* Indirect next hop: resolve recursively via the RIB. *)
            match Rib.table_longest_match gw (env.main_rib host) with
            | None -> []
            | Some (_, entries) ->
                List.concat_map
                  (fun (r : Rib.main_entry) ->
                    List.map
                      (fun (oif, next, extra) -> (oif, next, r :: extra))
                      (resolve env host (depth + 1) r gw))
                  entries))

(* The inbound ACL uses at [next_host] for traffic to [dst] leaving
   [host] on [out_if]: the remote interface is the other end of the
   local egress link. *)
let in_acls_at env host out_if next_host dst =
  match out_if with
  | None -> []
  | Some oif -> (
      let adj =
        List.find_opt
          (fun (a : Topology.adjacency) ->
            a.local.ifname = oif && a.remote.host = next_host)
          (Topology.adjacencies_of env.topo host)
      in
      match adj with
      | None -> []
      | Some a -> eval_acl env next_host a.remote.ifname ~inbound:true dst)

(* Everything a trace does at [host] toward [dst] depends only on that
   pair, so it is computed once per (host, dst) and shared by every
   trace through [host]. A choice's [hop] carries only its outbound ACL
   uses: a path that entered [host] without inbound ACL uses takes it
   as is, any other rebuilds it with [in_acls @ out_acls]. *)
type choice = { hop : hop; next : next }

and next =
  | Ends of bool  (** the path ends after this hop; reached or not *)
  | Forwards of string * acl_use list
      (** on to the next host, with its inbound ACL uses *)

type node =
  | Owner of hop  (** [host] owns [dst]: the final hop *)
  | No_route
  | Choices of choice list
      (** per matched entry in table order, its resolutions in order; a
          discard or unresolvable entry is one choice that ends *)

let choices_of env host dst (entry : Rib.main_entry) =
  match resolve env host 0 entry dst with
  | [] ->
      [
        {
          hop = { hop_host = host; hop_entries = [ entry ]; hop_out_if = None; hop_acls = [] };
          next = Ends false;
        };
      ]
  | resolved ->
      List.map
        (fun (out_if, next, extra) ->
          let out_acls =
            match out_if with
            | Some oif -> eval_acl env host oif ~inbound:false dst
            | None -> []
          in
          let next =
            if blocks out_acls then Ends false
            else
              match next with
              | None ->
                  (* Delivered onto a connected subnet: reached iff the
                     entry's subnet contains dst. *)
                  Ends
                    (out_if <> None
                    && Prefix.contains entry.me_prefix dst
                    && entry.me_protocol = Route.Connected)
              | Some next_host ->
                  Forwards (next_host, in_acls_at env host out_if next_host dst)
          in
          {
            hop =
              {
                hop_host = host;
                hop_entries = entry :: extra;
                hop_out_if = out_if;
                hop_acls = out_acls;
              };
            next;
          })
        resolved

let node_of env host dst =
  if owns_address env host dst then
    Owner { hop_host = host; hop_entries = []; hop_out_if = None; hop_acls = [] }
  else
    match Rib.table_longest_match dst (env.main_rib host) with
    | None -> No_route
    | Some (_, entries) -> Choices (List.concat_map (choices_of env host dst) entries)

(* (host, dst) and (src, dst) keys, hashed and compared without the
   polymorphic primitives: a trace looks one up per hop. *)
module Pair = Hashtbl.Make (struct
  type t = string * Ipv4.t

  let equal (h, d) (h', d') = Ipv4.equal d d' && String.equal h h'
  let hash (h, d) = Hashtbl.hash h lxor Ipv4.hash d
end)

(* Both memos are filled on demand, and the pool's domains share a
   state, so every access holds [lock]; computing runs outside it.
   When two domains race on a key, both return the first stored
   value. *)
type t = {
  env : env;
  lock : Mutex.t;
  nodes : node Pair.t;
  paths : path list Pair.t;
}

let create env =
  { env; lock = Mutex.create (); nodes = Pair.create 256; paths = Pair.create 64 }

(* [memo t tbl key compute] is [tbl]'s value for [key], computed by
   [compute t key] outside the lock on a miss. Nothing under the lock
   raises, so it is taken without [Mutex.protect]'s closures: at one
   lookup per hop, their allocation cost about a fifth of a trace. *)
let memo t tbl key compute =
  Mutex.lock t.lock;
  let found = Pair.find_opt tbl key in
  Mutex.unlock t.lock;
  match found with
  | Some v -> v
  | None ->
      let v = compute t key in
      Mutex.lock t.lock;
      let v =
        match Pair.find_opt tbl key with
        | Some first -> first
        | None ->
            Pair.add tbl key v;
            v
      in
      Mutex.unlock t.lock;
      v

let node t host dst = memo t t.nodes (host, dst) (fun t (host, dst) -> node_of t.env host dst)

let max_paths = 32
let max_hops = 64

(* Depth-first over the hop choices: ECMP branches in table order, a
   path ends at a revisited host or at [max_hops] hops, and the walk
   stops once [max_paths] paths are emitted. *)
let dfs t ~src ~dst =
  let paths = ref [] in
  let n_paths = ref 0 in
  let emit rev_hops reached =
    if !n_paths < max_paths then begin
      incr n_paths;
      paths := { path_src = src; path_dst = dst; hops = List.rev rev_hops; reached } :: !paths
    end
  in
  let with_in_acls in_acls hop =
    match in_acls with [] -> hop | _ -> { hop with hop_acls = in_acls @ hop.hop_acls }
  in
  let rec step host rev_hops depth visited in_acls =
    if !n_paths >= max_paths then ()
    else if depth >= max_hops || List.mem host visited then emit rev_hops false
    else if blocks in_acls then
      emit
        ({ hop_host = host; hop_entries = []; hop_out_if = None; hop_acls = in_acls } :: rev_hops)
        false
    else
      match node t host dst with
      | Owner hop -> emit (with_in_acls in_acls hop :: rev_hops) true
      | No_route -> emit rev_hops false
      | Choices choices ->
          List.iter
            (fun c ->
              let rev_hops = with_in_acls in_acls c.hop :: rev_hops in
              match c.next with
              | Ends reached -> emit rev_hops reached
              | Forwards (next_host, next_in) ->
                  step next_host rev_hops (depth + 1) (host :: visited) next_in)
            choices
  in
  step src [] 0 [] [];
  List.rev !paths

let trace t ~src ~dst = memo t t.paths (src, dst) (fun t (src, dst) -> dfs t ~src ~dst)
