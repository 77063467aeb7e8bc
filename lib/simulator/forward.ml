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

let max_paths = 32
let max_hops = 64

let trace env ~src ~dst =
  let paths = ref [] in
  let n_paths = ref 0 in
  let rec step host rev_hops visited in_acls =
    if !n_paths >= max_paths then ()
    else if List.length rev_hops > max_hops || List.mem host visited then
      paths := { path_src = src; path_dst = dst; hops = List.rev rev_hops; reached = false } :: !paths
    else if
      (* Blocked by an inbound ACL at this hop? *)
      List.exists (fun a -> not a.au_permit) in_acls
    then begin
      let blocked_hop =
        { hop_host = host; hop_entries = []; hop_out_if = None; hop_acls = in_acls }
      in
      incr n_paths;
      paths :=
        { path_src = src; path_dst = dst; hops = List.rev (blocked_hop :: rev_hops); reached = false }
        :: !paths
    end
    else if owns_address env host dst then begin
      let final_hop =
        { hop_host = host; hop_entries = []; hop_out_if = None; hop_acls = in_acls }
      in
      incr n_paths;
      paths :=
        { path_src = src; path_dst = dst; hops = List.rev (final_hop :: rev_hops); reached = true }
        :: !paths
    end
    else
      match Rib.table_longest_match dst (env.main_rib host) with
      | None ->
          incr n_paths;
          paths :=
            { path_src = src; path_dst = dst; hops = List.rev rev_hops; reached = false }
            :: !paths
      | Some (_, entries) ->
          List.iter
            (fun (entry : Rib.main_entry) ->
              let choices = resolve env host 0 entry dst in
              if choices = [] then begin
                (* discard route or unresolvable next hop *)
                let hop =
                  {
                    hop_host = host;
                    hop_entries = [ entry ];
                    hop_out_if = None;
                    hop_acls = in_acls;
                  }
                in
                incr n_paths;
                paths :=
                  {
                    path_src = src;
                    path_dst = dst;
                    hops = List.rev (hop :: rev_hops);
                    reached = false;
                  }
                  :: !paths
              end
              else
                List.iter
                  (fun (out_if, next, extra) ->
                    let out_acls =
                      match out_if with
                      | Some oif -> eval_acl env host oif ~inbound:false dst
                      | None -> []
                    in
                    let hop =
                      {
                        hop_host = host;
                        hop_entries = entry :: extra;
                        hop_out_if = out_if;
                        hop_acls = in_acls @ out_acls;
                      }
                    in
                    if List.exists (fun a -> not a.au_permit) out_acls then begin
                      incr n_paths;
                      paths :=
                        {
                          path_src = src;
                          path_dst = dst;
                          hops = List.rev (hop :: rev_hops);
                          reached = false;
                        }
                        :: !paths
                    end
                    else
                      match next with
                      | None ->
                          (* Delivered onto a connected subnet: reached
                             iff the entry's subnet contains dst. *)
                          let reached =
                            match out_if with
                            | Some _ ->
                                Prefix.contains entry.me_prefix dst
                                && entry.me_protocol = Route.Connected
                            | None -> false
                          in
                          incr n_paths;
                          paths :=
                            {
                              path_src = src;
                              path_dst = dst;
                              hops = List.rev (hop :: rev_hops);
                              reached;
                            }
                            :: !paths
                      | Some next_host ->
                          let in_acls' = find_in_acls host out_if next_host in
                          step next_host (hop :: rev_hops) (host :: visited) in_acls')
                  choices)
            entries
  and find_in_acls host out_if next_host =
    (* The remote interface is the other end of the local egress link. *)
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
  in
  step src [] [] [];
  List.rev !paths
