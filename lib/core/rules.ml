open Netcov_types
open Netcov_config
open Netcov_sim
open Netcov_policy

(* Targeted-simulation memo cache. The memoized unit is one policy
   chain evaluation — the pure core of every targeted simulation
   (§4.2): key = (device, chain, defaults, canonicalized input route),
   value = the full Eval.result (verdict, transformed route, exercised
   clause ids). The cache is the incremental engine's session cache
   (lib/incr): its replay against a changed device is the fast-path
   witness. Scratch analyses run without one, because an in-process
   Eval.run_chain costs no more than a lookup. A cache is used from one
   domain at a time and needs no locking. *)
(* Key canonicalization: a policy chain only reads the route attributes
   its match conditions name, and only rewrites the ones its actions
   set. Every other attribute passes through the evaluation untouched —
   it influences neither control flow nor the exercised clause set, and
   the output value equals the input value. Stripping those attributes
   from the cache key (replacing them by fixed placeholders) makes
   equivalent simulations share one entry; on a hit the pass-through
   attributes of the cached transformed route are restored from the
   actual input, which is exactly what a fresh evaluation would have
   produced. The per-(device, chain) attribute mask is computed once
   and memoized in the cache. *)
module Attr = struct
  let prefix = 1
  let next_hop = 2
  let as_path = 4
  let local_pref = 8
  let med = 16
  let communities = 32

  (* [origin] and [cluster_len] have no bit: no match condition or
     action can read or write them, so they are always pass-through. *)
  let cond = function
    | Policy_ast.Match_prefix_list _ | Policy_ast.Match_prefix _ -> prefix
    | Policy_ast.Match_community_list _ | Policy_ast.Match_community _ ->
        communities
    | Policy_ast.Match_as_path_list _ -> as_path
    | Policy_ast.Match_protocol _ -> 0
    | Policy_ast.Match_next_hop _ -> next_hop

  let action = function
    | Policy_ast.Accept | Policy_ast.Reject | Policy_ast.Next_term -> 0
    | Policy_ast.Set_local_pref _ -> local_pref
    | Policy_ast.Set_med _ -> med
    | Policy_ast.Add_community _ | Policy_ast.Remove_community _
    | Policy_ast.Delete_community_in _ ->
        communities
    | Policy_ast.Prepend_as _ -> as_path

  (* Attributes the chain can read or write, as a bit set. Written
     attributes must stay in the key too: an attribute modified from
     its input value (community add, AS prepend, a Set on one branch)
     makes the output depend on the input value. *)
  let of_chain (d : Device.t) chain =
    List.fold_left
      (fun m name ->
        match Device.find_policy d name with
        | None -> m
        | Some p ->
            List.fold_left
              (fun m (t : Policy_ast.term) ->
                let m =
                  List.fold_left
                    (fun m c -> m lor cond c)
                    m t.Policy_ast.matches
                in
                List.fold_left
                  (fun m a -> m lor action a)
                  m t.Policy_ast.actions)
              m p.Policy_ast.terms)
      0 chain
end

let canonical_route mask (r : Route.bgp) =
  let keep a = mask land a <> 0 in
  {
    Route.prefix =
      (if keep Attr.prefix then r.Route.prefix else Prefix.default);
    next_hop = (if keep Attr.next_hop then r.Route.next_hop else Ipv4.zero);
    as_path = (if keep Attr.as_path then r.Route.as_path else As_path.empty);
    local_pref = (if keep Attr.local_pref then r.Route.local_pref else 0);
    med = (if keep Attr.med then r.Route.med else 0);
    communities =
      (if keep Attr.communities then r.Route.communities
       else Community.Set.empty);
    origin = Route.Origin_igp;
    cluster_len = 0;
  }

(* Restore the pass-through attributes of a cached result's transformed
   route from the actual input route. *)
let patch_result mask (input : Route.bgp) (r : Eval.result) =
  match r.Eval.route with
  | None -> r
  | Some out ->
      let keep a = mask land a <> 0 in
      let out =
        {
          Route.prefix =
            (if keep Attr.prefix then out.Route.prefix else input.Route.prefix);
          next_hop =
            (if keep Attr.next_hop then out.Route.next_hop
             else input.Route.next_hop);
          as_path =
            (if keep Attr.as_path then out.Route.as_path
             else input.Route.as_path);
          local_pref =
            (if keep Attr.local_pref then out.Route.local_pref
             else input.Route.local_pref);
          med = (if keep Attr.med then out.Route.med else input.Route.med);
          communities =
            (if keep Attr.communities then out.Route.communities
             else input.Route.communities);
          origin = input.Route.origin;
          cluster_len = input.Route.cluster_len;
        }
      in
      { r with Eval.route = Some out }

(* The key is structural, not a formatted string: building strings per
   lookup costs more than the evaluations the cache saves.

   The route is stored RAW and compared/hashed under the memoized
   attribute mask: the previous scheme rebuilt a canonicalized route
   record ([canonical_route]) on EVERY lookup, hit or miss, and that
   per-probe allocation made the canonical cache a measured net
   slowdown (0.877x on the internet2 suite). Mask-aware
   equality/hashing give the same hit/miss behavior — kept attributes
   equal iff the canonical routes are equal — with zero allocation on
   the probe path, and [k_hash] is precomputed at key construction so
   the table never re-walks the key. *)
module Sim_key = struct
  type t = {
    k_host : string;
    k_chain : string list;
    k_default : Eval.verdict;
    k_protocol : Route.protocol;
    k_route : Route.bgp;  (* raw input; compared modulo [k_mask] *)
    k_mask : int;  (* read/write attribute mask *)
    k_hash : int;  (* precomputed, consistent with [equal] *)
  }

  (* Mask-aware route equality. Stripped attributes are pass-through
     for the chain, so ignoring them is exactly what comparing the
     canonical routes did. The community set compares via [Set.equal]
     (tree shape may differ between equal sets). *)
  let route_equal mask (a : Route.bgp) (b : Route.bgp) =
    let keep x = mask land x <> 0 in
    ((not (keep Attr.prefix)) || a.Route.prefix = b.Route.prefix)
    && ((not (keep Attr.next_hop)) || a.Route.next_hop = b.Route.next_hop)
    && ((not (keep Attr.as_path)) || a.Route.as_path = b.Route.as_path)
    && ((not (keep Attr.local_pref)) || a.Route.local_pref = b.Route.local_pref)
    && ((not (keep Attr.med)) || a.Route.med = b.Route.med)
    && ((not (keep Attr.communities))
       || Community.Set.equal a.Route.communities b.Route.communities)

  let mix h v = (h * 31) + v + 1

  (* Explicit field-wise hash covering exactly the fields [route_equal]
     compares (the generic hash's meaningful-node budget would stop
     before the route fields); the community set folds element-wise
     (in-order, hence canonical) because tree shape may differ between
     equal sets. *)
  let route_hash mask (r : Route.bgp) =
    let keep x = mask land x <> 0 in
    let h = if keep Attr.prefix then Prefix.hash r.Route.prefix else 0 in
    let h =
      mix h (if keep Attr.next_hop then Ipv4.hash r.Route.next_hop else 0)
    in
    let h =
      mix h (if keep Attr.as_path then As_path.hash r.Route.as_path else 0)
    in
    let h = mix h (if keep Attr.local_pref then r.Route.local_pref else 0) in
    let h = mix h (if keep Attr.med then r.Route.med else 0) in
    if keep Attr.communities then
      Community.Set.fold
        (fun c h -> mix h (Community.hash c))
        r.Route.communities h
    else h

  (* Host+chain hash component, memoized per (host, chain) alongside
     the attribute mask so the per-lookup work is default + protocol +
     masked route only. *)
  let base_hash host chain =
    List.fold_left (fun h s -> mix h (Hashtbl.hash s)) (Hashtbl.hash host) chain

  let make_hash ~base ~default ~protocol ~mask route =
    let h = mix base (Hashtbl.hash default) in
    let h = mix h (Hashtbl.hash protocol) in
    mix h (route_hash mask route) land max_int

  let equal a b =
    a.k_hash = b.k_hash && a.k_mask = b.k_mask && a.k_default = b.k_default
    && a.k_protocol = b.k_protocol && a.k_host = b.k_host
    && a.k_chain = b.k_chain
    && route_equal a.k_mask a.k_route b.k_route

  let hash k = k.k_hash
end

module Sim_tbl = Hashtbl.Make (Sim_key)

type sim_cache = {
  tbl : Eval.result Sim_tbl.t;
  (* (host, chain) -> (read/write attribute mask, host+chain hash),
     lazily computed *)
  masks : (string * string list, int * int) Hashtbl.t;
}

let create_sim_cache () =
  { tbl = Sim_tbl.create 4096; masks = Hashtbl.create 64 }

(* Replay-based revalidation for the incremental engine (lib/incr):
   instead of dropping every entry of a changed host, re-run each
   cached evaluation against the host's *new* device and keep the
   entries whose results are unchanged. Sound because the replay
   input — the key's stored raw route — is a representative of the
   key's equivalence class: when the chain's read/write attribute mask
   is unchanged, both the old and the new chain treat the stripped
   attributes as pass-through, so equality modulo the mask on the
   representative implies equality on every member of the class (the
   kept attributes of the output depend only on the kept attributes of
   the input). A changed mask shifts the key space itself, so those
   entries are dropped unconditionally. *)

let result_equiv mask (a : Eval.result) (b : Eval.result) =
  a.Eval.verdict = b.Eval.verdict
  && a.Eval.exercised = b.Eval.exercised
  &&
  match (a.Eval.route, b.Eval.route) with
  | None, None -> true
  | Some ra, Some rb ->
      (* pass-through attributes of the stored result come from its
         original (non-canonical) input; compare modulo the mask *)
      canonical_route mask ra = canonical_route mask rb
  | _ -> false

let sim_cache_revalidate_hosts c state pred =
  let checked = ref 0 in
  let doomed = ref [] in
  let fresh_masks = Hashtbl.create 16 in
  let new_mask d mk =
    match Hashtbl.find_opt fresh_masks mk with
    | Some m -> m
    | None ->
        let m = Attr.of_chain d (snd mk) in
        Hashtbl.replace fresh_masks mk m;
        m
  in
  Sim_tbl.iter
    (fun (k : Sim_key.t) r ->
      if pred k.Sim_key.k_host then begin
        incr checked;
        let valid =
          match Stable_state.find_device state k.Sim_key.k_host with
          | exception _ -> false (* host gone from the new state *)
          | d -> (
              let mk = (k.Sim_key.k_host, k.Sim_key.k_chain) in
              let mask = new_mask d mk in
              match Hashtbl.find_opt c.masks mk with
              | Some (m_old, _) when m_old = mask ->
                  result_equiv mask r
                    (Eval.run_chain d ~chain:k.Sim_key.k_chain
                       ~default:k.Sim_key.k_default
                       ~protocol:k.Sim_key.k_protocol k.Sim_key.k_route)
              | _ -> false)
        in
        if not valid then doomed := k :: !doomed
      end)
    c.tbl;
  List.iter (fun k -> Sim_tbl.remove c.tbl k) !doomed;
  (* The memoized masks of the selected hosts must describe their new
     devices: a stale mask would canonicalize keys for the new device
     incorrectly. Store the new mask rather than dropping it — every
     kept entry was validated under an unchanged mask, and on the fast
     path no analysis runs to memoize it again, so a dropped mask would
     fail the next replay of this host. Hosts absent from [state] lose
     their masks. *)
  Hashtbl.filter_map_inplace
    (fun ((h, _) as mk) ((_, base) as mb) ->
      if not (pred h) then Some mb
      else
        match Stable_state.find_device state h with
        | exception _ -> None
        | d -> Some (new_mask d mk, base))
    c.masks;
  (!checked, List.length !doomed)

let sim_cache_length c = Sim_tbl.length c.tbl

type ctx = {
  state : Stable_state.t;
  cache : sim_cache option;
  sim_section : Timing.section;
  diags : (Netcov_diag.Diag.t -> unit) option;
  mutable cache_hits : int;  (* cache hits observed by this ctx *)
  mutable cache_misses : int;
}

let make_ctx ?cache ?diags state =
  {
    state;
    cache;
    sim_section = Timing.make "targeted-sim";
    diags;
    cache_hits = 0;
    cache_misses = 0;
  }

let state ctx = ctx.state
let sim_count ctx = Timing.count ctx.sim_section
let sim_seconds ctx = Timing.total ctx.sim_section
let cache_hits ctx = ctx.cache_hits
let cache_misses ctx = ctx.cache_misses

(* The evaluator injected into Bgp.{export,import,redistribute}_route:
   consult the memo cache before running the policy engine. *)
let chain_eval ctx : Eval.chain_eval =
 fun d ~chain ~default ~protocol route ->
  match ctx.cache with
  | None -> Eval.run_chain d ~chain ~default ~protocol route
  | Some c -> (
      let mask, base =
        let mk = (d.Device.hostname, chain) in
        match Hashtbl.find_opt c.masks mk with
        | Some mb -> mb
        | None ->
            let mb =
              (Attr.of_chain d chain, Sim_key.base_hash d.Device.hostname chain)
            in
            Hashtbl.replace c.masks mk mb;
            mb
      in
      let key =
        {
          Sim_key.k_host = d.Device.hostname;
          k_chain = chain;
          k_default = default;
          k_protocol = protocol;
          k_route = route;
          k_mask = mask;
          k_hash = Sim_key.make_hash ~base ~default ~protocol ~mask route;
        }
      in
      match Sim_tbl.find_opt c.tbl key with
      | Some r ->
          ctx.cache_hits <- ctx.cache_hits + 1;
          patch_result mask route r
      | None ->
          ctx.cache_misses <- ctx.cache_misses + 1;
          let r = Eval.run_chain d ~chain ~default ~protocol route in
          Sim_tbl.add c.tbl key r;
          r)

type parent_spec = P of Fact.t | P_disj of Fact.t list
type inference = { target : Fact.t; parents : parent_spec list }
type rule = ctx -> Fact.t -> inference list

let config_fact ctx ~host key =
  let reg = Stable_state.registry ctx.state in
  match Registry.find reg ~device:host key with
  | Some id -> Some (Fact.F_config id)
  | None -> None

let config_parents ctx ~host keys =
  List.filter_map
    (fun k -> Option.map (fun f -> P f) (config_fact ctx ~host k))
    keys

(* Wrap a targeted simulation with accounting. *)
let timed_sim ctx f = Timing.record ctx.sim_section f

let find_device_fn ctx host = Stable_state.find_device ctx.state host

(* Collapse degenerate disjunctions. *)
let disj_of = function [] -> None | [ f ] -> Some (P f) | fs -> Some (P_disj fs)

(* Resolution of an indirect next hop: the main-RIB entries consulted to
   reach [nh] ([f_i <- r_j, f_k] in Table 1). *)
let resolution_parents ctx ~host nh =
  if Ipv4.equal nh Ipv4.zero then []
  else
    match Topology.on_shared_subnet (Stable_state.topology ctx.state) host nh with
    | Some _ -> []
    | None -> (
        match Rib.table_longest_match nh (Stable_state.main_rib ctx.state host) with
        | None -> []
        | Some (_, entries) ->
            Option.to_list
              (disj_of
                 (List.map (fun e -> Fact.F_main_rib { host; entry = e }) entries)))

(* ------------------------------------------------------------------ *)
(* Main RIB rules                                                      *)
(* ------------------------------------------------------------------ *)

let rule_main_rib_bgp ctx fact =
  match fact with
  | Fact.F_main_rib { host; entry } when entry.me_protocol = Route.Bgp ->
      let best = Stable_state.bgp_lookup_best ctx.state host entry.me_prefix in
      let matching =
        match entry.me_nexthop with
        | Rib.Nh_discard ->
            List.filter
              (fun (b : Rib.bgp_entry) -> b.be_source = Rib.From_aggregate)
              best
        | Rib.Nh_ip nh ->
            List.filter
              (fun (b : Rib.bgp_entry) ->
                Ipv4.equal b.be_route.Route.next_hop nh
                &&
                match b.be_source with Rib.Learned _ -> true | _ -> false)
              best
        | Rib.Nh_connected _ -> []
      in
      let proto_parent =
        match matching with
        | [] -> []
        | b :: _ ->
            [
              P
                (Fact.F_bgp_rib
                   { host; route = b.be_route; source = b.be_source });
            ]
      in
      let resolution =
        match entry.me_nexthop with
        | Rib.Nh_ip nh -> resolution_parents ctx ~host nh
        | Rib.Nh_connected _ | Rib.Nh_discard -> []
      in
      [ { target = fact; parents = proto_parent @ resolution } ]
  | _ -> []

let rule_main_rib_connected ctx fact =
  ignore ctx;
  match fact with
  | Fact.F_main_rib { host; entry } when entry.me_protocol = Route.Connected -> (
      match entry.me_nexthop with
      | Rib.Nh_connected ifname ->
          [
            {
              target = fact;
              parents =
                [
                  P
                    (Fact.F_connected_rib
                       { host; prefix = entry.me_prefix; ifname });
                ];
            };
          ]
      | Rib.Nh_ip _ | Rib.Nh_discard -> [])
  | _ -> []

let rule_main_rib_static ctx fact =
  match fact with
  | Fact.F_main_rib { host; entry } when entry.me_protocol = Route.Static ->
      let cfg =
        config_parents ctx ~host
          [ Element.key Static_route (Prefix.to_string entry.me_prefix) ]
      in
      let resolution =
        match entry.me_nexthop with
        | Rib.Nh_ip nh -> resolution_parents ctx ~host nh
        | Rib.Nh_connected _ | Rib.Nh_discard -> []
      in
      [ { target = fact; parents = cfg @ resolution } ]
  | _ -> []

let rule_main_rib_igp ctx fact =
  match fact with
  | Fact.F_main_rib { host; entry } when entry.me_protocol = Route.Igp ->
      let igp_entries = Stable_state.igp_lookup ctx.state host entry.me_prefix in
      let matching =
        List.filter
          (fun (ie : Rib.igp_entry) ->
            match entry.me_nexthop with
            | Rib.Nh_ip nh -> Ipv4.equal ie.ie_nexthop nh
            | Rib.Nh_connected _ | Rib.Nh_discard -> false)
          igp_entries
      in
      let parents =
        match matching with
        | [] -> []
        | ie :: _ -> [ P (Fact.F_igp_rib { host; entry = ie }) ]
      in
      [ { target = fact; parents } ]
  | _ -> []

(* ------------------------------------------------------------------ *)
(* Protocol RIB rules                                                  *)
(* ------------------------------------------------------------------ *)

let rule_connected_rib ctx fact =
  match fact with
  | Fact.F_connected_rib { host; ifname; _ } ->
      [
        {
          target = fact;
          parents = config_parents ctx ~host [ Element.key Interface ifname ];
        };
      ]
  | _ -> []

let rule_igp_rib ctx fact =
  match fact with
  | Fact.F_igp_rib { host; entry } ->
      let local = config_parents ctx ~host [ Element.key Interface entry.ie_out_if ] in
      let dest =
        config_parents ctx ~host:entry.ie_dest_host
          [ Element.key Interface entry.ie_dest_if ]
      in
      [ { target = fact; parents = local @ dest } ]
  | _ -> []

(* The combined Figure-4 rule: a learned BGP RIB entry pulls in the
   post-import message, the pre-import message, the routing edge, the
   exercised import and export clauses, and the origin entry at the
   sender. *)
let rule_bgp_rib_learned ctx fact =
  match fact with
  | Fact.F_bgp_rib { host; route; source = Rib.Learned send_ip } -> (
      match Stable_state.learned_edge ctx.state ~recv_host:host ~send_ip with
      | None -> []
      | Some (edge, ekey) ->
          let edge_fact = Fact.F_edge ekey in
          let sender_internal = not (Stable_state.is_external ctx.state edge.send_host) in
          let find_device = find_device_fn ctx in
          let candidates =
            Stable_state.bgp_lookup_best ctx.state edge.send_host
              route.Route.prefix
          in
          let eval = chain_eval ctx in
          let simulate (origin : Rib.bgp_entry) =
            timed_sim ctx (fun () ->
                match Bgp.export_route ~eval find_device edge origin with
                | None, _ -> None
                | Some msg, export_keys ->
                    let imported, import_keys =
                      Bgp.import_route ~eval find_device edge msg
                    in
                    Some (origin, msg, export_keys, imported, import_keys))
          in
          let matches =
            List.filter_map
              (fun origin ->
                match simulate origin with
                | Some (o, msg, ek, Some r, ik) when Route.equal_bgp r route ->
                    Some (o, msg, ek, ik)
                | Some _ | None -> None)
              candidates
          in
          let chosen =
            match matches with
            | m :: _ -> Some m
            | [] -> (
                (* Fall back to any accepted candidate; policies are
                   deterministic so this is defensive. *)
                match List.filter_map simulate candidates with
                | (o, msg, ek, Some _, ik) :: _ -> Some (o, msg, ek, ik)
                | _ -> None)
          in
          let post_msg = Fact.F_msg { kind = Post_import; edge = ekey; route } in
          let base = [ { target = fact; parents = [ P post_msg ] } ] in
          (match chosen with
          | None ->
              (* No reproducible origin (e.g. sender withdrew): tie the
                 entry to the edge alone. *)
              base
              @ [ { target = post_msg; parents = [ P edge_fact ] } ]
          | Some (origin, pre_route, export_keys, import_keys) ->
              let pre_msg =
                Fact.F_msg { kind = Pre_import; edge = ekey; route = pre_route }
              in
              let import_clauses = config_parents ctx ~host import_keys in
              let post_inf =
                {
                  target = post_msg;
                  parents = (P pre_msg :: P edge_fact :: import_clauses);
                }
              in
              let pre_parents =
                if sender_internal then
                  let export_clauses =
                    config_parents ctx ~host:edge.send_host export_keys
                  in
                  P
                    (Fact.F_bgp_rib
                       {
                         host = edge.send_host;
                         route = origin.be_route;
                         source = origin.be_source;
                       })
                  :: P edge_fact :: export_clauses
                else [ P edge_fact ]
              in
              base @ [ post_inf; { target = pre_msg; parents = pre_parents } ]))
  | _ -> []

let rule_bgp_rib_network ctx fact =
  match fact with
  | Fact.F_bgp_rib { host; route; source = Rib.From_network } ->
      let cfg =
        config_parents ctx ~host
          [ Element.key Bgp_network (Prefix.to_string route.Route.prefix) ]
      in
      let mains =
        Stable_state.main_lookup ctx.state host route.Route.prefix
        |> List.filter (fun (e : Rib.main_entry) -> e.me_protocol <> Route.Bgp)
        |> List.map (fun e -> Fact.F_main_rib { host; entry = e })
      in
      [ { target = fact; parents = cfg @ Option.to_list (disj_of mains) } ]
  | _ -> []

let rule_bgp_rib_redistribute ctx fact =
  match fact with
  | Fact.F_bgp_rib { host; route; source = Rib.From_redistribute proto } ->
      let d = Stable_state.find_device ctx.state host in
      let rd_cfg =
        match d.bgp with
        | None -> None
        | Some b ->
            List.find_opt
              (fun (r : Device.redistribute) -> r.rd_from = proto)
              b.redistributes
      in
      let mains =
        Stable_state.main_lookup ctx.state host route.Route.prefix
        |> List.filter (fun (e : Rib.main_entry) -> e.me_protocol = proto)
      in
      let clause_parents =
        match (rd_cfg, mains) with
        | Some rd, me :: _ ->
            let _, keys =
              timed_sim ctx (fun () ->
                  Bgp.redistribute_route ~eval:(chain_eval ctx)
                    (find_device_fn ctx) host rd me)
            in
            config_parents ctx ~host keys
        | _, _ -> []
      in
      let main_parents =
        Option.to_list
          (disj_of (List.map (fun e -> Fact.F_main_rib { host; entry = e }) mains))
      in
      [
        {
          target = fact;
          parents =
            (P (Fact.F_redist_edge { host; proto }) :: main_parents)
            @ clause_parents;
        };
      ]
  | _ -> []

let rule_redist_edge ctx fact =
  match fact with
  | Fact.F_redist_edge { host; proto } ->
      [
        {
          target = fact;
          parents =
            config_parents ctx ~host
              [ Element.key Bgp_redistribute (Route.protocol_to_string proto) ];
        };
      ]
  | _ -> []

let rule_bgp_rib_aggregate ctx fact =
  match fact with
  | Fact.F_bgp_rib { host; route; source = Rib.From_aggregate } ->
      let cfg =
        config_parents ctx ~host
          [ Element.key Bgp_aggregate (Prefix.to_string route.Route.prefix) ]
      in
      let contributors =
        Prefix_trie.subsumed route.Route.prefix
          (Stable_state.bgp_rib ctx.state host)
        |> List.concat_map (fun (p, entries) ->
               if Prefix.len p > Prefix.len route.Route.prefix then
                 List.filter_map
                   (fun (b : Rib.bgp_entry) ->
                     if b.be_best && b.be_source <> Rib.From_aggregate then
                       Some
                         (Fact.F_bgp_rib
                            { host; route = b.be_route; source = b.be_source })
                     else None)
                   entries
               else [])
      in
      [ { target = fact; parents = cfg @ Option.to_list (disj_of contributors) } ]
  | _ -> []

(* ------------------------------------------------------------------ *)
(* Edge, path and ACL rules                                            *)
(* ------------------------------------------------------------------ *)

let peering_config_parents ctx ~host ~peer_ip =
  let reg = Stable_state.registry ctx.state in
  match Registry.device_opt reg host with
  | None -> []
  | Some d when d.is_external -> []
  | Some d -> (
      match d.bgp with
      | None -> []
      | Some b -> (
          match
            List.find_opt
              (fun (n : Device.neighbor) -> Ipv4.equal n.nb_ip peer_ip)
              b.neighbors
          with
          | None -> []
          | Some nb ->
              let peer =
                config_parents ctx ~host
                  [ Element.key Bgp_peer (Ipv4.to_string nb.nb_ip) ]
              in
              let group =
                match nb.nb_group with
                | Some g -> config_parents ctx ~host [ Element.key Bgp_peer_group g ]
                | None -> []
              in
              peer @ group))

let rule_edge ctx fact =
  match fact with
  | Fact.F_edge key -> (
      match Stable_state.edge_of_key ctx.state key with
      | None -> []
      | Some edge ->
          let topo = Stable_state.topology ctx.state in
          let recv_side =
            peering_config_parents ctx ~host:edge.recv_host ~peer_ip:edge.send_ip
          in
          let send_side =
            peering_config_parents ctx ~host:edge.send_host ~peer_ip:edge.recv_ip
          in
          let interface_parents =
            if edge.multihop then []
            else
              let local_if host ip =
                match Topology.on_shared_subnet topo host ip with
                | Some ep ->
                    config_parents ctx ~host [ Element.key Interface ep.ifname ]
                | None -> []
              in
              local_if edge.recv_host edge.send_ip
              @ local_if edge.send_host edge.recv_ip
          in
          let path_parents =
            if not edge.multihop then []
            else
              let direction src dst =
                let paths = Stable_state.trace ctx.state ~src ~dst in
                let facts =
                  List.mapi (fun i p -> (i, p)) paths
                  |> List.filter (fun (_, (p : Forward.path)) -> p.reached)
                  |> List.map (fun (idx, _) -> Fact.F_path { src; dst; idx })
                in
                Option.to_list (disj_of facts)
              in
              direction edge.send_host edge.recv_ip
              @ direction edge.recv_host edge.send_ip
          in
          [
            {
              target = fact;
              parents = recv_side @ send_side @ interface_parents @ path_parents;
            };
          ])
  | _ -> []

let rule_path ctx fact =
  match fact with
  | Fact.F_path { src; dst; idx } -> (
      let paths = Stable_state.trace ctx.state ~src ~dst in
      match List.nth_opt paths idx with
      | None -> []
      | Some path ->
          let hop_parents =
            List.concat_map
              (fun (h : Forward.hop) ->
                List.map
                  (fun entry -> P (Fact.F_main_rib { host = h.hop_host; entry }))
                  h.hop_entries
                @ List.map
                    (fun (a : Forward.acl_use) ->
                      P
                        (Fact.F_acl
                           { host = a.au_host; acl = a.au_acl; rule = a.au_rule }))
                    h.hop_acls)
              path.hops
          in
          [ { target = fact; parents = hop_parents } ])
  | _ -> []

let rule_acl ctx fact =
  match fact with
  | Fact.F_acl { host; acl; _ } ->
      [
        {
          target = fact;
          parents = config_parents ctx ~host [ Element.key Acl_def acl ];
        };
      ]
  | _ -> []

(* Guarded application: without a diag sink a crashing rule propagates
   (seed behaviour, byte-identical); with one, the failure becomes a
   [Sim_failure] diagnostic attached to the offending fact and the rule
   contributes no inferences — the fact simply keeps fewer parents. *)
let apply_rule ctx (name, (rule : rule)) fact =
  match ctx.diags with
  | None -> rule ctx fact
  | Some sink -> (
      try rule ctx fact with
      | (Stack_overflow | Out_of_memory) as e -> raise e
      | e ->
          sink
            (Netcov_diag.Diag.error
               ?device:(Fact.host_of fact)
               ~fact:(Fact.key fact) Netcov_diag.Diag.Sim_failure
               (Printf.sprintf "rule %s failed: %s" name (Printexc.to_string e)));
          [])

let all_rules : (string * rule) list =
  [
    ("main-rib-bgp", rule_main_rib_bgp);
    ("main-rib-connected", rule_main_rib_connected);
    ("main-rib-static", rule_main_rib_static);
    ("main-rib-igp", rule_main_rib_igp);
    ("connected-rib", rule_connected_rib);
    ("igp-rib", rule_igp_rib);
    ("bgp-rib-learned", rule_bgp_rib_learned);
    ("bgp-rib-network", rule_bgp_rib_network);
    ("bgp-rib-redistribute", rule_bgp_rib_redistribute);
    ("redist-edge", rule_redist_edge);
    ("bgp-rib-aggregate", rule_bgp_rib_aggregate);
    ("edge", rule_edge);
    ("path", rule_path);
    ("acl", rule_acl);
  ]
