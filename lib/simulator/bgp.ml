open Netcov_types
open Netcov_config
open Netcov_policy

let src = Logs.Src.create "netcov.sim.bgp" ~doc:"BGP fixed point"

module Log = (val Logs.src_log src : Logs.LOG)

type find_device = string -> Device.t

let self_next_hop = Ipv4.zero

(* ------------------------------------------------------------------ *)
(* Sessions                                                            *)
(* ------------------------------------------------------------------ *)

(* The sender's side of a session: everything the sender half and the
   wire rewrite read. *)
type sender = {
  s_dev : Device.t;
  s_bgp : Device.bgp_config;
  s_nb : Device.neighbor;  (* the sender's statement for the receiver *)
  s_export : string list;
  s_clients : Ipv4.t list;  (* the sender's route-reflector clients *)
}

(* The receiver's side: everything the import simulation reads. *)
type receiver = {
  r_dev : Device.t;
  r_bgp : Device.bgp_config;
  r_import : string list;
  r_ebgp_lp : int;  (* the local-pref an eBGP route arrives with *)
}

let resolve_sender (find_device : find_device) (e : Session.edge) =
  let sd = find_device e.send_host in
  match (Session.send_neighbor sd e, sd.bgp) with
  | Some nb, Some b ->
      Some
        {
          s_dev = sd;
          s_bgp = b;
          s_nb = nb;
          s_export = Device.neighbor_export sd nb;
          s_clients =
            List.filter_map
              (fun (n : Device.neighbor) ->
                if n.nb_rr_client then Some n.nb_ip else None)
              b.neighbors;
        }
  | None, _ | _, None -> None

let receiver (rd : Device.t) (b : Device.bgp_config) (nb : Device.neighbor) =
  let lp =
    match Device.neighbor_group rd nb with
    | Some g -> Option.value g.pg_local_pref ~default:Route.default_local_pref
    | None -> Route.default_local_pref
  in
  {
    r_dev = rd;
    r_bgp = b;
    r_import = Device.neighbor_import rd nb;
    r_ebgp_lp = lp;
  }

let resolve_receiver (find_device : find_device) (e : Session.edge) =
  let rd = find_device e.recv_host in
  match (Session.recv_neighbor rd e, rd.bgp) with
  | Some nb, Some b -> Some (receiver rd b nb)
  | None, _ | _, None -> None

(* ------------------------------------------------------------------ *)
(* The two halves of the per-route pipeline                            *)
(* ------------------------------------------------------------------ *)

let is_local_source (s : Rib.bgp_source) =
  match s with
  | Rib.Learned _ -> false
  | Rib.From_network | Rib.From_aggregate | Rib.From_redistribute _ -> true

let ibgp_learned (entry : Rib.bgp_entry) =
  (not entry.be_from_ebgp)
  && match entry.be_source with Rib.Learned _ -> true | _ -> false

let exportable s ~ebgp (entry : Rib.bgp_entry) =
  (* iBGP rule: routes learned from an iBGP peer are not re-advertised
     to iBGP peers (full mesh), unless the sender is a route reflector:
     anything may be reflected to a client, and client routes may be
     reflected to every iBGP peer. *)
  let ibgp_rule =
    ebgp || (not (ibgp_learned entry)) || s.s_nb.nb_rr_client
    ||
    match entry.be_source with
    | Rib.Learned ip -> List.mem ip s.s_clients
    | _ -> false
  in
  let no_export_rule =
    not (ebgp && Route.has_community entry.be_route Community.no_export)
  in
  ibgp_rule && no_export_rule

(* summary-only aggregation suppresses the advertisement of strictly
   more specific prefixes (the aggregate itself is advertised). *)
let suppressed_by_summary (b : Device.bgp_config) (entry : Rib.bgp_entry) =
  entry.be_source <> Rib.From_aggregate
  && List.exists
       (fun (a : Device.aggregate) ->
         a.ag_summary_only
         && Prefix.subsumes a.ag_prefix entry.be_route.Route.prefix
         && Prefix.len entry.be_route.Route.prefix > Prefix.len a.ag_prefix)
       b.aggregates

(* Default chain evaluator: the raw policy engine. The coverage core
   substitutes a memoizing wrapper via [?eval]. *)
let default_eval : Eval.chain_eval =
 fun d ~chain ~default ~protocol route ->
  Eval.run_chain d ~chain ~default ~protocol route

(* The fixed point's evaluator: it reads only verdicts and routes. *)
let route_eval : Eval.chain_eval =
 fun d ~chain ~default ~protocol route ->
  Eval.run_chain_unrecorded d ~chain ~default ~protocol route

let accepted { Eval.verdict; route; exercised } =
  match (verdict, route) with
  | Eval.Accepted, Some r -> (Some r, exercised)
  | Eval.Rejected, _ | _, None -> (None, exercised)

(* The sender half: exportability, summary suppression and the export
   chain's result ([None] when the route is not exportable). It reads
   the sender, the eBGP flag and the neighbor's client flag only, so
   every session of an update group gets the same answer. *)
let export_half ~eval s ~ebgp (entry : Rib.bgp_entry) =
  if (not (exportable s ~ebgp entry)) || suppressed_by_summary s.s_bgp entry
  then None
  else
    Some
      (eval s.s_dev ~chain:s.s_export ~default:Eval.Accepted
         ~protocol:Route.Bgp entry.be_route)

(* The session's own rewrite of an exported route into the wire
   message: eBGP prepending, next-hop rewriting and CLUSTER_LIST
   growth when an iBGP-learned route is reflected. *)
let to_wire s (e : Session.edge) (entry : Rib.bgp_entry) (r : Route.bgp) =
  if e.ebgp then
    {
      r with
      Route.as_path = As_path.prepend s.s_bgp.local_as r.as_path;
      next_hop = e.send_ip;
      cluster_len = 0;
    }
  else
    let r =
      if ibgp_learned entry then
        { r with Route.cluster_len = r.Route.cluster_len + 1 }
      else r
    in
    if s.s_nb.nb_next_hop_self || Ipv4.equal r.Route.next_hop self_next_hop
    then { r with Route.next_hop = e.send_ip }
    else r

let looped (b : Device.bgp_config) ~ebgp (msg : Route.bgp) =
  ebgp && As_path.mem b.local_as msg.Route.as_path

(* The import simulation: AS-loop rejection, the eBGP local-pref reset
   and the import chain. *)
let import_half ~eval rc ~ebgp (msg : Route.bgp) =
  if looped rc.r_bgp ~ebgp msg then (None, [])
  else
    let msg = if ebgp then { msg with Route.local_pref = rc.r_ebgp_lp } else msg in
    accepted
      (eval rc.r_dev ~chain:rc.r_import ~default:Eval.Accepted
         ~protocol:Route.Bgp msg)

let export_route ?(eval = default_eval) (find_device : find_device)
    (e : Session.edge) (entry : Rib.bgp_entry) =
  match resolve_sender find_device e with
  | None -> (None, [])
  | Some s -> (
      match export_half ~eval s ~ebgp:e.ebgp entry with
      | None -> (None, [])
      | Some { Eval.verdict = Eval.Accepted; route = Some r; exercised } ->
          (Some (to_wire s e entry r), exercised)
      | Some { exercised; _ } -> (None, exercised))

(* Checks the AS loop before resolving the receiver's chains, which a
   looped route never reads. *)
let import_route ?(eval = default_eval) (find_device : find_device)
    (e : Session.edge) (msg : Route.bgp) =
  let rd = find_device e.recv_host in
  match (Session.recv_neighbor rd e, rd.bgp) with
  | Some nb, Some b when not (looped b ~ebgp:e.ebgp msg) ->
      import_half ~eval (receiver rd b nb) ~ebgp:e.ebgp msg
  | _, _ -> (None, [])

let redistribute ~eval (d : Device.t) (rd : Device.redistribute)
    (me : Rib.main_entry) =
  let base =
    {
      (Route.originate me.Rib.me_prefix ~next_hop:self_next_hop) with
      Route.origin = Route.Origin_incomplete;
    }
  in
  match rd.rd_policy with
  | None -> (Some base, [])
  | Some pol ->
      accepted
        (eval d ~chain:[ pol ] ~default:Eval.Rejected
           ~protocol:me.Rib.me_protocol base)

let redistribute_route ?(eval = default_eval) (find_device : find_device) host
    (rd : Device.redistribute) (me : Rib.main_entry) =
  redistribute ~eval (find_device host) rd me

let igp_cost_to main_rib ip =
  if Ipv4.equal ip self_next_hop then 0
  else
    match Rib.table_longest_match ip main_rib with
    | Some (_, e :: _) -> e.Rib.me_metric
    | Some (_, []) | None -> 0

(* A resolved session: both sides of one edge, looked up once per
   fixed point instead of once per route. *)
type session = {
  id : int;
  edge : Session.edge;
  send : sender;
  recv : receiver;
  group : int;
      (* update group: sessions with the same sender, export chain,
         eBGP flag and client flag share one sender half per route *)
  igp_to_sender : int;  (* the receiver's IGP cost to [edge.send_ip] *)
}

(* Resolve every edge whose two sides configure BGP and name each
   other; returns the sessions and the number of update groups. *)
let resolve_sessions (find_device : find_device) ~pre_mains edges =
  let groups = Hashtbl.create 64 and next_id = ref 0 in
  let sessions =
    List.filter_map
      (fun (e : Session.edge) ->
        match (resolve_sender find_device e, resolve_receiver find_device e) with
        | Some send, Some recv ->
            let key = (e.send_host, send.s_export, e.ebgp, send.s_nb.nb_rr_client) in
            let group =
              match Hashtbl.find_opt groups key with
              | Some g -> g
              | None ->
                  let g = Hashtbl.length groups in
                  Hashtbl.add groups key g;
                  g
            in
            let pre_main =
              Option.value (Hashtbl.find_opt pre_mains e.recv_host)
                ~default:Prefix_trie.empty
            in
            let id = !next_id in
            incr next_id;
            Some
              {
                id;
                edge = e;
                send;
                recv;
                group;
                igp_to_sender = igp_cost_to pre_main e.send_ip;
              }
        | _, _ -> None)
      edges
  in
  (sessions, Hashtbl.length groups)

let sender_half s (entry : Rib.bgp_entry) =
  match export_half ~eval:route_eval s.send ~ebgp:s.edge.ebgp entry with
  | Some { Eval.verdict = Eval.Accepted; route = Some r; _ } -> Some r
  | Some _ | None -> None

(* The receiver half: the wire rewrite, the import simulation and the
   IGP cost, turning one exported route into a candidate entry. *)
let receiver_half ~pre_main s (entry : Rib.bgp_entry) r =
  let e = s.edge in
  match
    import_half ~eval:route_eval s.recv ~ebgp:e.ebgp (to_wire s.send e entry r)
  with
  | None, _ -> None
  | Some r, _ ->
      let nh = r.Route.next_hop in
      Some
        {
          Rib.be_route = r;
          be_source = Rib.Learned e.send_ip;
          be_from_ebgp = e.ebgp;
          be_igp_cost =
            (if Ipv4.equal nh e.send_ip then s.igp_to_sender
             else igp_cost_to pre_main nh);
          be_peer_id = e.send_ip;
          be_best = false;
        }

(* An update group's exports for one round, as two parallel arrays:
   each best entry of the sender that passes the sender half, and its
   post-chain route. *)
let group_exports s best =
  let n = Array.length best in
  if n = 0 then ([||], [||])
  else
    let entries = Array.make n best.(0) in
    let routes = Array.make n best.(0).Rib.be_route in
    let k = ref 0 in
    Array.iter
      (fun se ->
        match sender_half s se with
        | Some r ->
            entries.(!k) <- se;
            routes.(!k) <- r;
            incr k
        | None -> ())
      best;
    if !k = n then (entries, routes)
    else (Array.sub entries 0 !k, Array.sub routes 0 !k)

let session_edge s = s.edge
let update_group s = s.group

(* ------------------------------------------------------------------ *)
(* Best-path selection                                                 *)
(* ------------------------------------------------------------------ *)

let preference_compare (a : Rib.bgp_entry) (b : Rib.bgp_entry) =
  let ra = a.be_route and rb = b.be_route in
  let local e = if is_local_source e.Rib.be_source then 0 else 1 in
  let c = Int.compare (local a) (local b) in
  if c <> 0 then c
  else
    let c = Int.compare rb.Route.local_pref ra.Route.local_pref in
    if c <> 0 then c
    else
      let c =
        Int.compare
          (As_path.length ra.Route.as_path)
          (As_path.length rb.Route.as_path)
      in
      if c <> 0 then c
      else
        let c =
          Int.compare
            (Route.origin_rank ra.Route.origin)
            (Route.origin_rank rb.Route.origin)
        in
        if c <> 0 then c
        else
          let c = Int.compare ra.Route.med rb.Route.med in
          if c <> 0 then c
          else
            let c = Bool.compare (not a.be_from_ebgp) (not b.be_from_ebgp) in
            if c <> 0 then c
            else
              let c = Int.compare ra.Route.cluster_len rb.Route.cluster_len in
              if c <> 0 then c
              else
                let c = Int.compare a.be_igp_cost b.be_igp_cost in
                if c <> 0 then c else Ipv4.compare a.be_peer_id b.be_peer_id

(* Multipath-eligible with the winner: equal through the IGP-cost step
   (everything except the final peer-id tie break). *)
let multipath_equal (a : Rib.bgp_entry) (b : Rib.bgp_entry) =
  is_local_source a.Rib.be_source = is_local_source b.Rib.be_source
  && a.be_route.Route.local_pref = b.be_route.Route.local_pref
  && As_path.length a.be_route.Route.as_path
     = As_path.length b.be_route.Route.as_path
  && Route.origin_rank a.be_route.Route.origin
     = Route.origin_rank b.be_route.Route.origin
  && a.be_route.Route.med = b.be_route.Route.med
  && a.be_from_ebgp = b.be_from_ebgp
  && a.be_route.Route.cluster_len = b.be_route.Route.cluster_len
  && a.be_igp_cost = b.be_igp_cost

let select_best ~multipath entries =
  match List.sort preference_compare entries with
  | [] -> []
  | winner :: _ as sorted ->
      let n_best = ref 0 in
      List.map
        (fun e ->
          let best =
            !n_best < max 1 multipath && multipath_equal winner e
          in
          if best then incr n_best;
          { e with Rib.be_best = best })
        sorted

(* Canonical selected group for one prefix. The [sort_uniq] on the way
   in makes selection independent of candidate arrival order (a
   sender's several ECMP best paths export as identical messages:
   deduplicating keeps duplicates from consuming the multipath
   budget); the one on the way out canonicalizes the stored group so
   structural comparison is meaningful. *)
let select_group (b : Device.bgp_config) entries =
  select_best ~multipath:b.multipath
    (List.sort_uniq Rib.compare_bgp_entry entries)
  |> List.sort_uniq Rib.compare_bgp_entry

let groups_equal xs ys =
  xs == ys
  || List.length xs = List.length ys
     && List.for_all2 (fun x y -> Rib.compare_bgp_entry x y = 0) xs ys

(* Whether two groups hold the same best entries: all a receiver's
   round and a main RIB read of a group. *)
let rec bests_equal (xs : Rib.bgp_entry list) (ys : Rib.bgp_entry list) =
  match (xs, ys) with
  | x :: xs, _ when not x.be_best -> bests_equal xs ys
  | _, y :: ys when not y.be_best -> bests_equal xs ys
  | x :: xs, y :: ys -> Rib.compare_bgp_entry x y = 0 && bests_equal xs ys
  | [], [] -> true
  | _ :: _, [] | [], _ :: _ -> false

(* A prefix set; [Prefix.t]'s fields are two ints, so the polymorphic
   hash spreads it well ([Prefix.hash] collides on the low bits). *)
type pset = (Prefix.t, unit) Hashtbl.t

let pset_add_list (s : pset) ps = List.iter (fun p -> Hashtbl.replace s p ()) ps

(* ------------------------------------------------------------------ *)
(* Fixed point                                                         *)
(* ------------------------------------------------------------------ *)

type result = {
  bgp_ribs : (string, Rib.bgp_entry Rib.table) Hashtbl.t;
  main_ribs : (string, Rib.main_entry Rib.table) Hashtbl.t;
  igp_ribs : (string, Rib.igp_entry Rib.table) Hashtbl.t;
  pre_mains : (string, Rib.main_entry Rib.table) Hashtbl.t;
  edges : Session.edge list;
  rounds : int;
}

let connected_entries (d : Device.t) =
  List.map
    (fun ((i : Device.interface), p) ->
      {
        Rib.me_prefix = p;
        me_nexthop = Rib.Nh_connected i.if_name;
        me_protocol = Route.Connected;
        me_metric = 0;
      })
    (Device.connected_prefixes d)

let static_entries (d : Device.t) =
  List.map
    (fun (s : Device.static_route) ->
      {
        Rib.me_prefix = s.st_prefix;
        me_nexthop = Rib.Nh_ip s.st_next_hop;
        me_protocol = Route.Static;
        me_metric = 0;
      })
    d.static_routes

let igp_entries table =
  List.map
    (fun (_, (e : Rib.igp_entry)) ->
      {
        Rib.me_prefix = e.ie_prefix;
        me_nexthop = Rib.Nh_ip e.ie_nexthop;
        me_protocol = Route.Igp;
        me_metric = e.ie_cost;
      })
    (Rib.table_entries table)

(* Keep only the best-protocol entries of one prefix's group,
   deduplicated. A pure per-group function: [normalize_main] maps it
   over a whole table, [patch_main] applies it to single groups. *)
let normalize_group entries =
  match List.sort_uniq Rib.compare_main entries with
  | [] -> []
  | sorted ->
      let best_proto =
        List.fold_left
          (fun acc (e : Rib.main_entry) ->
            if Route.compare_protocol e.me_protocol acc < 0 then e.me_protocol
            else acc)
          Route.Bgp sorted
      in
      List.filter (fun (e : Rib.main_entry) -> e.me_protocol = best_proto) sorted

let normalize_main table = Prefix_trie.map normalize_group table

(* Pre-BGP main RIB: connected beats static beats IGP per prefix. *)
let pre_bgp_main (d : Device.t) igp_table =
  let all = connected_entries d @ static_entries d @ igp_entries igp_table in
  List.fold_left
    (fun t (e : Rib.main_entry) -> Rib.table_add e.me_prefix e t)
    Prefix_trie.empty all
  |> normalize_main

(* Local origination: network statements pull exact main-RIB entries
   into BGP, redistribution pulls matching protocols through its
   policy. *)
let originate (d : Device.t) (b : Device.bgp_config) ~pre_main add =
  List.iter
    (fun p ->
      match Rib.table_find p pre_main with
      | [] -> ()
      | me :: _ ->
          if me.Rib.me_protocol <> Route.Bgp then
            add
              {
                Rib.be_route = Route.originate p ~next_hop:self_next_hop;
                be_source = Rib.From_network;
                be_from_ebgp = false;
                be_igp_cost = 0;
                be_peer_id = b.router_id;
                be_best = false;
              })
    b.networks;
  List.iter
    (fun (rd : Device.redistribute) ->
      Prefix_trie.iter
        (fun _ mes ->
          List.iter
            (fun (me : Rib.main_entry) ->
              if me.me_protocol = rd.rd_from then
                match redistribute ~eval:route_eval d rd me with
                | Some r, _ ->
                    add
                      {
                        Rib.be_route = r;
                        be_source = Rib.From_redistribute rd.rd_from;
                        be_from_ebgp = false;
                        be_igp_cost = 0;
                        be_peer_id = b.router_id;
                        be_best = false;
                      }
                | None, _ -> ())
            mes)
        pre_main)
    b.redistributes

let is_aggregate (e : Rib.bgp_entry) =
  match e.be_source with
  | Rib.From_aggregate -> true
  | Rib.Learned _ | Rib.From_network | Rib.From_redistribute _ -> false

let aggregate_entry (b : Device.bgp_config) (a : Device.aggregate) =
  {
    Rib.be_route =
      {
        (Route.originate a.ag_prefix ~next_hop:self_next_hop) with
        Route.origin = Route.Origin_incomplete;
      };
    be_source = Rib.From_aggregate;
    be_from_ebgp = false;
    be_igp_cost = 0;
    be_peer_id = b.router_id;
    be_best = false;
  }

(* An aggregate is active iff some entry other than an aggregate sits at
   a strictly more specific prefix. *)
let aggregate_active table (a : Device.aggregate) =
  List.exists
    (fun (q, es) ->
      Prefix.len q > Prefix.len a.ag_prefix
      && not (List.for_all is_aggregate es))
    (Prefix_trie.subsumed a.ag_prefix table)

let learned_from ip (e : Rib.bgp_entry) =
  match e.be_source with
  | Rib.Learned x -> Ipv4.equal x ip
  | Rib.From_network | Rib.From_aggregate | Rib.From_redistribute _ -> false

(* One synchronous round for one host. A prefix's group is a function of
   the host's own origination at that prefix, each in-sender's
   previous-round best entries at that prefix (export and import never
   rewrite a prefix) and selection within the group. So the round starts
   from the host's previous table [prev] and redoes only prefixes where
   [changed_at] says an in-sender's best entries changed, and of those
   only the ones where the host holds an entry from that sender or gets
   a fresh one: there it swaps the sender's entries ([be_source =
   Learned send_ip]; an address has one owner, so every session with
   that address comes from the same sender) for fresh receiver halves of
   the sender's update-group exports, and selects again. A host whose
   round function changed ([full]) starts from the empty table instead:
   it originates and imports every in-sender's whole table. Aggregates
   are the one cross-prefix coupling: an aggregate above a redone prefix
   is checked again. *)
let host_round (d : Device.t) ~full ~prev ~in_sessions ~changed_at ~exports_of
    ~pre_main =
  match d.bgp with
  | None -> Prefix_trie.empty
  | Some b ->
      (* per redone prefix: the session addresses swapped out, and the
         fresh candidates *)
      let redo : (Prefix.t, Ipv4.t list * Rib.bgp_entry list) Hashtbl.t =
        Hashtbl.create 64
      in
      let at p = Option.value (Hashtbl.find_opt redo p) ~default:([], []) in
      let add (c : Rib.bgp_entry) =
        let p = c.be_route.Route.prefix in
        let ips, cs = at p in
        Hashtbl.replace redo p (ips, c :: cs)
      in
      let import s =
        let entries, routes = exports_of s in
        Array.iteri
          (fun i se ->
            Option.iter add (receiver_half ~pre_main s se routes.(i)))
          entries
      in
      if full then begin
        originate d b ~pre_main add;
        List.iter import in_sessions
      end
      else
        List.iter
          (fun s ->
            match changed_at s.edge.send_host with
            | None -> ()
            | Some changed ->
                let ip = s.edge.send_ip in
                Prefix_trie.iter_common
                  (fun p group () ->
                    if List.exists (learned_from ip) group then
                      let ips, cs = at p in
                      Hashtbl.replace redo p (ip :: ips, cs))
                  prev changed;
                import s)
          in_sessions;
      (* [select_group] sets every best flag again *)
      let regroup p es table =
        match es with
        | [] -> Prefix_trie.remove p table
        | es -> Prefix_trie.add p (select_group b es) table
      in
      let table =
        Hashtbl.fold
          (fun p (ips, cs) table ->
            let kept (e : Rib.bgp_entry) =
              not (List.exists (fun ip -> learned_from ip e) ips)
            in
            regroup p (cs @ List.filter kept (Rib.table_find p table)) table)
          redo
          (if full then Prefix_trie.empty else prev)
      in
      List.fold_left
        (fun table (a : Device.aggregate) ->
          let below p =
            Prefix.len p > Prefix.len a.ag_prefix
            && Prefix.subsumes a.ag_prefix p
          in
          if not (Seq.exists below (Hashtbl.to_seq_keys redo)) then table
          else
            let es = Rib.table_find a.ag_prefix table in
            let active = aggregate_active table a in
            if active = List.exists is_aggregate es then table
            else
              regroup a.ag_prefix
                (if active then aggregate_entry b a :: es
                 else List.filter (fun e -> not (is_aggregate e)) es)
                table)
        table b.aggregates

(* The main-RIB entries one prefix's BGP group installs: the best
   learned routes as next-hop entries, aggregates as discard routes,
   deduplicated and capped by the multipath budget. Locally originated
   network/redistributed entries do not re-install (their source routes
   are already present). *)
let bgp_installs ~multipath p entries =
  let best = List.filter (fun (e : Rib.bgp_entry) -> e.be_best) entries in
  let installs =
    List.filter_map
      (fun (e : Rib.bgp_entry) ->
        match e.be_source with
        | Rib.Learned _ ->
            Some
              {
                Rib.me_prefix = p;
                me_nexthop = Rib.Nh_ip e.be_route.Route.next_hop;
                me_protocol = Route.Bgp;
                me_metric = 0;
              }
        | Rib.From_aggregate ->
            Some
              {
                Rib.me_prefix = p;
                me_nexthop = Rib.Nh_discard;
                me_protocol = Route.Bgp;
                me_metric = 0;
              }
        | Rib.From_network | Rib.From_redistribute _ -> None)
      best
  in
  let rec take n = function
    | [] -> []
    | x :: rest -> if n <= 0 then [] else x :: take (n - 1) rest
  in
  take (max 1 multipath) (List.sort_uniq Rib.compare_main installs)

(* Install BGP best routes into the pre-BGP main RIB. *)
let build_main (d : Device.t) pre_main bgp_table =
  let multipath = match d.bgp with Some b -> b.multipath | None -> 1 in
  Prefix_trie.fold
    (fun p entries table ->
      let existing = Rib.table_find p table in
      let has_better =
        List.exists
          (fun (e : Rib.main_entry) -> e.me_protocol <> Route.Bgp)
          existing
      in
      if has_better then table
      else
        let installs = bgp_installs ~multipath p entries in
        if installs = [] then table else Prefix_trie.add p installs table)
    bgp_table pre_main

(* Incremental [build_main] for warm starts: [old_main] was built from
   the {e same} [pre_main] (the warm contract marks any host whose
   pre-BGP main RIB moved as fully dirty, and those rebuild from
   scratch) and the baseline BGP table, which differs from [bgp_table]
   at most at the [changed] prefixes. Each main group is a per-prefix
   function of pre_main@p and the BGP group at p, so patching exactly
   those prefixes reproduces [build_main]'s output. *)
let patch_main (d : Device.t) pre_main bgp_table ~(changed : pset) ~old_main =
  let multipath = match d.bgp with Some b -> b.multipath | None -> 1 in
  Hashtbl.fold
    (fun p () table ->
      let pre = normalize_group (Rib.table_find p pre_main) in
      let has_better =
        List.exists (fun (e : Rib.main_entry) -> e.me_protocol <> Route.Bgp) pre
      in
      let group =
        if has_better then pre
        else
          match bgp_installs ~multipath p (Rib.table_find p bgp_table) with
          | [] -> pre
          | installs -> installs
      in
      if group = [] then Prefix_trie.remove p table
      else Prefix_trie.add p group table)
    changed old_main

let compute_pre_mains devices igp_ribs =
  let igp_of h =
    Option.value (Hashtbl.find_opt igp_ribs h) ~default:Prefix_trie.empty
  in
  let pre_mains = Hashtbl.create 64 in
  List.iter
    (fun (d : Device.t) ->
      Hashtbl.replace pre_mains d.hostname (pre_bgp_main d (igp_of d.hostname)))
    devices;
  pre_mains

let reach_of pre_mains host ip =
  match Hashtbl.find_opt pre_mains host with
  | None -> false
  | Some t -> Rib.table_longest_match ip t <> None

type warm = {
  w_tables : (string, Rib.bgp_entry Rib.table) Hashtbl.t;
  w_dirty : (string, unit) Hashtbl.t;
  w_main_reuse : (string, Rib.main_entry Rib.table) Hashtbl.t;
}

(* What changed at a dirty host: its round function (configuration,
   pre-BGP main RIB or in-edge set), or its best entries at these
   prefixes in the last round. *)
type dirt = Full | At of unit Prefix_trie.t

let fixed_point ?(max_rounds = 64) ?diags ~warm devices ~igp_ribs ~pre_mains
    ~edges =
  let dev_tbl = Hashtbl.create 64 in
  List.iter (fun (d : Device.t) -> Hashtbl.replace dev_tbl d.hostname d) devices;
  let find_device h =
    match Hashtbl.find_opt dev_tbl h with
    | Some d -> d
    | None -> (
        match diags with
        | None -> invalid_arg ("Bgp.run: unknown device " ^ h)
        | Some sink ->
            (* Degrade: report once, then stand in an external stub so
               the session's routes simply stop propagating there. *)
            sink
              (Netcov_diag.Diag.error ~device:h Netcov_diag.Diag.Unknown_host
                 (Printf.sprintf
                    "unknown device %s: substituting an external stub" h));
            let stub = Device.make ~is_external:true h in
            Hashtbl.replace dev_tbl h stub;
            stub)
  in
  let sessions, n_groups = resolve_sessions find_device ~pre_mains edges in
  let in_sessions_of = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let h = s.edge.recv_host in
      let cur = Option.value (Hashtbl.find_opt in_sessions_of h) ~default:[] in
      Hashtbl.replace in_sessions_of h (s :: cur))
    (List.rev sessions);
  let in_sessions_of_host h =
    Option.value (Hashtbl.find_opt in_sessions_of h) ~default:[]
  in
  let bgp_state = Hashtbl.create 64 in
  List.iter
    (fun (d : Device.t) ->
      Hashtbl.replace bgp_state d.hostname
        (Option.value
           (Hashtbl.find_opt warm.w_tables d.hostname)
           ~default:Prefix_trie.empty))
    devices;
  let rounds = ref 0 in
  (* Semi-naive iteration. A host's round output is a function of its
     round function and its in-senders' previous-round best entries, so
     a round recomputes only the hosts that are [dirty] or have a dirty
     in-sender, and those only where something changed ([host_round]);
     every other host keeps its table untouched. The seed marks the
     hosts of [w_dirty] [Full]: their round function changed (a scratch
     run's seed is every host, over empty tables). After each round a
     host is dirty at exactly the prefixes where its best entries
     changed; a change confined to entries that are not best dirties
     nothing.

     A warm seed replays only the affected cone of an edit: receivers of
     a [Full] sender take that sender's whole table in round one (their
     imports re-evaluate its new export configuration even where its
     table is unchanged), and ordinary propagation takes over. The
     result is a fixed point of the new network; it matches a scratch
     run whenever the synchronous iteration's fixed point is unique
     (differentially enforced by the mutation smoke gate and the
     [mutation-falsifiability] oracle). *)
  let dirty : (string, dirt) Hashtbl.t = Hashtbl.create 64 in
  Hashtbl.iter (fun h () -> Hashtbl.replace dirty h Full) warm.w_dirty;
  (* Hosts whose best entries may differ from the seed's tables, with
     the union of the prefixes where they changed across rounds ([None]
     = unbounded: the [Full] hosts), for main-RIB patching below; a main
     RIB reads only best entries. *)
  let touched : (string, pset option) Hashtbl.t = Hashtbl.create 64 in
  Hashtbl.iter (fun h _ -> Hashtbl.replace touched h None) dirty;
  let touch h ps =
    match Hashtbl.find_opt touched h with
    | Some None -> ()
    | Some (Some acc) -> pset_add_list acc ps
    | None ->
        let acc = Hashtbl.create 16 in
        pset_add_list acc ps;
        Hashtbl.replace touched h (Some acc)
  in
  (* Hosts whose table changed at all in the last round (the seed
     before the first): the hosts "still changing" at a cap. *)
  let changed_hosts = ref (Hashtbl.length dirty) in
  while Hashtbl.length dirty > 0 && !rounds < max_rounds do
    incr rounds;
    Netcov_obs.Trace.with_span "sim.bgp.round"
      ~args:
        [
          ("round", Netcov_obs.Trace.I !rounds);
          ("dirty", Netcov_obs.Trace.I (Hashtbl.length dirty));
        ]
    @@ fun () ->
    let prev_bgp h =
      Option.value (Hashtbl.find_opt bgp_state h) ~default:Prefix_trie.empty
    in
    let is_full h =
      match Hashtbl.find_opt dirty h with
      | Some Full -> true
      | Some (At _) | None -> false
    in
    (* A [Full] sender may export differently at every prefix. *)
    let changed_at h =
      match Hashtbl.find_opt dirty h with
      | None -> None
      | Some (At changed) -> Some changed
      | Some Full -> Some (Prefix_trie.map ignore (prev_bgp h))
    in
    (* This round's sender halves, computed on first use and dropped
       when the round ends: a sender's best entries at the prefixes
       where they changed, or in its whole table in round one (then
       every dirty host is [Full], and only [Full] receivers import
       from a clean sender), and each update group's exports of
       them. *)
    let exports = Array.make n_groups None in
    let exports_of s =
      match exports.(s.group) with
      | Some xs -> xs
      | None ->
          let h = s.edge.send_host in
          let table = prev_bgp h in
          let groups =
            match Hashtbl.find_opt dirty h with
            | Some (At changed) ->
                let acc = ref [] in
                Prefix_trie.iter_common
                  (fun _ g () -> acc := g :: !acc)
                  table changed;
                !acc
            | Some Full | None ->
                Prefix_trie.fold (fun _ g acc -> g :: acc) table []
          in
          let best =
            Array.of_list
              (List.concat_map
                 (List.filter (fun (e : Rib.bgp_entry) -> e.be_best))
                 groups)
          in
          let xs = group_exports s best in
          exports.(s.group) <- Some xs;
          xs
    in
    let next =
      List.filter_map
        (fun (d : Device.t) ->
          let h = d.hostname in
          let in_sessions = in_sessions_of_host h in
          let dirty_sender s = Hashtbl.mem dirty s.edge.send_host in
          if is_full h || List.exists dirty_sender in_sessions then
            Some
              ( h,
                host_round d ~full:(is_full h) ~prev:(prev_bgp h) ~in_sessions
                  ~changed_at ~exports_of ~pre_main:(Hashtbl.find pre_mains h) )
          else None)
        devices
    in
    Hashtbl.reset dirty;
    changed_hosts := 0;
    List.iter
      (fun (h, table) ->
        (* A round splices into the previous table, so the walk visits
           only the spliced paths. *)
        let prev = prev_bgp h in
        match Prefix_trie.diff groups_equal table prev with
        | [] -> ()
        | changed -> (
            incr changed_hosts;
            match
              List.filter
                (fun p ->
                  not (bests_equal (Rib.table_find p table) (Rib.table_find p prev)))
                changed
            with
            | [] -> ()
            | best_changed ->
                let at = List.map (fun p -> (p, ())) best_changed in
                Hashtbl.replace dirty h (At (Prefix_trie.of_list at));
                touch h best_changed))
      next;
    List.iter (fun (h, table) -> Hashtbl.replace bgp_state h table) next
  done;
  (* A last round that changed only entries that are not best leaves
     every round's input as it was, so a further round would change
     nothing. [rounds] counts that confirming round, as a loop that
     stopped only on unchanged tables would; at the cap it is not run,
     and the hosts that changed are still changing. *)
  if Hashtbl.length dirty = 0 && !changed_hosts > 0 && !rounds < max_rounds
  then begin
    incr rounds;
    changed_hosts := 0
  end;
  if !changed_hosts > 0 then begin
    Log.warn (fun m -> m "BGP did not converge after %d rounds" max_rounds);
    Option.iter
      (fun sink ->
        sink
          (Netcov_diag.Diag.warning Netcov_diag.Diag.No_convergence
             (Printf.sprintf
                "BGP did not converge within %d rounds: %d hosts still \
                 changing; coverage is computed over the last round's state"
                max_rounds !changed_hosts)))
      diags
  end;
  let main_ribs = Hashtbl.create 64 in
  List.iter
    (fun (d : Device.t) ->
      let h = d.hostname in
      let table =
        match
          (Hashtbl.find_opt touched h, Hashtbl.find_opt warm.w_main_reuse h)
        with
        | None, Some old_main -> old_main
        | Some (Some changed), Some old_main ->
            patch_main d (Hashtbl.find pre_mains h) (Hashtbl.find bgp_state h)
              ~changed ~old_main
        | Some None, _ | _, None ->
            build_main d
              (normalize_main (Hashtbl.find pre_mains h))
              (Hashtbl.find bgp_state h)
      in
      Hashtbl.replace main_ribs h table)
    devices;
  { bgp_ribs = bgp_state; main_ribs; igp_ribs; pre_mains; edges; rounds = !rounds }

let run ?max_rounds ?diags devices topo =
  let igp_ribs = Igp.compute devices topo in
  let pre_mains = compute_pre_mains devices igp_ribs in
  let edges = Session.establish devices topo ~reach:(reach_of pre_mains) in
  (* A scratch run: empty tables, and every host's round function new. *)
  let w_dirty = Hashtbl.create 64 in
  List.iter
    (fun (d : Device.t) -> Hashtbl.replace w_dirty d.hostname ())
    devices;
  let warm =
    { w_tables = Hashtbl.create 1; w_dirty; w_main_reuse = Hashtbl.create 1 }
  in
  fixed_point ?max_rounds ?diags ~warm devices ~igp_ribs ~pre_mains ~edges
