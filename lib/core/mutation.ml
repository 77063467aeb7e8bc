open Netcov_types
open Netcov_config
open Netcov_sim
module Pool = Netcov_parallel.Pool

(* ------------------------------------------------------------------ *)
(* Element surgery *)

(* Remove exactly the [nth] entry matching [name] (0-based among
   matches). Registry elements group every same-keyed entry under one
   element, so a delete mutant must pick one occurrence — removing all
   of them at once (the historical behavior) turns two ECMP static
   routes to one prefix into a single over-strong mutant and inflates
   kill counts. *)
let remove_nth_named name_of name nth lst =
  let rec go seen acc = function
    | [] -> None
    | x :: rest ->
        if name_of x = name then
          if seen = nth then Some (List.rev_append acc rest)
          else go (seen + 1) (x :: acc) rest
        else go seen (x :: acc) rest
  in
  go 0 [] lst

let count_named name_of name lst =
  List.length (List.filter (fun x -> name_of x = name) lst)

(* Route_policy_clause keys are "POLICY/term". *)
let policy_term_of_key name =
  match String.index_opt name '/' with
  | None -> None
  | Some i ->
      Some
        ( String.sub name 0 i,
          String.sub name (i + 1) (String.length name - i - 1) )

let occurrences (d : Device.t) (key : Element.key) =
  let bgp f = match d.bgp with None -> 0 | Some b -> f b in
  match key.etype with
  | Element.Interface ->
      count_named (fun (i : Device.interface) -> i.if_name) key.name
        d.interfaces
  | Element.Bgp_peer ->
      bgp (fun b ->
          count_named
            (fun (n : Device.neighbor) -> Ipv4.to_string n.nb_ip)
            key.name b.neighbors)
  | Element.Bgp_peer_group ->
      bgp (fun b ->
          count_named (fun (g : Device.peer_group) -> g.pg_name) key.name
            b.groups)
  | Element.Route_policy_clause -> (
      match policy_term_of_key key.name with
      | None -> 0
      | Some (pol, term) ->
          List.fold_left
            (fun acc (p : Policy_ast.policy) ->
              if p.pol_name <> pol then acc
              else
                acc
                + count_named
                    (fun (t : Policy_ast.term) -> t.term_name)
                    term p.terms)
            0 d.policies)
  | Element.Prefix_list ->
      count_named (fun (p : Device.prefix_list) -> p.pl_name) key.name
        d.prefix_lists
  | Element.Community_list ->
      count_named (fun (c : Device.community_list) -> c.cl_name) key.name
        d.community_lists
  | Element.As_path_list ->
      count_named (fun (a : Device.as_path_list) -> a.al_name) key.name
        d.as_path_lists
  | Element.Static_route ->
      count_named
        (fun (s : Device.static_route) -> Prefix.to_string s.st_prefix)
        key.name d.static_routes
  | Element.Bgp_network -> bgp (fun b -> count_named Prefix.to_string key.name b.networks)
  | Element.Bgp_aggregate ->
      bgp (fun b ->
          count_named
            (fun (a : Device.aggregate) -> Prefix.to_string a.ag_prefix)
            key.name b.aggregates)
  | Element.Bgp_redistribute ->
      bgp (fun b ->
          count_named
            (fun (r : Device.redistribute) -> Route.protocol_to_string r.rd_from)
            key.name b.redistributes)
  | Element.Acl_def ->
      count_named (fun (a : Device.acl) -> a.acl_name) key.name d.acls

let delete_element ?(occurrence = 0) (d : Device.t) (key : Element.key) =
  let with_bgp f =
    match d.bgp with
    | None -> None
    | Some b -> Option.map (fun b -> { d with Device.bgp = Some b }) (f b)
  in
  match key.etype with
  | Element.Interface ->
      Option.map
        (fun interfaces -> { d with Device.interfaces })
        (remove_nth_named (fun (i : Device.interface) -> i.if_name) key.name
           occurrence d.interfaces)
  | Element.Bgp_peer ->
      with_bgp (fun b ->
          Option.map
            (fun neighbors -> { b with Device.neighbors })
            (remove_nth_named
               (fun (n : Device.neighbor) -> Ipv4.to_string n.nb_ip)
               key.name occurrence b.neighbors))
  | Element.Bgp_peer_group ->
      (* JunOS semantics: neighbors are defined inside their group, so
         deleting the group deletes its members too — unless another
         same-named group definition remains to hold them. *)
      with_bgp (fun b ->
          Option.map
            (fun groups ->
              let still =
                List.exists
                  (fun (g : Device.peer_group) -> g.pg_name = key.name)
                  groups
              in
              {
                b with
                Device.groups;
                neighbors =
                  (if still then b.neighbors
                   else
                     List.filter
                       (fun (n : Device.neighbor) ->
                         n.nb_group <> Some key.name)
                       b.neighbors);
              })
            (remove_nth_named (fun (g : Device.peer_group) -> g.pg_name)
               key.name occurrence b.groups))
  | Element.Route_policy_clause -> (
      match policy_term_of_key key.name with
      | None -> None
      | Some (pol, term) ->
          let seen = ref 0 in
          let removed = ref false in
          let policies =
            List.map
              (fun (p : Policy_ast.policy) ->
                if p.pol_name <> pol then p
                else
                  let terms =
                    List.filter
                      (fun (t : Policy_ast.term) ->
                        if t.term_name = term && not !removed then
                          if !seen = occurrence then begin
                            removed := true;
                            false
                          end
                          else begin
                            incr seen;
                            true
                          end
                        else true)
                      p.terms
                  in
                  { p with Policy_ast.terms })
              d.policies
          in
          if !removed then Some { d with Device.policies } else None)
  | Element.Prefix_list ->
      Option.map
        (fun prefix_lists -> { d with Device.prefix_lists })
        (remove_nth_named (fun (p : Device.prefix_list) -> p.pl_name) key.name
           occurrence d.prefix_lists)
  | Element.Community_list ->
      Option.map
        (fun community_lists -> { d with Device.community_lists })
        (remove_nth_named (fun (c : Device.community_list) -> c.cl_name)
           key.name occurrence d.community_lists)
  | Element.As_path_list ->
      Option.map
        (fun as_path_lists -> { d with Device.as_path_lists })
        (remove_nth_named (fun (a : Device.as_path_list) -> a.al_name)
           key.name occurrence d.as_path_lists)
  | Element.Static_route ->
      Option.map
        (fun static_routes -> { d with Device.static_routes })
        (remove_nth_named
           (fun (s : Device.static_route) -> Prefix.to_string s.st_prefix)
           key.name occurrence d.static_routes)
  | Element.Bgp_network ->
      with_bgp (fun b ->
          Option.map
            (fun networks -> { b with Device.networks })
            (remove_nth_named Prefix.to_string key.name occurrence b.networks))
  | Element.Bgp_aggregate ->
      with_bgp (fun b ->
          Option.map
            (fun aggregates -> { b with Device.aggregates })
            (remove_nth_named
               (fun (a : Device.aggregate) -> Prefix.to_string a.ag_prefix)
               key.name occurrence b.aggregates))
  | Element.Bgp_redistribute ->
      with_bgp (fun b ->
          Option.map
            (fun redistributes -> { b with Device.redistributes })
            (remove_nth_named
               (fun (r : Device.redistribute) ->
                 Route.protocol_to_string r.rd_from)
               key.name occurrence b.redistributes))
  | Element.Acl_def ->
      Option.map
        (fun acls -> { d with Device.acls })
        (remove_nth_named (fun (a : Device.acl) -> a.acl_name) key.name
           occurrence d.acls)

(* ------------------------------------------------------------------ *)
(* Typed mutation operators *)

type operator = {
  op_name : string;
  op_describe : string;
  op_mutate : Device.t -> Element.key -> Device.t list;
}

let op_delete =
  {
    op_name = "delete";
    op_describe =
      "remove one occurrence of the element (the paper's §3.1 mutant); \
       one mutant per same-keyed occurrence";
    op_mutate =
      (fun d key ->
        List.filter_map
          (fun i -> delete_element ~occurrence:i d key)
          (List.init (occurrences d key) Fun.id));
  }

(* Rewrite the first term of the element's policy clause with [f];
   one mutant when [f] changed anything. *)
let map_clause d key f =
  match (key.Element.etype, policy_term_of_key key.Element.name) with
  | Element.Route_policy_clause, Some (pol, term) ->
      let done_ = ref false in
      let policies =
        List.map
          (fun (p : Policy_ast.policy) ->
            if p.pol_name <> pol || !done_ then p
            else
              let terms =
                List.map
                  (fun (t : Policy_ast.term) ->
                    if t.term_name = term && not !done_ then
                      match f t with
                      | Some t' ->
                          done_ := true;
                          t'
                      | None -> t
                    else t)
                  p.terms
              in
              { p with Policy_ast.terms })
          d.Device.policies
      in
      if !done_ then [ { d with Device.policies } ] else []
  | _ -> []

let flip_actions actions =
  let changed = ref false in
  let actions =
    List.map
      (function
        | Policy_ast.Accept ->
            changed := true;
            Policy_ast.Reject
        | Policy_ast.Reject ->
            changed := true;
            Policy_ast.Accept
        | a -> a)
      actions
  in
  if !changed then Some actions else None

let op_flip_policy_action =
  {
    op_name = "flip-policy-action";
    op_describe = "swap accept and reject in the clause's action list";
    op_mutate =
      (fun d key ->
        map_clause d key (fun t ->
            Option.map
              (fun actions -> { t with Policy_ast.actions })
              (flip_actions t.Policy_ast.actions)));
  }

let perturb_actions delta actions ~pick =
  let changed = ref false in
  let actions =
    List.map
      (fun a ->
        match pick a with
        | Some mk when not !changed ->
            changed := true;
            mk delta
        | _ -> a)
      actions
  in
  if !changed then Some actions else None

let op_perturb_local_pref =
  {
    op_name = "perturb-local-pref";
    op_describe =
      "add 50 to a set-local-pref action, or to a peer group's local-pref";
    op_mutate =
      (fun d key ->
        match key.Element.etype with
        | Element.Route_policy_clause ->
            map_clause d key (fun t ->
                Option.map
                  (fun actions -> { t with Policy_ast.actions })
                  (perturb_actions 50 t.Policy_ast.actions ~pick:(function
                    | Policy_ast.Set_local_pref n ->
                        Some (fun d -> Policy_ast.Set_local_pref (n + d))
                    | _ -> None)))
        | Element.Bgp_peer_group -> (
            match d.Device.bgp with
            | None -> []
            | Some b ->
                let done_ = ref false in
                let groups =
                  List.map
                    (fun (g : Device.peer_group) ->
                      match g.pg_local_pref with
                      | Some n when g.pg_name = key.Element.name && not !done_
                        ->
                          done_ := true;
                          { g with Device.pg_local_pref = Some (n + 50) }
                      | _ -> g)
                    b.groups
                in
                if !done_ then
                  [ { d with Device.bgp = Some { b with Device.groups } } ]
                else [])
        | _ -> []);
  }

let op_perturb_med =
  {
    op_name = "perturb-med";
    op_describe = "add 50 to a set-med action in the clause";
    op_mutate =
      (fun d key ->
        map_clause d key (fun t ->
            Option.map
              (fun actions -> { t with Policy_ast.actions })
              (perturb_actions 50 t.Policy_ast.actions ~pick:(function
                | Policy_ast.Set_med n ->
                    Some (fun d -> Policy_ast.Set_med (n + d))
                | _ -> None))));
  }

let op_widen_prefix_bounds =
  {
    op_name = "widen-prefix-bounds";
    op_describe = "raise the first entry's le bound to 32 (match more)";
    op_mutate =
      (fun d key ->
        match key.Element.etype with
        | Element.Prefix_list ->
            let done_ = ref false in
            let prefix_lists =
              List.map
                (fun (pl : Device.prefix_list) ->
                  if pl.pl_name <> key.Element.name || !done_ then pl
                  else
                    {
                      pl with
                      Device.pl_entries =
                        List.map
                          (fun (e : Device.prefix_list_entry) ->
                            if (not !done_) && e.ple_le <> Some 32 then begin
                              done_ := true;
                              { e with Device.ple_le = Some 32 }
                            end
                            else e)
                          pl.pl_entries;
                    })
                d.Device.prefix_lists
            in
            if !done_ then [ { d with Device.prefix_lists } ] else []
        | _ -> []);
  }

let op_narrow_prefix_bounds =
  {
    op_name = "narrow-prefix-bounds";
    op_describe =
      "drop the first entry's ge/le bounds, making it exact-match only";
    op_mutate =
      (fun d key ->
        match key.Element.etype with
        | Element.Prefix_list ->
            let done_ = ref false in
            let prefix_lists =
              List.map
                (fun (pl : Device.prefix_list) ->
                  if pl.pl_name <> key.Element.name || !done_ then pl
                  else
                    {
                      pl with
                      Device.pl_entries =
                        List.map
                          (fun (e : Device.prefix_list_entry) ->
                            if
                              (not !done_)
                              && (e.ple_ge <> None || e.ple_le <> None)
                            then begin
                              done_ := true;
                              { e with Device.ple_ge = None; ple_le = None }
                            end
                            else e)
                          pl.pl_entries;
                    })
                d.Device.prefix_lists
            in
            if !done_ then [ { d with Device.prefix_lists } ] else []
        | _ -> []);
  }

let op_swap_acl_action =
  {
    op_name = "swap-acl-action";
    op_describe = "flip the first rule of the ACL between permit and deny";
    op_mutate =
      (fun d key ->
        match key.Element.etype with
        | Element.Acl_def ->
            let done_ = ref false in
            let acls =
              List.map
                (fun (a : Device.acl) ->
                  if a.acl_name <> key.Element.name || !done_ then a
                  else
                    match a.rules with
                    | [] -> a
                    | r :: rest ->
                        done_ := true;
                        {
                          a with
                          Device.rules =
                            { r with Device.permit = not r.Device.permit }
                            :: rest;
                        })
                d.Device.acls
            in
            if !done_ then [ { d with Device.acls } ] else []
        | _ -> []);
  }

let op_drop_community =
  {
    op_name = "drop-community";
    op_describe = "remove the first member of the community list";
    op_mutate =
      (fun d key ->
        match key.Element.etype with
        | Element.Community_list ->
            let done_ = ref false in
            let community_lists =
              List.map
                (fun (c : Device.community_list) ->
                  if c.cl_name <> key.Element.name || !done_ then c
                  else
                    match c.cl_members with
                    | [] -> c
                    | _ :: rest ->
                        done_ := true;
                        { c with Device.cl_members = rest })
                d.Device.community_lists
            in
            if !done_ then [ { d with Device.community_lists } ] else []
        | _ -> []);
  }

let all_operators =
  [
    op_delete;
    op_flip_policy_action;
    op_widen_prefix_bounds;
    op_narrow_prefix_bounds;
    op_swap_acl_action;
    op_perturb_local_pref;
    op_perturb_med;
    op_drop_community;
  ]

(* Deletion alone is the paper's §3.1 definition; it stays the default
   so mutation coverage remains comparable to IFG coverage (the
   semantic operators deliberately probe behaviors IFG does not
   label). *)
let default_operators = [ op_delete ]

let operator op_name =
  List.find_opt (fun o -> o.op_name = op_name) all_operators

(* ------------------------------------------------------------------ *)
(* Mutants *)

type mutant = {
  mu_element : Element.t;
  mu_op : string;
  mu_device : Device.t;
}

let mutants_of ?(operators = default_operators) reg id =
  let e = Registry.element reg id in
  match Registry.device_opt reg e.Element.device with
  | None -> None
  | Some d ->
      Some
        (List.concat_map
           (fun op ->
             List.map
               (fun d' -> { mu_element = e; mu_op = op.op_name; mu_device = d' })
               (op.op_mutate d e.Element.ekey))
           operators)

let mutant_devices reg m =
  List.map
    (fun (d : Device.t) ->
      if d.hostname = m.mu_element.Element.device then m.mu_device else d)
    (Registry.devices reg)

let mutant_registry reg m = Registry.build (mutant_devices reg m)

(* ------------------------------------------------------------------ *)
(* Oracles over stable states *)

let fact_holds state (f : Fact.t) =
  match f with
  | Fact.F_main_rib { host; entry } ->
      List.exists
        (fun e -> Rib.compare_main e entry = 0)
        (Stable_state.main_lookup state host entry.me_prefix)
  | Fact.F_bgp_rib { host; route; source } ->
      List.exists
        (fun (e : Rib.bgp_entry) ->
          Route.equal_bgp e.be_route route
          &&
          match (e.be_source, source) with
          | Rib.Learned a, Rib.Learned b -> Ipv4.equal a b
          | a, b -> a = b)
        (Stable_state.bgp_lookup state host route.Route.prefix)
  | Fact.F_path { src; dst; _ } -> Stable_state.reachable state ~src ~dst
  | Fact.F_igp_rib { host; entry } ->
      List.exists
        (fun e -> Rib.compare_igp e entry = 0)
        (Stable_state.igp_lookup state host entry.ie_prefix)
  | Fact.F_connected_rib { host; prefix; ifname } -> (
      match Stable_state.main_lookup state host prefix with
      | entries ->
          List.exists
            (fun (e : Rib.main_entry) ->
              e.me_nexthop = Rib.Nh_connected ifname)
            entries)
  | Fact.F_config _ | Fact.F_acl _ | Fact.F_msg _ | Fact.F_edge _
  | Fact.F_redist_edge _ ->
      true

let facts_oracle facts state = List.for_all (fact_holds state) facts

(* ------------------------------------------------------------------ *)
(* Execution *)

type mode = Scratch | Warm

type outcome = {
  o_element : Element.id;
  o_op : string;
  o_killed : bool;
  o_seconds : float;
}

type result = {
  killed : Element.Id_set.t;
  survived : Element.Id_set.t;
  skipped : Element.Id_set.t;
  mutants_run : int;
  seconds : float;
  outcomes : outcome list;
}

(* Expected failure modes of a mutant network: a broken configuration
   may legitimately make simulation or oracle evaluation raise. Anything
   outside this list (Out_of_memory, Stack_overflow, Assert_failure,
   ...) is an engine bug and must propagate, not masquerade as a
   verdict. *)
let is_domain_exn = function
  | Failure _ | Invalid_argument _ | Not_found -> true
  | _ -> false

let competitor_prone = function
  | Element.Route_policy_clause | Element.Prefix_list | Element.Community_list
  | Element.As_path_list | Element.Acl_def | Element.Interface ->
      true
  | Element.Bgp_peer | Element.Bgp_peer_group | Element.Static_route
  | Element.Bgp_network | Element.Bgp_aggregate | Element.Bgp_redistribute ->
      false

let masking_prone = function
  | Element.Route_policy_clause | Element.Prefix_list | Element.Community_list
  | Element.As_path_list | Element.Acl_def ->
      true
  | Element.Interface | Element.Bgp_peer | Element.Bgp_peer_group
  | Element.Static_route | Element.Bgp_network | Element.Bgp_aggregate
  | Element.Bgp_redistribute ->
      false

(* Deleting an interface is an environmental change the control plane
   is built to heal: the IGP reroutes around the missing link, multihop
   sessions re-establish over the surviving paths, and the tested facts
   come back identical. IFG coverage still marks the interface strong —
   it sat on the realized session-enabling or forwarding path — so on
   redundant topologies (any backbone ring, any fat-tree) strong
   interfaces legitimately survive deletion. *)
let reroute_prone = function
  | Element.Interface -> true
  | Element.Route_policy_clause | Element.Prefix_list | Element.Community_list
  | Element.As_path_list | Element.Acl_def | Element.Bgp_peer
  | Element.Bgp_peer_group | Element.Static_route | Element.Bgp_network
  | Element.Bgp_aggregate | Element.Bgp_redistribute ->
      false

let run reg ~oracle ?elements ?(operators = default_operators)
    ?(mode = Warm) ?(pool = Pool.sequential) ?diags () =
  let t0 = Unix.gettimeofday () in
  let baseline_state = Stable_state.compute ?diags reg in
  let baseline = oracle baseline_state in
  let element_ids =
    match elements with
    | Some ids -> ids
    | None ->
        List.rev (Registry.fold_elements reg (fun acc e -> e.Element.id :: acc) [])
  in
  let report_failure (m : mutant) exn =
    match diags with
    | None -> ()
    | Some sink ->
        let line =
          match m.mu_element.Element.lines with [] -> None | l :: _ -> Some l
        in
        sink
          (Netcov_diag.Diag.error ~device:m.mu_element.Element.device ?line
             Netcov_diag.Diag.Sim_failure
             (Printf.sprintf "mutant %s of %s (%s) crashed: %s" m.mu_op
                m.mu_element.Element.ekey.Element.name
                (Element.etype_to_string m.mu_element.Element.ekey.Element.etype)
                (Printexc.to_string exn)))
  in
  let run_mutant (m : mutant) =
    let devs = mutant_devices reg m in
    match
      let state =
        match mode with
        | Warm -> Stable_state.update_devices ?diags baseline_state devs
        | Scratch -> Stable_state.compute ?diags (Registry.build devs)
      in
      oracle state
    with
    | verdict -> verdict <> baseline
    | exception exn when is_domain_exn exn ->
        (* The mutant broke the network so badly the pipeline raised:
           that is a behavior change, i.e. killed — but an attributed,
           reported one, never a silently swallowed engine crash. *)
        report_failure m exn;
        true
  in
  let eval_element id =
    let e = Registry.element reg id in
    match Registry.device_opt reg e.Element.device with
    | None ->
        (* Element of a device the registry cannot resolve: there is no
           mutant to build, and recomputing the baseline would record a
           phantom no-op as survived. *)
        (id, `Skipped, [])
    | Some d ->
        let ms =
          List.concat_map
            (fun op ->
              List.map
                (fun d' ->
                  { mu_element = e; mu_op = op.op_name; mu_device = d' })
                (op.op_mutate d e.Element.ekey))
            operators
        in
        if ms = [] then (id, `Skipped, [])
        else
          let outcomes =
            List.map
              (fun m ->
                let t1 = Unix.gettimeofday () in
                let o_killed = run_mutant m in
                {
                  o_element = id;
                  o_op = m.mu_op;
                  o_killed;
                  o_seconds = Unix.gettimeofday () -. t1;
                })
              ms
          in
          let any = List.exists (fun o -> o.o_killed) outcomes in
          (id, (if any then `Killed else `Survived), outcomes)
  in
  let per_element = Pool.map pool eval_element element_ids in
  let killed = ref Element.Id_set.empty in
  let survived = ref Element.Id_set.empty in
  let skipped = ref Element.Id_set.empty in
  let outcomes = ref [] in
  let mutants = ref 0 in
  List.iter
    (fun (id, verdict, os) ->
      (match verdict with
      | `Killed -> killed := Element.Id_set.add id !killed
      | `Survived -> survived := Element.Id_set.add id !survived
      | `Skipped -> skipped := Element.Id_set.add id !skipped);
      mutants := !mutants + List.length os;
      outcomes := List.rev_append os !outcomes)
    per_element;
  {
    killed = !killed;
    survived = !survived;
    skipped = !skipped;
    mutants_run = !mutants;
    seconds = Unix.gettimeofday () -. t0;
    outcomes = List.rev !outcomes;
  }
