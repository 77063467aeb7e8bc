open Netcov_types
open Netcov_config

type verdict = Accepted | Rejected

type result = {
  verdict : verdict;
  route : Route.bgp option;
  exercised : Element.key list;
}

let match_prefix (p : Prefix.t) (mode : Policy_ast.mode) (target : Prefix.t) =
  match mode with
  | Policy_ast.Exact -> Prefix.equal p target
  | Policy_ast.Orlonger -> Prefix.subsumes p target
  | Policy_ast.Upto n -> Prefix.subsumes p target && Prefix.len target <= n

(* Whether one condition holds. *)
let holds (d : Device.t) ~(protocol : Route.protocol) (r : Route.bgp)
    (c : Policy_ast.match_cond) =
  match c with
  | Policy_ast.Match_prefix_list name -> (
      match Device.find_prefix_list d name with
      | Some pl -> Device.prefix_list_matches pl r.prefix
      | None -> false)
  | Policy_ast.Match_prefix (p, mode) -> match_prefix p mode r.prefix
  | Policy_ast.Match_community_list name -> (
      match Device.find_community_list d name with
      | Some cl -> List.exists (fun c -> Route.has_community r c) cl.cl_members
      | None -> false)
  | Policy_ast.Match_community c -> Route.has_community r c
  | Policy_ast.Match_as_path_list name -> (
      match Device.find_as_path_list d name with
      | Some al -> List.exists (fun re -> As_regex.matches re r.as_path) al.al_patterns
      | None -> false)
  | Policy_ast.Match_protocol p -> p = protocol
  | Policy_ast.Match_next_hop nh -> Ipv4.equal nh r.next_hop

(* The list a holding condition consulted: a named list's condition
   holds only when the list exists. *)
let consulted (c : Policy_ast.match_cond) =
  match c with
  | Policy_ast.Match_prefix_list name -> Some (Element.key Prefix_list name)
  | Policy_ast.Match_community_list name -> Some (Element.key Community_list name)
  | Policy_ast.Match_as_path_list name -> Some (Element.key As_path_list name)
  | Policy_ast.Match_prefix _ | Policy_ast.Match_community _
  | Policy_ast.Match_protocol _ | Policy_ast.Match_next_hop _ ->
      None

let apply_actions d r actions =
  let rec go r keys = function
    | [] -> (`Fallthrough, r, List.rev keys)
    | a :: rest -> (
        match (a : Policy_ast.action) with
        | Accept -> (`Accept, r, List.rev keys)
        | Reject -> (`Reject, r, List.rev keys)
        | Next_term -> go r keys rest
        | Set_local_pref n -> go { r with Route.local_pref = n } keys rest
        | Set_med n -> go { r with Route.med = n } keys rest
        | Add_community c -> go (Route.add_community r c) keys rest
        | Remove_community c ->
            go
              { r with Route.communities = Community.Set.remove c r.communities }
              keys rest
        | Delete_community_in name -> (
            match Device.find_community_list d name with
            | None -> go r keys rest
            | Some cl ->
                let communities =
                  List.fold_left
                    (fun s c -> Community.Set.remove c s)
                    r.Route.communities cl.cl_members
                in
                go { r with Route.communities } (Element.key Community_list name :: keys)
                  rest)
        | Prepend_as (asn, times) ->
            go { r with Route.as_path = As_path.prepend asn ~times r.as_path } keys
              rest)
  in
  go r [] actions

module Key_set = Set.Make (struct
  type t = Element.key

  let compare = Element.compare_key
end)

(* Deduplicate keys preserving first occurrence. Runs once per chain
   evaluation, so it allocates no table; a set keeps long fall-through
   chains O(n log n). *)
let dedup = function
  | ([] | [ _ ]) as keys -> keys
  | keys ->
      let _, rev =
        List.fold_left
          (fun ((seen, acc) as kept) k ->
            if Key_set.mem k seen then kept else (Key_set.add k seen, k :: acc))
          (Key_set.empty, []) keys
      in
      List.rev rev

type chain_eval =
  Device.t ->
  chain:string list ->
  default:verdict ->
  protocol:Route.protocol ->
  Route.bgp ->
  result

(* Evaluation volume metric: every policy-chain run (the targeted
   simulation primitive) counts here, cached or not at higher layers. *)
let m_chain_evals =
  Netcov_obs.Metrics.counter Netcov_obs.Metrics.default
    ~help:"policy-chain evaluations (targeted-simulation primitive)"
    ~unit_:"evaluations" "policy.chain_evals"

(* The one policy walk. [record] says whether the caller reads the
   exercised keys; without it no key, clause name or dedup set is
   built, and [exercised] is [[]]. *)
let walk ~record (d : Device.t) ~chain ~default ~protocol route =
  Netcov_obs.Metrics.inc m_chain_evals 1;
  let finish verdict route exercised =
    {
      verdict;
      route = (match verdict with Accepted -> Some route | Rejected -> None);
      exercised = dedup (List.rev exercised);
    }
  in
  let rec eval_terms pol_name r exercised terms rest_policies =
    match terms with
    | [] -> eval_policies r exercised rest_policies
    | (t : Policy_ast.term) :: more ->
        if not (List.for_all (holds d ~protocol r) t.matches) then
          eval_terms pol_name r exercised more rest_policies
        else
          let outcome, r', act_keys = apply_actions d r t.actions in
          let exercised =
            if not record then exercised
            else
              let term_key =
                Element.key Route_policy_clause
                  (Policy_ast.term_element_name ~policy_name:pol_name
                     ~term_name:t.term_name)
              in
              List.rev_append act_keys
                (List.rev_append
                   (List.filter_map consulted t.matches)
                   (term_key :: exercised))
          in
          (match outcome with
          | `Accept -> finish Accepted r' exercised
          | `Reject -> finish Rejected r' exercised
          | `Fallthrough -> eval_terms pol_name r' exercised more rest_policies)
  and eval_policies r exercised = function
    | [] -> finish default r exercised
    | name :: rest -> (
        match Device.find_policy d name with
        | None -> eval_policies r exercised rest
        | Some p -> eval_terms p.pol_name r exercised p.terms rest)
  in
  eval_policies route [] chain

let run_chain d ~chain ~default ?(protocol = Route.Bgp) route =
  walk ~record:true d ~chain ~default ~protocol route

let run_chain_unrecorded d ~chain ~default ?(protocol = Route.Bgp) route =
  walk ~record:false d ~chain ~default ~protocol route
