type stats = {
  nodes : int;
  edges : int;
  rule_seconds : float;
  sim_count : int;
  sim_seconds : float;
  sim_cache_hits : int;
  sim_cache_misses : int;
  iterations : int;
}

module M = Netcov_obs.Metrics
module T = Netcov_obs.Trace

(* Materialization metrics (docs/OBSERVABILITY.md); the per-run [stats]
   record remains the per-analysis view, the registry the cumulative
   cross-domain one. *)
let m_runs = M.counter M.default ~help:"IFG materializations" ~unit_:"runs" "materialize.runs"

let m_seconds =
  M.histogram M.default ~help:"wall time of one materialization"
    ~unit_:"seconds" ~buckets:M.seconds_buckets "materialize.seconds"

let m_iterations =
  M.counter M.default ~help:"worklist nodes popped, summed over runs"
    ~unit_:"nodes" "materialize.iterations"

let m_nodes =
  M.histogram M.default ~help:"IFG nodes per materialization" ~unit_:"nodes"
    ~buckets:M.size_buckets "materialize.ifg_nodes"

let m_edges =
  M.histogram M.default ~help:"IFG edges per materialization" ~unit_:"edges"
    ~buckets:M.size_buckets "materialize.ifg_edges"

let m_sims =
  M.counter M.default ~help:"targeted policy simulations" ~unit_:"simulations"
    "sim.targeted.count"

let m_sim_seconds =
  M.histogram M.default ~help:"targeted-simulation wall time per materialization"
    ~unit_:"seconds" ~buckets:M.seconds_buckets "sim.targeted.seconds"

let m_cache_hits =
  M.counter M.default ~help:"targeted-simulation memo cache hits"
    ~unit_:"lookups" "sim.cache.hits"

let m_cache_misses =
  M.counter M.default ~help:"targeted-simulation memo cache misses"
    ~unit_:"lookups" "sim.cache.misses"

(* Registered when the module loads, like the metrics above, not
   behind a [lazy]: two domains starting their first analyses at once
   would force it concurrently, which raises CamlinternalLazy.Undefined
   on OCaml 5. *)
let rules =
  Array.of_list
    (List.map
       (fun ((name, _) as named_rule) ->
         ( named_rule,
           M.counter M.default ~help:"inferences emitted per rule"
             ~unit_:"inferences"
             ~labels:[ ("rule", name) ]
             "materialize.inferences" ))
       Rules.all_rules)

let expandable ctx fact =
  match fact with
  | Fact.F_config _ -> false
  | _ -> (
      match Fact.host_of fact with
      | Some h -> not (Netcov_sim.Stable_state.is_external (Rules.state ctx) h)
      | None -> true)

let run ctx ~tested =
  T.with_span "materialize" ~args:[ ("tested", T.I (List.length tested)) ]
  @@ fun () ->
  let g = Ifg.create () in
  let queue = Queue.create () in
  let enqueue_fact f =
    let id, is_new = Ifg.add_fact g f in
    if is_new then Queue.add id queue;
    id
  in
  let tested_ids = List.map enqueue_fact tested in
  let iterations = ref 0 in
  (* Rules mostly target the fact being expanded itself; that fact's
     node is the popped [id], so skip interning it again. *)
  let apply_inference ~id ~fact (inf : Rules.inference) =
    let target_id = if inf.target == fact then id else enqueue_fact inf.target in
    List.iter
      (fun spec ->
        match (spec : Rules.parent_spec) with
        | Rules.P f ->
            let pid = enqueue_fact f in
            Ifg.add_edge g ~parent:pid ~child:target_id
        | Rules.P_disj [] -> ()
        | Rules.P_disj [ f ] ->
            let pid = enqueue_fact f in
            Ifg.add_edge g ~parent:pid ~child:target_id
        | Rules.P_disj fs ->
            (* Materialize members first so new ones enter the
               worklist. *)
            List.iter (fun f -> ignore (enqueue_fact f)) fs;
            ignore (Ifg.add_disj g ~target:target_id fs))
      inf.parents
  in
  (* Only the rules whose pattern names the fact's constructor; the
     inference closure is built only for a rule that fired. *)
  let rec fire id f = function
    | [] -> ()
    | i :: rest ->
        let named_rule, counter = rules.(i) in
        (match Rules.apply_rule ctx named_rule f with
        | [] -> ()
        | infs ->
            M.inc counter (List.length infs);
            List.iter (apply_inference ~id ~fact:f) infs);
        fire id f rest
  in
  let (), rule_seconds =
    Netcov_obs.Timing.time (fun () ->
        while not (Queue.is_empty queue) do
          incr iterations;
          let id = Queue.pop queue in
          if not (Ifg.is_expanded g id) then begin
            Ifg.mark_expanded g id;
            match Ifg.kind g id with
            | Ifg.N_disj -> ()
            | Ifg.N_fact f ->
                if expandable ctx f then fire id f (Rules.rules_for f)
          end
        done)
  in
  let stats =
    {
      nodes = Ifg.n_nodes g;
      edges = Ifg.n_edges g;
      rule_seconds;
      sim_count = Rules.sim_count ctx;
      sim_seconds = Rules.sim_seconds ctx;
      sim_cache_hits = Rules.cache_hits ctx;
      sim_cache_misses = Rules.cache_misses ctx;
      iterations = !iterations;
    }
  in
  (* Flush the per-run stats into the cumulative registry in bulk: the
     worklist itself stays free of registry traffic. *)
  M.inc m_runs 1;
  M.observe m_seconds stats.rule_seconds;
  M.inc m_iterations stats.iterations;
  M.observe m_nodes (float_of_int stats.nodes);
  M.observe m_edges (float_of_int stats.edges);
  M.inc m_sims stats.sim_count;
  M.observe m_sim_seconds stats.sim_seconds;
  M.inc m_cache_hits stats.sim_cache_hits;
  M.inc m_cache_misses stats.sim_cache_misses;
  (g, tested_ids, stats)
