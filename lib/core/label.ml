open Netcov_config
open Netcov_bdd

type result = {
  covered : Element.Id_set.t;
  strong : Element.Id_set.t;
  weak : Element.Id_set.t;
  vars : int;
  bdd_nodes : int;
  seconds : float;
}

(* Multi-source reverse DFS from the tested nodes along parent edges,
   never passing through a disjunctive node: every config node reached
   this way is necessarily strong. *)
let disjunction_free_strong g ~tested =
  let n = Ifg.n_nodes g in
  let visited = Array.make n false in
  let strong = ref Element.Id_set.empty in
  let rec go id =
    if not visited.(id) then begin
      visited.(id) <- true;
      if not (Ifg.is_disj g id) then begin
        (* do not cross disjunctive nodes *)
        (match Ifg.config_eid g id with
        | Some eid -> strong := Element.Id_set.add eid !strong
        | None -> ());
        Ifg.iter_parents g id go
      end
    end
  in
  List.iter go tested;
  !strong

(* Variable budget of one cone, counted in config nodes (candidate or
   pre-strong) in discovery order: only candidates at a position below
   it get a variable, the rest stay weak (sound for strong-labeling:
   weak is the safe default) and the cone is logged. Counting
   pre-strong nodes too makes the numbered prefix a property of the
   cone alone, whatever other tested facts share the graph. *)
let max_cone_vars = 8192

let src = Logs.Src.create "netcov.label" ~doc:"strong/weak labeling"

module Log = (val Logs.src_log src : Logs.LOG)

module M = Netcov_obs.Metrics
module T = Netcov_obs.Trace

(* Labeling metrics (docs/OBSERVABILITY.md). BDD apply-cache counters
   are flushed here per cone as deltas of the arena's cumulative
   counters, so the BDD hot path keeps its local counters only. *)
let m_runs = M.counter M.default ~help:"labeling passes" ~unit_:"runs" "label.runs"

let m_seconds =
  M.histogram M.default ~help:"wall time of one labeling pass"
    ~unit_:"seconds" ~buckets:M.seconds_buckets "label.seconds"

let m_cones =
  M.counter M.default ~help:"BDD cones labeled (tainted tested facts)"
    ~unit_:"cones" "label.cones"

let m_cone_vars =
  M.histogram M.default ~help:"BDD variables per cone" ~unit_:"variables"
    ~buckets:M.size_buckets "label.cone_vars"

let m_bdd_nodes =
  M.histogram M.default ~help:"BDD arena nodes after labeling a cone"
    ~unit_:"nodes" ~buckets:M.size_buckets "bdd.nodes"

let m_bdd_hits =
  M.counter M.default ~help:"BDD apply-cache hits" ~unit_:"lookups"
    "bdd.cache.hits"

let m_bdd_misses =
  M.counter M.default ~help:"BDD apply-cache misses" ~unit_:"lookups"
    "bdd.cache.misses"

let m_arena_nodes =
  M.gauge M.default
    ~help:"node count of the most recently used per-domain BDD arena"
    ~unit_:"nodes" "bdd.arena.nodes"

let m_arena_trims =
  M.counter M.default
    ~help:"per-domain BDD arena resets at the watermark"
    ~unit_:"trims" "bdd.arena.trims"

(* -------------------------------------------------------------------- *)
(* Per-domain BDD arena                                                  *)
(* -------------------------------------------------------------------- *)

(* One persistent hash-consed node store per worker domain, reused
   across cones, labeling passes and suites, instead of a throwaway
   manager per cone. Domain-local (Domain.DLS), so there is no locking
   on the BDD hot path.

   All per-cone state lives in graph-indexed scratch arrays stamped
   per traversal, not in per-cone hash tables: on the labeling hot
   path every lookup is an array read plus a stamp compare, and a cone
   costs zero allocation beyond the BDD nodes it actually creates.

   Lifecycle: no BDD handle ever crosses a pool-task boundary (cone
   tasks return element-id sets), so the arena may be reset whenever
   no task is mid-flight on this domain. Each labeling task checks the
   watermark at entry — before it takes any handle — and resets the
   manager when the node store has outgrown it, bounding the
   per-domain footprint instead of growing monotonically. *)
type arena = {
  a_mgr : Bdd.manager;
  (* scratch, indexed by IFG node id; a slot is live only when its
     stamp cell matches the current traversal stamp *)
  mutable a_seen : int array;  (* cone-membership DFS stamp *)
  mutable a_tstamp : int array;  (* translation stamp *)
  mutable a_bdd : Bdd.node array;  (* the node's BDD, under a_tstamp *)
  mutable a_stamp : int;
}

(* Arena apply-cache size: the working set of a pass is far larger
   than the arena's node count (hash-consing means one node takes part
   in many distinct apply pairs), and symmetric cones repeat the same
   apply pairs, which only hit when they survive in the shared cache.
   Two 16 MiB arrays per domain, kept across resets. Filling them costs
   a process's first labeling pass about 55 ms; the default 4,096
   entries save that and 32 MB of peak RSS, but label the fattree-k12
   datacenter union in 1.9 s instead of 0.07 s (docs/PERFORMANCE.md). *)
let arena_cache_size = 1 lsl 21

let arena_key =
  Domain.DLS.new_key (fun () ->
      {
        a_mgr = Bdd.create ~cache_size:arena_cache_size ();
        a_seen = [||];
        a_tstamp = [||];
        a_bdd = [||];
        a_stamp = 0;
      })

(* Grow the scratch to cover [n] IFG nodes. Fresh stamp cells start at
   0, which no live stamp ever equals, so old arrays need no copying. *)
let ensure_scratch a n =
  if Array.length a.a_seen < n then begin
    a.a_seen <- Array.make n 0;
    a.a_tstamp <- Array.make n 0;
    a.a_bdd <- Array.make n (Bdd.bdd_false a.a_mgr)
  end

(* Default: ~1M nodes per domain. Three 8 MiB node arrays plus the
   unique table and apply cache — tens of MiB per domain, far below
   the GiB-scale peak of per-cone managers on fattree-k16. *)
let default_watermark = 1 lsl 20
let arena_watermark = Atomic.make default_watermark

let set_arena_watermark n =
  if n < 2 then invalid_arg "Label.set_arena_watermark";
  Atomic.set arena_watermark n

(* Fetch this domain's arena, resetting it first if it is over the
   watermark. Only called at task entry, when no handle is live. *)
let get_arena () =
  let a = Domain.DLS.get arena_key in
  if Bdd.node_count a.a_mgr > Atomic.get arena_watermark then begin
    Bdd.reset a.a_mgr;
    M.inc m_arena_trims 1
  end;
  a

(* Flush the arena's apply-cache counter movement of one cone into the
   global metrics and report the arena size. *)
let flush_bdd_metrics m (before : Bdd.cache_stats) =
  let after = Bdd.cache_stats m in
  M.inc m_bdd_hits (after.Bdd.hits - before.Bdd.hits);
  M.inc m_bdd_misses (after.Bdd.misses - before.Bdd.misses);
  M.observe m_bdd_nodes (float_of_int (Bdd.node_count m));
  M.set m_arena_nodes (float_of_int (Bdd.node_count m))

(* -------------------------------------------------------------------- *)
(* Global labeling pass                                                  *)
(* -------------------------------------------------------------------- *)

(* Shared-arena labeling of one cone.

   Variable numbering is per-cone, in cone-discovery order (reverse
   DFS from the tested fact, pre-order). A pass-global numbering was
   tried and ruled out: it scatters the variables of a later cone's
   contribution chains across the order established by earlier cones,
   and BDDs of nested disjunction-of-chain predicates (ECMP fabrics,
   iBGP meshes) are exponential under such interleavings. Only the
   cone's own discovery order is known to keep them linear.

   The per-cone variable cap takes the same order: it numbers config
   nodes as they are discovered, and only candidates numbered below
   [max_cone_vars] get a variable; the rest stand for constant true,
   so they stay weak. Pre-strong nodes take a position too, so a
   cone's capped prefix does not depend on which of its nodes other
   tested facts made pre-strong: setting a variable to true never
   changes which other variables of a monotone predicate are
   essential, so labels inside the budget are the same in any graph
   that contains the cone.

   What cones share is the arena manager itself: hash-consed nodes
   (structurally identical BDDs of symmetric cones collapse to the
   same node ids) and a warm apply cache, with no per-cone
   allocate/collect churn. *)

let label_one_shared ~a ~g ~is_config ~candidate ~n_vars t =
  let m = a.a_mgr in
  let before = Bdd.cache_stats m in
  let eid_of_var = Array.make n_vars (-1) in
  let nv = ref 0 and pos = ref 0 in
  a.a_stamp <- a.a_stamp + 1;
  let stamp = a.a_stamp in
  let tstamp = a.a_tstamp and abdd = a.a_bdd in
  (* One pre-order recursion does numbering and translation: a node's
     cone-local variable is assigned at first visit, before its
     parents are entered. Back edges (impossible in a well-formed IFG)
     read the in-progress marker, true. *)
  let rec compute id =
    if tstamp.(id) = stamp then abdd.(id)
    else begin
      tstamp.(id) <- stamp;
      abdd.(id) <- Bdd.bdd_true m;
      let vself =
        if not is_config.(id) then -1
        else begin
          let p = !pos in
          incr pos;
          match Hashtbl.find_opt candidate id with
          | Some eid when p < max_cone_vars ->
              let v = !nv in
              eid_of_var.(v) <- eid;
              incr nv;
              v
          | _ -> -1
        end
      in
      let b =
        if Ifg.is_disj g id then
          Ifg.fold_parents g id
            (fun acc p -> Bdd.bdd_or m acc (compute p))
            (Bdd.bdd_false m)
        else
          let self = if vself >= 0 then Bdd.var m vself else Bdd.bdd_true m in
          Ifg.fold_parents g id
            (fun acc p -> Bdd.bdd_and m acc (compute p))
            self
      in
      abdd.(id) <- b;
      b
    end
  in
  let b = compute t in
  let cone_strong = ref Element.Id_set.empty in
  List.iter
    (fun v -> cone_strong := Element.Id_set.add eid_of_var.(v) !cone_strong)
    (Bdd.essential_vars m b);
  flush_bdd_metrics m before;
  (!cone_strong, n_vars, Bdd.node_count m)

let run ?(disjfree_heuristic = true) ?(pool = Netcov_parallel.Pool.sequential)
    g ~tested =
  T.with_span "label" ~args:[ ("tested", T.I (List.length tested)) ]
  @@ fun () ->
  let t0 = Netcov_obs.Timing.now () in
  let pre_strong =
    if disjfree_heuristic then disjunction_free_strong g ~tested
    else Element.Id_set.empty
  in
  let config = Ifg.config_nodes g in
  let covered =
    List.fold_left
      (fun s (_, eid) -> Element.Id_set.add eid s)
      Element.Id_set.empty config
  in
  (* Element ids of config nodes that still need a strong/weak verdict. *)
  let candidate = Hashtbl.create 256 in
  List.iter
    (fun (nid, eid) ->
      if not (Element.Id_set.mem eid pre_strong) then
        Hashtbl.replace candidate nid eid)
    config;
  let strong = ref pre_strong in
  let total_vars = ref 0 in
  let bdd_nodes = ref 0 in
  if Hashtbl.length candidate > 0 then begin
    let is_config = Array.make (Ifg.n_nodes g) false in
    List.iter (fun (nid, _) -> is_config.(nid) <- true) config;
    (* Forward closure of the candidate nodes: only tested facts inside
       it have any variable in their cone; the rest are skipped without
       traversal. *)
    let tainted = Array.make (Ifg.n_nodes g) false in
    let rec taint id =
      if not tainted.(id) then begin
        tainted.(id) <- true;
        Ifg.iter_children g id taint
      end
    in
    Hashtbl.iter (fun nid _ -> taint nid) candidate;
    (* Predicates are built per tested fact over its ancestor cone.
       Cones are mutually independent given the shared per-domain
       arena — the graph, [is_config], [candidate] and [tainted] are
       only read from here on — so they fan out over the pool, one
       task per cone (an idle domain pops the next cone, so every
       domain stays busy until the last one finishes). The per-cone
       merge below is a set union / max fold, order independent, so the
       merged result is identical at any domain count. *)
    let label_one t =
      T.with_span "label.cone" @@ fun () ->
      M.inc m_cones 1;
      let a = get_arena () in
      ensure_scratch a (Ifg.n_nodes g);
      (* allocation-free count of the cone's config nodes and of the
         candidates among the first [max_cone_vars] of them, in
         discovery order (the cap) *)
      a.a_stamp <- a.a_stamp + 1;
      let stamp = a.a_stamp in
      let seen = a.a_seen in
      let n_config = ref 0 and n_vars = ref 0 in
      let rec count id =
        if seen.(id) <> stamp then begin
          seen.(id) <- stamp;
          if is_config.(id) then begin
            if !n_config < max_cone_vars && Hashtbl.mem candidate id then
              incr n_vars;
            incr n_config
          end;
          Ifg.iter_parents g id count
        end
      in
      count t;
      if !n_config > max_cone_vars then
        Log.warn (fun m ->
            m "cone of tested fact has %d config nodes; leaving candidates \
               past the first %d weak"
              !n_config max_cone_vars);
      let n_vars = !n_vars in
      M.observe m_cone_vars (float_of_int n_vars);
      if n_vars = 0 then (Element.Id_set.empty, 0, 0)
      else label_one_shared ~a ~g ~is_config ~candidate ~n_vars t
    in
    let work = List.filter (fun t -> tainted.(t)) tested in
    Netcov_parallel.Pool.map pool label_one work
    |> List.iter (fun (s, v, n) ->
           strong := Element.Id_set.union !strong s;
           total_vars := max !total_vars v;
           bdd_nodes := max !bdd_nodes n)
  end;
  let weak = Element.Id_set.diff covered !strong in
  let seconds = Netcov_obs.Timing.now () -. t0 in
  M.inc m_runs 1;
  M.observe m_seconds seconds;
  {
    covered;
    strong = Element.Id_set.inter !strong covered;
    weak;
    vars = !total_vars;
    bdd_nodes = !bdd_nodes;
    seconds;
  }
