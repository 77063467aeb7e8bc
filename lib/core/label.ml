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

let m_gamma_hits =
  M.counter M.default
    ~help:"gamma-memo hits while translating IFG cones to BDDs"
    ~unit_:"lookups" "bdd.gamma.hits"

let m_gamma_misses =
  M.counter M.default
    ~help:"gamma-memo misses (IFG nodes translated to BDD)"
    ~unit_:"lookups" "bdd.gamma.misses"

let m_arena_nodes =
  M.gauge M.default
    ~help:"node count of the most recently used per-domain BDD arena"
    ~unit_:"nodes" "bdd.arena.nodes"

let m_arena_trims =
  M.counter M.default
    ~help:"per-domain BDD arena trims (watermark or explicit)"
    ~unit_:"trims" "bdd.arena.trims"

(* -------------------------------------------------------------------- *)
(* Per-domain BDD arena                                                  *)
(* -------------------------------------------------------------------- *)

(* One persistent hash-consed node store per worker domain, reused
   across cones, labeling passes and suites, instead of a throwaway
   manager per cone. Domain-local (Domain.DLS), so there is no locking
   on the BDD hot path.

   [a_gamma] is the cross-cone gamma memo: IFG node id -> the BDD of
   the node's derivability predicate as first translated by some cone
   of the current pass, keyed under the owning pass's context stamp
   (below), together with the variable index the owning cone assigned
   to the node. Variable numbering is strictly per-cone (see
   [label_one_shared] for why a pass-global numbering is ruled out),
   so an entry is only reused after validating that the borrowing
   cone's numbering agrees with the owner's over the node's entire
   ancestry — exact reuse, never a heuristic.

   All per-cone state lives in graph-indexed scratch arrays stamped
   per traversal, not in per-cone hash tables: on the labeling hot
   path every lookup is an array read plus a stamp compare, and a cone
   costs zero allocation beyond the BDD nodes it actually creates.
   The cross-cone memo itself is array-backed too, validated by the
   owning pass's context stamp, so entries of finished passes are
   simply never read again — there is no memo to grow or clear.

   Lifecycle: no BDD handle ever crosses a pool-task boundary (cone
   tasks return element-id sets), so the arena may be trimmed whenever
   no task is mid-flight on this domain. Each labeling task checks the
   watermark at entry — before it takes any handle — and resets the
   manager when the node store has outgrown it, bounding the
   per-domain footprint instead of growing monotonically. A trim
   recycles node ids, so it also invalidates the memo arrays (stale
   ids under a still-live context stamp must not be read back). *)
type arena = {
  a_mgr : Bdd.manager;
  (* scratch, indexed by IFG node id; a slot is live only when its
     stamp cell matches the current traversal stamp *)
  mutable a_seen : int array;  (* cone-membership DFS stamp *)
  mutable a_tstamp : int array;  (* translation stamp *)
  mutable a_bdd : Bdd.node array;  (* private gamma, under a_tstamp *)
  mutable a_ok : bool array;  (* gamma validated/shareable, under a_tstamp *)
  (* cross-cone memo, live while a_gctx matches the pass context *)
  mutable a_gctx : int array;
  mutable a_gvar : int array;
  mutable a_gbdd : Bdd.node array;
  mutable a_stamp : int;
}

(* Arena apply-cache size: the cross-cone working set of a pass is far
   larger than the arena's node count (hash-consing means one node
   participates in many distinct apply pairs), so the node-proportional
   default thrashes — worse, a gamma-memo hit hands a cone a borrowed
   BDD whose internal apply subresults the borrower never computed, so
   the cone's top-level product applies re-expand from scratch unless
   those pairs survive in the shared cache (fattree-k12 measured 91M
   apply lookups at 2^18 entries vs 79K at 2^21). Two 16 MiB arrays
   per domain, preserved across trims. *)
let arena_cache_size = 1 lsl 21

let arena_key =
  Domain.DLS.new_key (fun () ->
      {
        a_mgr = Bdd.create ~cache_size:arena_cache_size ();
        a_seen = [||];
        a_tstamp = [||];
        a_bdd = [||];
        a_ok = [||];
        a_gctx = [||];
        a_gvar = [||];
        a_gbdd = [||];
        a_stamp = 0;
      })

(* Grow the scratch to cover [n] IFG nodes. Fresh stamp cells start at
   0 / -1, which no live stamp ever equals, so old arrays need no
   copying. *)
let ensure_scratch a n =
  if Array.length a.a_seen < n then begin
    let zero = Bdd.bdd_false a.a_mgr in
    a.a_seen <- Array.make n 0;
    a.a_tstamp <- Array.make n 0;
    a.a_bdd <- Array.make n zero;
    a.a_ok <- Array.make n false;
    a.a_gctx <- Array.make n (-1);
    a.a_gvar <- Array.make n (-1);
    a.a_gbdd <- Array.make n zero
  end

(* Default: ~1M nodes per domain. Three 8 MiB node arrays plus the
   unique table and apply cache — tens of MiB per domain, far below
   the GiB-scale peak of per-cone managers on fattree-k16. *)
let default_watermark = 1 lsl 20
let arena_watermark = Atomic.make default_watermark

let set_arena_watermark n =
  if n < 2 then invalid_arg "Label.set_arena_watermark";
  Atomic.set arena_watermark n

let do_trim a =
  Bdd.reset a.a_mgr;
  (* node ids recycle across a reset: entries of still-live passes
     must not resolve to recycled ids *)
  Array.fill a.a_gctx 0 (Array.length a.a_gctx) (-1);
  M.inc m_arena_trims 1

(* Fetch this domain's arena, trimming first if it is over the
   watermark. Only called at task entry, when no handle is live. *)
let get_arena () =
  let a = Domain.DLS.get arena_key in
  if Bdd.node_count a.a_mgr > Atomic.get arena_watermark then do_trim a;
  a

let trim_arena () =
  let a = Domain.DLS.get arena_key in
  if Bdd.node_count a.a_mgr > 2 then do_trim a;
  M.set m_arena_nodes (float_of_int (Bdd.node_count a.a_mgr))

let arena_node_count () =
  Bdd.node_count (Domain.DLS.get arena_key).a_mgr

(* Context stamp, one per labeling pass. Gamma BDDs are only shareable
   within a pass (the candidate set is per-pass), so memo slots carry
   the stamp of the pass that wrote them; entries of finished passes
   are never read again. Stamps also isolate passes that interleave on
   one domain when suite-level tasks nest — an interleaved pass evicts
   slot by slot, costing misses, never wrong reuse. *)
let ctx_counter = Atomic.make 0

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
   cone's own discovery order is known to keep them linear, so every
   cone keeps its own order and the cross-cone memo must prove order
   agreement before reuse.

   The per-cone variable cap takes the same order: it numbers config
   nodes as they are discovered, and only candidates numbered below
   [max_cone_vars] get a variable; the rest stand for constant true,
   so they stay weak. Pre-strong nodes take a position too, so a
   cone's capped prefix does not depend on which of its nodes other
   tested facts made pre-strong: setting a variable to true never
   changes which other variables of a monotone predicate are
   essential, so labels inside the budget are the same in any graph
   that contains the cone.

   The proof is the [ok] flag threaded through [compute]: a shared
   entry for node [n] is reusable iff its recorded variable index
   equals this cone's index for [n] and every parent recursively
   validated. Entries are only ever written with all-validated
   ancestry, so a validated entry's BDD is definitionally the node the
   borrowing cone would have hash-consed itself — reuse is exact, and
   the per-cone results (hence reports) are the same at any domain
   count. Validation walks the ancestry with integer comparisons
   only; what a hit saves is the BDD apply work, which dominates
   translation.

   What is always shared, even when validation fails: the arena
   manager itself — hash-consed nodes (structurally identical BDDs of
   symmetric cones collapse to the same node ids) and a warm apply
   cache, with no per-cone allocate/collect churn. *)

let label_one_shared ~a ~g ~ctx ~is_config ~candidate ~n_vars t =
  let m = a.a_mgr in
  let before = Bdd.cache_stats m in
  let eid_of_var = Array.make n_vars (-1) in
  let nv = ref 0 and pos = ref 0 in
  let hits = ref 0 and misses = ref 0 in
  a.a_stamp <- a.a_stamp + 1;
  let stamp = a.a_stamp in
  let tstamp = a.a_tstamp
  and abdd = a.a_bdd
  and aok = a.a_ok
  and gctx = a.a_gctx
  and gvar = a.a_gvar
  and gbdd = a.a_gbdd in
  (* One pre-order recursion does numbering and translation: a node's
     cone-local variable is assigned at first visit, before its
     parents are entered. Back edges (impossible in a well-formed IFG)
     read the in-progress marker (true, unvalidated) and stay out of
     the shared memo. *)
  let rec compute id =
    if tstamp.(id) = stamp then (abdd.(id), aok.(id))
    else begin
      tstamp.(id) <- stamp;
      abdd.(id) <- Bdd.bdd_true m;
      aok.(id) <- false;
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
      let parents_ok =
        Ifg.fold_parents g id (fun acc p -> snd (compute p) && acc) true
      in
      let b, ok =
        if parents_ok && gctx.(id) = ctx && gvar.(id) = vself then begin
          incr hits;
          (gbdd.(id), true)
        end
        else begin
          incr misses;
          let b =
            if Ifg.is_disj g id then
              Ifg.fold_parents g id
                (fun acc p -> Bdd.bdd_or m acc (fst (compute p)))
                (Bdd.bdd_false m)
            else
              let self =
                if vself >= 0 then Bdd.var m vself else Bdd.bdd_true m
              in
              Ifg.fold_parents g id
                (fun acc p -> Bdd.bdd_and m acc (fst (compute p)))
                self
          in
          let ok =
            parents_ok && gctx.(id) <> ctx
            && begin
                 gctx.(id) <- ctx;
                 gvar.(id) <- vself;
                 gbdd.(id) <- b;
                 true
               end
          in
          (b, ok)
        end
      in
      abdd.(id) <- b;
      aok.(id) <- ok;
      (b, ok)
    end
  in
  let b = fst (compute t) in
  let cone_strong = ref Element.Id_set.empty in
  List.iter
    (fun v -> cone_strong := Element.Id_set.add eid_of_var.(v) !cone_strong)
    (Bdd.essential_vars m b);
  M.inc m_gamma_hits !hits;
  M.inc m_gamma_misses !misses;
  flush_bdd_metrics m before;
  (!cone_strong, n_vars, Bdd.node_count m)

let run ?(disjfree_heuristic = true) ?(pool = Netcov_parallel.Pool.sequential)
    g ~tested =
  T.with_span "label" ~args:[ ("tested", T.I (List.length tested)) ]
  @@ fun () ->
  let t0 = Timing.now () in
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
    let ctx = Atomic.fetch_and_add ctx_counter 1 in
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
      else label_one_shared ~a ~g ~ctx ~is_config ~candidate ~n_vars t
    in
    let work = List.filter (fun t -> tainted.(t)) tested in
    Netcov_parallel.Pool.map pool label_one work
    |> List.iter (fun (s, v, n) ->
           strong := Element.Id_set.union !strong s;
           total_vars := max !total_vars v;
           bdd_nodes := max !bdd_nodes n)
  end;
  let weak = Element.Id_set.diff covered !strong in
  let seconds = Timing.now () -. t0 in
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
