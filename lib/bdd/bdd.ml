(* Nodes live in growable parallel arrays; ids 0 and 1 are the FALSE and
   TRUE terminals. Structural uniqueness is enforced through the unique
   table, so equality of handles is integer equality.

   The manager is built to be *persistent*: the labeling engine keeps
   one arena per worker domain alive across many cones and suites
   (lib/core/label.ml) instead of creating a throwaway manager per
   cone. Three features support that lifecycle:

   - The apply cache is two-way set-associative and sized once, at
     [create]: a colliding insert evicts only the older of its set's
     two entries (direct mapping thrashed once distinct live pairs
     outnumbered slots).
   - [reset] drops every node and empties the cache in place, so an
     arena can be cut back between tasks rather than growing
     monotonically.
   - [essential_vars] computes every necessary variable of a node in
     one bottom-up pass, replacing the per-variable [is_necessary]
     restrict loop (kept as the differential reference).

   Cache keys are a single packed int: 3 bits of op code, 29 bits per
   operand (node id or variable index). *)

type node = int

type manager = {
  mutable var_ : int array;
  mutable lo : int array;
  mutable hi : int array;
  mutable next : int;
  unique : (int * int * int, int) Hashtbl.t;
  (* Two ways per set: a set s owns entries 2s and 2s+1, way 0 the
     most recently used. -1 = empty. *)
  cache_key : int array;
  cache_val : int array;
  cache_mask : int;  (* set-index mask *)
  mutable cache_hits : int;
  mutable cache_misses : int;
}

let terminal_var = max_int

(* Operands must fit in 29 bits for the packed cache key. Node ids
   reach this only past half a billion nodes (hundreds of GB of node
   arrays); variable indices are validated in [var]. *)
let max_operand = (1 lsl 29) - 1

(* Node-array capacity of a fresh manager and of one after [reset].
   [var_] starts filled with [terminal_var], which marks the two
   terminals; [mk] writes every later slot before it is read. *)
let initial_nodes = 1024

let round_pow2 n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 256

(* The default cache (2^12 entries = two 32 KiB arrays) keeps manager
   creation cheap. A persistent arena should pass a larger
   [cache_size]: the apply working set of many cones sharing
   hash-consed nodes is far bigger than the node count. *)
let create ?(cache_size = 1 lsl 12) () =
  let entries = round_pow2 cache_size in
  {
    var_ = Array.make initial_nodes terminal_var;
    lo = Array.make initial_nodes 0;
    hi = Array.make initial_nodes 0;
    next = 2;
    unique = Hashtbl.create 4096;
    cache_key = Array.make entries (-1);
    cache_val = Array.make entries 0;
    cache_mask = (entries / 2) - 1;
    cache_hits = 0;
    cache_misses = 0;
  }

type cache_stats = { hits : int; misses : int; slots : int }

let cache_stats m =
  {
    hits = m.cache_hits;
    misses = m.cache_misses;
    slots = Array.length m.cache_key;
  }

let bdd_false (_ : manager) = 0
let bdd_true (_ : manager) = 1
let is_false n = n = 0
let is_true n = n = 1
let equal (a : node) (b : node) = a = b

let slot m key =
  let h = (key * 0x9E3779B1) land max_int in
  (h lxor (h lsr 17)) land m.cache_mask

(* Insert without touching the hit/miss counters. Way 0 gets the new
   entry; the previous way-0 occupant is demoted, evicting way 1. *)
let cache_add m key v =
  let i = slot m key * 2 in
  if m.cache_key.(i) <> key then begin
    m.cache_key.(i + 1) <- m.cache_key.(i);
    m.cache_val.(i + 1) <- m.cache_val.(i)
  end;
  m.cache_key.(i) <- key;
  m.cache_val.(i) <- v;
  v

let cache_find m key =
  let i = slot m key * 2 in
  if m.cache_key.(i) = key then begin
    m.cache_hits <- m.cache_hits + 1;
    Some m.cache_val.(i)
  end
  else if m.cache_key.(i + 1) = key then begin
    (* promote to way 0 *)
    let v = m.cache_val.(i + 1) in
    m.cache_key.(i + 1) <- m.cache_key.(i);
    m.cache_val.(i + 1) <- m.cache_val.(i);
    m.cache_key.(i) <- key;
    m.cache_val.(i) <- v;
    m.cache_hits <- m.cache_hits + 1;
    Some v
  end
  else begin
    m.cache_misses <- m.cache_misses + 1;
    None
  end

let grow m =
  let cap = Array.length m.var_ in
  if m.next >= cap then begin
    let ncap = cap * 2 in
    let copy a = Array.append a (Array.make (ncap - cap) 0) in
    m.var_ <- copy m.var_;
    m.lo <- copy m.lo;
    m.hi <- copy m.hi
  end

let mk m v lo hi =
  if lo = hi then lo
  else
    match Hashtbl.find_opt m.unique (v, lo, hi) with
    | Some id -> id
    | None ->
        grow m;
        let id = m.next in
        if id > max_operand then failwith "Bdd: node id space exhausted";
        m.next <- id + 1;
        m.var_.(id) <- v;
        m.lo.(id) <- lo;
        m.hi.(id) <- hi;
        Hashtbl.add m.unique (v, lo, hi) id;
        id

let var m i =
  if i < 0 then invalid_arg "Bdd.var: negative index";
  if i > max_operand then invalid_arg "Bdd.var: index too large";
  mk m i 0 1

(* Single-int cache key: | b:29 | a:29 | op:3 |. *)
let pack op a b = (b lsl 32) lor (a lsl 3) lor op

(* op codes for the apply cache *)
let op_and = 0
let op_or = 1
let op_xor = 2
let op_not = 3

let rec apply m op a b =
  let terminal =
    if op = op_and then
      if a = 0 || b = 0 then Some 0
      else if a = 1 then Some b
      else if b = 1 then Some a
      else if a = b then Some a
      else None
    else if op = op_or then
      if a = 1 || b = 1 then Some 1
      else if a = 0 then Some b
      else if b = 0 then Some a
      else if a = b then Some a
      else None
    else if a = b then Some 0
    else if a = 0 then Some b
    else if b = 0 then Some a
    else None
  in
  match terminal with
  | Some r -> r
  | None -> (
      (* commutative ops: canonicalize the key *)
      let a, b = if a <= b then (a, b) else (b, a) in
      let key = pack op a b in
      match cache_find m key with
      | Some r -> r
      | None ->
          let va = m.var_.(a) and vb = m.var_.(b) in
          let v = min va vb in
          let a_lo, a_hi = if va = v then (m.lo.(a), m.hi.(a)) else (a, a) in
          let b_lo, b_hi = if vb = v then (m.lo.(b), m.hi.(b)) else (b, b) in
          let r = mk m v (apply m op a_lo b_lo) (apply m op a_hi b_hi) in
          cache_add m key r)

let bdd_and m a b = apply m op_and a b
let bdd_or m a b = apply m op_or a b
let bdd_xor m a b = apply m op_xor a b

let rec bdd_not m a =
  if a = 0 then 1
  else if a = 1 then 0
  else
    let key = pack op_not a 0 in
    match cache_find m key with
    | Some r -> r
    | None ->
        let r = mk m m.var_.(a) (bdd_not m m.lo.(a)) (bdd_not m m.hi.(a)) in
        cache_add m key r

let conj m nodes = List.fold_left (bdd_and m) 1 nodes
let disj m nodes = List.fold_left (bdd_or m) 0 nodes

let op_restrict0 = 4
let op_restrict1 = 5

let rec restrict m n ~var:v ~value =
  if n < 2 then n
  else
    let nv = m.var_.(n) in
    if nv > v then n
    else if nv = v then if value then m.hi.(n) else m.lo.(n)
    else
      let recompute () =
        mk m nv
          (restrict m m.lo.(n) ~var:v ~value)
          (restrict m m.hi.(n) ~var:v ~value)
      in
      if v > max_operand then recompute ()
      else
        let op = if value then op_restrict1 else op_restrict0 in
        let key = pack op n v in
        match cache_find m key with
        | Some r -> r
        | None -> cache_add m key (recompute ())

let is_necessary m n ~var:v = is_false (restrict m n ~var:v ~value:false)

let support m n =
  let seen = Hashtbl.create 64 in
  let vars = Hashtbl.create 16 in
  let rec go n =
    if n >= 2 && not (Hashtbl.mem seen n) then begin
      Hashtbl.add seen n ();
      Hashtbl.replace vars m.var_.(n) ();
      go m.lo.(n);
      go m.hi.(n)
    end
  in
  go n;
  List.sort Int.compare (Hashtbl.fold (fun v () acc -> v :: acc) vars [])

(* Every necessary variable of [n] in one bottom-up pass.

   v is necessary for f when f|v<-0 = false. Over the ROBDD structure
   this satisfies a local recurrence: for an internal node
   n = (v_n, lo, hi),

     ess(n) = (ess(lo) /\ ess(hi)) \/ { v_n when lo = FALSE }

   with ess(FALSE) = all variables and ess(TRUE) = {} — for v = v_n
   the cofactor is lo itself (lo = FALSE iff necessary; v_n cannot
   appear in lo or hi by variable ordering, so the intersection never
   contributes it), and for v > v_n the cofactor
   mk(v_n, lo|v<-0, hi|v<-0) is FALSE iff both branch cofactors are.
   Variables above v_n (absent from n's support) are never necessary
   for a non-FALSE node, so bitsets over the node's support suffice.

   One DFS collects the reachable nodes and the support; a second pass
   in ascending node-id order (children are always created before
   their parents, so ids are topologically sorted) folds the bitsets —
   linear in reachable nodes, versus support × restrict traversals for
   the per-variable loop. Terminals return [], matching what the
   restrict-based loop over an empty support computed. *)
let essential_vars m root =
  if root < 2 then []
  else begin
    let seen = Hashtbl.create 256 in
    let order = ref [] in
    let rec go n =
      if n >= 2 && not (Hashtbl.mem seen n) then begin
        Hashtbl.add seen n ();
        go m.lo.(n);
        go m.hi.(n);
        (* children first: ids prepend in post-order *)
        order := n :: !order
      end
    in
    go root;
    let nodes = List.rev !order in
    (* dense indexing of the support *)
    let support_vars =
      let vars = Hashtbl.create 16 in
      List.iter (fun n -> Hashtbl.replace vars m.var_.(n) ()) nodes;
      List.sort Int.compare (Hashtbl.fold (fun v () acc -> v :: acc) vars [])
    in
    let idx = Hashtbl.create 16 in
    List.iteri (fun i v -> Hashtbl.add idx v i) support_vars;
    let nv = List.length support_vars in
    let words = (nv + 62) / 63 in
    let full = Array.make words (-1) in
    let empty = Array.make words 0 in
    let ess = Hashtbl.create 256 in
    let ess_of n =
      if n = 0 then full else if n = 1 then empty else Hashtbl.find ess n
    in
    List.iter
      (fun n ->
        let el = ess_of m.lo.(n) and eh = ess_of m.hi.(n) in
        let e = Array.make words 0 in
        for w = 0 to words - 1 do
          e.(w) <- el.(w) land eh.(w)
        done;
        if m.lo.(n) = 0 then begin
          let i = Hashtbl.find idx m.var_.(n) in
          e.(i / 63) <- e.(i / 63) lor (1 lsl (i mod 63))
        end;
        Hashtbl.add ess n e)
      nodes;
    let e = ess_of root in
    List.filteri
      (fun i _ -> e.(i / 63) land (1 lsl (i mod 63)) <> 0)
      support_vars
  end

let eval m n assignment =
  let rec go n =
    if n = 0 then false
    else if n = 1 then true
    else if assignment m.var_.(n) then go m.hi.(n)
    else go m.lo.(n)
  in
  go n

let node_count m = m.next

(* Node ids recycle after a reset, so every cache entry goes with the
   nodes; the cache keeps its size and its counters. *)
let reset m =
  m.var_ <- Array.make initial_nodes terminal_var;
  m.lo <- Array.make initial_nodes 0;
  m.hi <- Array.make initial_nodes 0;
  m.next <- 2;
  Hashtbl.reset m.unique;
  Array.fill m.cache_key 0 (Array.length m.cache_key) (-1)

let any_sat m n =
  let rec go n acc =
    if n = 0 then None
    else if n = 1 then Some (List.rev acc)
    else if m.lo.(n) <> 0 then go m.lo.(n) ((m.var_.(n), false) :: acc)
    else go m.hi.(n) ((m.var_.(n), true) :: acc)
  in
  go n []
