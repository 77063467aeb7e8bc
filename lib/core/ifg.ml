(* Dense-id IFG core. Node identity goes through the fact interner
   (one structural hash per add, no key strings); node attributes live
   in growable parallel arrays (bdd.ml style) and adjacency in a shared
   pool of int list-cells, so building the graph allocates no per-node
   records, hashtables or cons cells on the hot path.

   List orders are part of the coverage semantics (BDD variables are
   numbered in cone-discovery order): parent/children lists enumerate
   in reverse insertion order, exactly as the historical record-based
   representation did. *)

type node_id = int
type node_kind = N_fact of Fact.t | N_disj

(* A disjunctive node is identified by its target plus its parent-id
   set (sorted uniq), as the historical "disj:<target>:<ids>" string
   key did. *)
module Disj_tbl = Hashtbl.Make (struct
  type t = int * int list

  let equal (t1, p1) (t2, p2) = Int.equal t1 t2 && List.equal Int.equal p1 p2

  let hash (t, ps) =
    List.fold_left (fun h p -> (h * 31) + p + 1) t ps land max_int
end)

type t = {
  interner : Intern.t;
  (* per-node attributes; [next] slots live *)
  mutable fact_of_node : int array;  (* fact id, or -1 for disjunctive *)
  mutable expanded : bool array;
  mutable parents_head : int array;  (* first adjacency cell, or -1 *)
  mutable children_head : int array;
  mutable next : int;
  (* shared adjacency-cell pool: cell [i] links [cell_node.(i)] into
     some node's parent or child list, continuing at [cell_next.(i)] *)
  mutable cell_node : int array;
  mutable cell_next : int array;
  mutable cells : int;
  (* fact id -> node id (dense direct index), or -1 *)
  mutable node_of_fact : int array;
  (* packed (parent, child) pairs, for idempotent add_edge *)
  edge_set : (int, unit) Hashtbl.t;
  disj_tbl : node_id Disj_tbl.t;
  mutable edges : int;
}

let create () =
  {
    interner = Intern.create ();
    fact_of_node = Array.make 1024 (-1);
    expanded = Array.make 1024 false;
    parents_head = Array.make 1024 (-1);
    children_head = Array.make 1024 (-1);
    next = 0;
    cell_node = Array.make 4096 (-1);
    cell_next = Array.make 4096 (-1);
    cells = 0;
    node_of_fact = Array.make 1024 (-1);
    edge_set = Hashtbl.create 4096;
    disj_tbl = Disj_tbl.create 256;
    edges = 0;
  }

let interner g = g.interner

let grow_array ~fill a cap =
  let bigger = Array.make (2 * cap) fill in
  Array.blit a 0 bigger 0 cap;
  bigger

let grow_nodes g =
  let cap = Array.length g.fact_of_node in
  if g.next >= cap then begin
    g.fact_of_node <- grow_array ~fill:(-1) g.fact_of_node cap;
    g.expanded <- grow_array ~fill:false g.expanded cap;
    g.parents_head <- grow_array ~fill:(-1) g.parents_head cap;
    g.children_head <- grow_array ~fill:(-1) g.children_head cap
  end

let grow_cells g =
  let cap = Array.length g.cell_node in
  if g.cells >= cap then begin
    g.cell_node <- grow_array ~fill:(-1) g.cell_node cap;
    g.cell_next <- grow_array ~fill:(-1) g.cell_next cap
  end

let ensure_fact_slot g fid =
  let cap = Array.length g.node_of_fact in
  if fid >= cap then begin
    let bigger = Array.make (max (2 * cap) (fid + 1)) (-1) in
    Array.blit g.node_of_fact 0 bigger 0 cap;
    g.node_of_fact <- bigger
  end

let alloc g fid =
  grow_nodes g;
  let id = g.next in
  g.next <- id + 1;
  g.fact_of_node.(id) <- fid;
  id

let add_fact g f =
  let fid = Intern.intern g.interner f in
  ensure_fact_slot g fid;
  let id = g.node_of_fact.(fid) in
  if id >= 0 then (id, false)
  else begin
    let id = alloc g fid in
    g.node_of_fact.(fid) <- id;
    (id, true)
  end

let find g f =
  match Intern.find g.interner f with
  | None -> None
  | Some fid ->
      if fid < Array.length g.node_of_fact && g.node_of_fact.(fid) >= 0 then
        Some g.node_of_fact.(fid)
      else None

(* Node ids stay well under 2^31, so the pair packs injectively into
   one OCaml int. *)
let pack ~parent ~child = (parent lsl 31) lor child

let push_cell g head_arr owner v =
  grow_cells g;
  let c = g.cells in
  g.cells <- c + 1;
  g.cell_node.(c) <- v;
  g.cell_next.(c) <- head_arr.(owner);
  head_arr.(owner) <- c

let add_edge g ~parent ~child =
  let key = pack ~parent ~child in
  if not (Hashtbl.mem g.edge_set key) then begin
    Hashtbl.add g.edge_set key ();
    push_cell g g.parents_head child parent;
    push_cell g g.children_head parent child;
    g.edges <- g.edges + 1
  end

let add_disj g ~target parents =
  let parent_ids = List.map (fun f -> fst (add_fact g f)) parents in
  let key = (target, List.sort_uniq Int.compare parent_ids) in
  match Disj_tbl.find_opt g.disj_tbl key with
  | Some id -> id
  | None ->
      let id = alloc g (-1) in
      Disj_tbl.add g.disj_tbl key id;
      add_edge g ~parent:id ~child:target;
      List.iter (fun p -> add_edge g ~parent:p ~child:id) parent_ids;
      id

let is_disj g id = g.fact_of_node.(id) < 0

let kind g id =
  let fid = g.fact_of_node.(id) in
  if fid < 0 then N_disj else N_fact (Intern.fact g.interner fid)

let config_eid g id =
  let fid = g.fact_of_node.(id) in
  if fid < 0 then None else Fact.is_config (Intern.fact g.interner fid)

let iter_cells g head f =
  let c = ref head in
  while !c >= 0 do
    f g.cell_node.(!c);
    c := g.cell_next.(!c)
  done

let iter_parents g id f = iter_cells g g.parents_head.(id) f
let iter_children g id f = iter_cells g g.children_head.(id) f

let fold_parents g id f init =
  let acc = ref init in
  iter_parents g id (fun p -> acc := f !acc p);
  !acc

let collect g head =
  let acc = ref [] in
  iter_cells g head (fun n -> acc := n :: !acc);
  List.rev !acc

let parents g id = collect g g.parents_head.(id)
let children g id = collect g g.children_head.(id)
let n_nodes g = g.next
let n_edges g = g.edges

let iter_nodes g f =
  for i = 0 to g.next - 1 do
    f i (kind g i)
  done

let config_nodes g =
  let acc = ref [] in
  for id = g.next - 1 downto 0 do
    match config_eid g id with
    | Some eid -> acc := (id, eid) :: !acc
    | None -> ()
  done;
  !acc

let mark_expanded g id = g.expanded.(id) <- true
let is_expanded g id = g.expanded.(id)
