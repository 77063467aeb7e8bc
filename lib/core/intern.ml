(* Fact interning: dense int identities for the IFG core.

   Identity mode Structural hashes the fact variant itself (Fact.hash /
   Fact.equal); By_key reproduces the historical string identity
   (Fact.key into a string-keyed table) and exists only as the
   reference side of the differential oracle and the before/after
   benchmark. The two modes assign the same ids for the same intern
   sequence because Fact.equal is pinned to the projection Fact.key
   prints.

   Single writer: one forward table plus a growable reverse array, no
   locks. The only writer is Materialize.run's sequential worklist
   (through Ifg.add_fact); labeling reads ids and facts from the pool's
   domains only after materialization has returned, and the pool's task
   hand-off orders those reads after the writes. *)

type mode = Structural | By_key

type index =
  | Structural_index of int Fact.Tbl.t
  | By_key_index of (string, int) Hashtbl.t

type t = {
  index : index;
  mutable facts : Fact.t array;  (* id -> fact; [length] slots live *)
  mutable length : int;
}

let create ?(mode = Structural) () =
  {
    index =
      (match mode with
      | Structural -> Structural_index (Fact.Tbl.create 256)
      | By_key -> By_key_index (Hashtbl.create 256));
    facts = [||];
    length = 0;
  }

let mode t =
  match t.index with Structural_index _ -> Structural | By_key_index _ -> By_key

let length t = t.length

let find t fact =
  match t.index with
  | Structural_index tbl -> Fact.Tbl.find_opt tbl fact
  | By_key_index tbl -> Hashtbl.find_opt tbl (Fact.key fact)

let push t fact =
  let id = t.length in
  if id = Array.length t.facts then begin
    let bigger = Array.make (max 256 (2 * id)) fact in
    Array.blit t.facts 0 bigger 0 id;
    t.facts <- bigger
  end;
  t.facts.(id) <- fact;
  t.length <- id + 1;
  id

let intern t fact =
  match t.index with
  | Structural_index tbl -> (
      match Fact.Tbl.find_opt tbl fact with
      | Some id -> id
      | None ->
          let id = push t fact in
          Fact.Tbl.add tbl fact id;
          id)
  | By_key_index tbl -> (
      let key = Fact.key fact in
      match Hashtbl.find_opt tbl key with
      | Some id -> id
      | None ->
          let id = push t fact in
          Hashtbl.add tbl key id;
          id)

let fact t id =
  if id < 0 || id >= t.length then
    invalid_arg (Printf.sprintf "Intern.fact: id %d out of [0, %d)" id t.length)
  else t.facts.(id)

let iter t f =
  let n = t.length in
  for id = 0 to n - 1 do
    f id t.facts.(id)
  done
