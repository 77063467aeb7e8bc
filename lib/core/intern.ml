(* Fact interning: dense int identities for the IFG core.

   Facts are identified structurally (Fact.hash / Fact.equal), which
   is pinned to the projection Fact.key prints (test/test_intern.ml).

   Single writer: one forward table plus a growable reverse array, no
   locks. The only writer is Materialize.run's sequential worklist
   (through Ifg.add_fact); labeling reads ids and facts from the pool's
   domains only after materialization has returned, and the pool's task
   hand-off orders those reads after the writes. *)

type t = {
  index : int Fact.Tbl.t;
  mutable facts : Fact.t array;  (* id -> fact; [length] slots live *)
  mutable length : int;
}

let create () = { index = Fact.Tbl.create 256; facts = [||]; length = 0 }
let length t = t.length
let find t fact = Fact.Tbl.find_opt t.index fact

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
  match Fact.Tbl.find_opt t.index fact with
  | Some id -> id
  | None ->
      let id = push t fact in
      Fact.Tbl.add t.index fact id;
      id

let fact t id =
  if id < 0 || id >= t.length then
    invalid_arg (Printf.sprintf "Intern.fact: id %d out of [0, %d)" id t.length)
  else t.facts.(id)

let iter t f =
  let n = t.length in
  for id = 0 to n - 1 do
    f id t.facts.(id)
  done
