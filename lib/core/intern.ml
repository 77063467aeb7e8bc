(* Fact interning: dense int identities for the IFG core.

   Facts are identified structurally (Fact.hash / Fact.equal), which
   is pinned to the projection Fact.key prints (test/test_intern.ml).

   The index is an open-addressed slot array holding [id + 1] (0 is an
   empty slot), probed linearly. Beside the facts array, [hashes] keeps
   each id's finalized hash: a probe calls Fact.equal only on a hash
   match, and growth re-slots every id from its stored hash without
   hashing a fact again.

   Single writer, no locks. The only writer is Materialize.run's
   sequential worklist (through Ifg.add_fact); labeling reads ids and
   facts from the pool's domains only after materialization has
   returned, and the pool's task hand-off orders those reads after the
   writes. *)

type t = {
  mutable slots : int array;  (* id + 1, or 0; length a power of two *)
  mutable facts : Fact.t array;  (* id -> fact; [length] slots live *)
  mutable hashes : int array;  (* id -> finalized hash *)
  mutable length : int;
}

let create () =
  { slots = Array.make 512 0; facts = [||]; hashes = [||]; length = 0 }

let length t = t.length

(* Fact.hash folds fields as [h * 31 + v], so facts that differ only in
   a prefix's address (a multiple of 256 for a /24) agree in their low
   bits, which are the ones that pick a slot. The multiply-xorshift
   rounds spread every input bit into them. *)
let finalize h =
  let h = (h lxor (h lsr 31)) * 0x4F1BBCDCBFA53E0B in
  let h = (h lxor (h lsr 29)) * 0x2545F4914F6CDD1D in
  h lxor (h lsr 32)

(* The slot holding [fact]'s id + 1, or the empty slot where it goes. *)
let rec probe t fact h mask i =
  let s = t.slots.(i) in
  if s = 0 then i
  else if t.hashes.(s - 1) = h && Fact.equal t.facts.(s - 1) fact then i
  else probe t fact h mask ((i + 1) land mask)

let slot t fact h =
  let mask = Array.length t.slots - 1 in
  probe t fact h mask (h land mask)

let find t fact =
  let h = finalize (Fact.hash fact) in
  let s = t.slots.(slot t fact h) in
  if s = 0 then None else Some (s - 1)

(* Double the slot array, keeping the load at or under 1/2. *)
let grow t =
  let slots = Array.make (2 * Array.length t.slots) 0 in
  let mask = Array.length slots - 1 in
  for id = 0 to t.length - 1 do
    let i = ref (t.hashes.(id) land mask) in
    while slots.(!i) <> 0 do
      i := (!i + 1) land mask
    done;
    slots.(!i) <- id + 1
  done;
  t.slots <- slots

let push t fact h =
  let id = t.length in
  if id = Array.length t.facts then begin
    let cap = max 256 (2 * id) in
    let facts = Array.make cap fact and hashes = Array.make cap 0 in
    Array.blit t.facts 0 facts 0 id;
    Array.blit t.hashes 0 hashes 0 id;
    t.facts <- facts;
    t.hashes <- hashes
  end;
  t.facts.(id) <- fact;
  t.hashes.(id) <- h;
  t.length <- id + 1;
  id

let intern t fact =
  let h = finalize (Fact.hash fact) in
  let i = slot t fact h in
  let s = t.slots.(i) in
  if s <> 0 then s - 1
  else begin
    let id = push t fact h in
    t.slots.(i) <- id + 1;
    if 2 * t.length > Array.length t.slots then grow t;
    id
  end

let fact t id =
  if id < 0 || id >= t.length then
    invalid_arg (Printf.sprintf "Intern.fact: id %d out of [0, %d)" id t.length)
  else t.facts.(id)

let iter t f =
  let n = t.length in
  for id = 0 to n - 1 do
    f id t.facts.(id)
  done
