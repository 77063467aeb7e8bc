(* A path-compressed binary trie over prefix bits (a Patricia trie).
   Each node carries its prefix; a child's prefix is strictly more
   specific than its parent's and lies inside it, under [zero] when
   the bit after the parent's prefix is 0 and under [one] otherwise. A
   [Branch] has no binding and two non-empty children. Every node is
   therefore a bound prefix or the point where the paths of two bound
   prefixes part: n bindings take fewer than 2n nodes, and the shape
   depends only on the set of bound prefixes. *)

type 'a t =
  | Empty
  | Bind of { key : Prefix.t; value : 'a; zero : 'a t; one : 'a t }
  | Branch of { key : Prefix.t; zero : 'a t; one : 'a t }

let empty = Empty
let is_empty = function Empty -> true | Bind _ | Branch _ -> false

let rec cardinal = function
  | Empty -> 0
  | Bind { zero; one; _ } -> 1 + cardinal zero + cardinal one
  | Branch { zero; one; _ } -> cardinal zero + cardinal one

let addr p = (Prefix.addr p :> int)

(* Bit [i] of a 32-bit address, bit 0 the most significant. *)
let bit a i = (a lsr (31 - i)) land 1 = 1

(* Whether address [a] lies inside the prefix [ka]/[kl]; at [kl] = 0
   the shift by 32 clears every bit of a 32-bit address. *)
let inside ka kl a = (a lxor ka) lsr (32 - kl) = 0

(* The node for [key] whose child changed; a [Branch] left with one
   child gives way to it. *)
let branch key zero one =
  match (zero, one) with
  | Empty, t | t, Empty -> t
  | _, _ -> Branch { key; zero; one }

let bind key value zero one =
  match value with
  | Some value -> Bind { key; value; zero; one }
  | None -> branch key zero one

(* Two non-empty subtrees whose prefixes [ka] and [kb] are disjoint,
   joined under a branch at the bits they share. *)
let join ka a kb b =
  let x = addr ka and d = addr ka lxor addr kb in
  let rec shared n = if bit d n then n else shared (n + 1) in
  let n = shared 0 in
  let key = Prefix.make (Prefix.addr ka) n in
  if bit x n then Branch { key; zero = b; one = a }
  else Branch { key; zero = a; one = b }

let update p f t =
  let pa = addr p and pl = Prefix.len p in
  let rec go t =
    match t with
    | Empty -> (
        match f None with
        | None -> Empty
        | Some value -> Bind { key = p; value; zero = Empty; one = Empty })
    | Bind { key; _ } | Branch { key; _ } -> (
        let ka = addr key and kl = Prefix.len key in
        if kl = pl && ka = pa then
          match t with
          | Bind { value; zero; one; _ } -> bind key (f (Some value)) zero one
          | Branch { zero; one; _ } -> bind key (f None) zero one
          | Empty -> t
        else if kl < pl && inside ka kl pa then
          (* [p] lies in one of [t]'s subtrees; an unchanged subtree
             keeps [t] itself *)
          match t with
          | Bind { value; zero; one; _ } ->
              if bit pa kl then
                let one' = go one in
                if one' == one then t else Bind { key; value; zero; one = one' }
              else
                let zero' = go zero in
                if zero' == zero then t else Bind { key; value; zero = zero'; one }
          | Branch { zero; one; _ } ->
              if bit pa kl then
                let one' = go one in
                if one' == one then t else branch key zero one'
              else
                let zero' = go zero in
                if zero' == zero then t else branch key zero' one
          | Empty -> t
        else
          match f None with
          | None -> t
          | Some value ->
              if pl < kl && inside pa pl ka then
                (* [p] contains [t]'s prefix: the new node goes above *)
                if bit ka pl then Bind { key = p; value; zero = Empty; one = t }
                else Bind { key = p; value; zero = t; one = Empty }
              else
                join p (Bind { key = p; value; zero = Empty; one = Empty }) key t)
  in
  go t

let add p v t = update p (fun _ -> Some v) t
let remove p t = update p (fun _ -> None) t

(* Descends by the bits of [p] to the first node at least as long as
   [p]; only that node can be [p]'s. *)
let find_opt p t =
  let pa = addr p and pl = Prefix.len p in
  let rec go = function
    | Empty -> None
    | Bind { key; value; zero; one } ->
        let kl = Prefix.len key in
        if kl < pl then go (if bit pa kl then one else zero)
        else if kl = pl && addr key = pa then Some value
        else None
    | Branch { key; zero; one } ->
        let kl = Prefix.len key in
        if kl < pl then go (if bit pa kl then one else zero) else None
  in
  go t

let mem p t = find_opt p t <> None

let all_matches (a : Ipv4.t) t =
  let a = (a :> int) in
  let rec go acc = function
    | Empty -> acc
    | Bind { key; value; zero; one } ->
        let kl = Prefix.len key in
        if not (inside (addr key) kl a) then acc
        else
          let acc = (key, value) :: acc in
          if kl = 32 then acc else go acc (if bit a kl then one else zero)
    | Branch { key; zero; one } ->
        let kl = Prefix.len key in
        if not (inside (addr key) kl a) then acc
        else go acc (if bit a kl then one else zero)
  in
  go [] t

let longest_match (a : Ipv4.t) t =
  let a = (a :> int) in
  (* [best] is the deepest binding seen that contains [a] *)
  let rec go best t =
    match t with
    | Empty -> best
    | Bind { key; zero; one; _ } ->
        let kl = Prefix.len key in
        if not (inside (addr key) kl a) then best
        else if kl = 32 then t
        else go t (if bit a kl then one else zero)
    | Branch { key; zero; one } ->
        let kl = Prefix.len key in
        if not (inside (addr key) kl a) then best
        else go best (if bit a kl then one else zero)
  in
  match go Empty t with
  | Bind { key; value; _ } -> Some (key, value)
  | Empty | Branch _ -> None

(* Pre-order, [zero] before [one]: ascending in [Prefix.compare], since
   a prefix sorts before every prefix inside it. *)
let rec fold f t acc =
  match t with
  | Empty -> acc
  | Bind { key; value; zero; one } -> fold f one (fold f zero (f key value acc))
  | Branch { zero; one; _ } -> fold f one (fold f zero acc)

let rec iter f = function
  | Empty -> ()
  | Bind { key; value; zero; one } ->
      f key value;
      iter f zero;
      iter f one
  | Branch { zero; one; _ } ->
      iter f zero;
      iter f one

let to_list t = List.rev (fold (fun p v acc -> (p, v) :: acc) t [])
let of_list l = List.fold_left (fun t (p, v) -> add p v t) empty l

let subsumed p t =
  let pa = addr p and pl = Prefix.len p in
  (* the subtree holding every prefix inside [p] *)
  let rec descend t =
    match t with
    | Empty -> Empty
    | Bind { key; zero; one; _ } | Branch { key; zero; one } ->
        let kl = Prefix.len key in
        if kl >= pl then (if inside pa pl (addr key) then t else Empty)
        else if not (inside (addr key) kl pa) then Empty
        else descend (if bit pa kl then one else zero)
  in
  to_list (descend t)

let rec map f = function
  | Empty -> Empty
  | Bind { key; value; zero; one } ->
      let value = f value in
      Bind { key; value; zero = map f zero; one = map f one }
  | Branch { key; zero; one } -> Branch { key; zero = map f zero; one = map f one }

let key_of = function
  | Bind { key; _ } | Branch { key; _ } -> key
  | Empty -> invalid_arg "Prefix_trie.key_of"

let zero_of = function
  | Bind { zero; _ } | Branch { zero; _ } -> zero
  | Empty -> Empty

let one_of = function
  | Bind { one; _ } | Branch { one; _ } -> one
  | Empty -> Empty

(* One simultaneous walk, accumulating in reverse {!to_list} order; a
   pair of physically equal subtrees holds equal bindings, so it is
   skipped without descending. *)
let diff eq a b =
  let all t acc = fold (fun k _ acc -> k :: acc) t acc in
  let own t acc = match t with Bind { key; _ } -> key :: acc | _ -> acc in
  let rec go a b acc =
    if a == b then acc
    else
      match (a, b) with
      | Empty, t | t, Empty -> all t acc
      | _, _ ->
          let ka = key_of a and kb = key_of b in
          let la = Prefix.len ka and lb = Prefix.len kb in
          if la = lb && addr ka = addr kb then
            let acc =
              match (a, b) with
              | Bind x, Bind y -> if eq x.value y.value then acc else ka :: acc
              | Branch _, Branch _ -> acc
              | _, _ -> ka :: acc
            in
            go (one_of a) (one_of b) (go (zero_of a) (zero_of b) acc)
          else if la < lb && inside (addr ka) la (addr kb) then
            (* [b] lies in one of [a]'s subtrees *)
            let acc = own a acc in
            if bit (addr kb) la then go (one_of a) b (all (zero_of a) acc)
            else all (one_of a) (go (zero_of a) b acc)
          else if lb < la && inside (addr kb) lb (addr ka) then
            let acc = own b acc in
            if bit (addr ka) lb then go a (one_of b) (all (zero_of b) acc)
            else all (one_of b) (go a (zero_of b) acc)
          else if Prefix.compare ka kb < 0 then all b (all a acc)
          else all a (all b acc)
  in
  List.rev (go a b [])

let rec iter_common f a b =
  match (a, b) with
  | Empty, _ | _, Empty -> ()
  | _, _ ->
      let ka = key_of a and kb = key_of b in
      let la = Prefix.len ka and lb = Prefix.len kb in
      if la = lb && addr ka = addr kb then begin
        (match (a, b) with
        | Bind x, Bind y -> f ka x.value y.value
        | _, _ -> ());
        iter_common f (zero_of a) (zero_of b);
        iter_common f (one_of a) (one_of b)
      end
      else if la < lb && inside (addr ka) la (addr kb) then
        (* [b] lies in one of [a]'s subtrees *)
        iter_common f (if bit (addr kb) la then one_of a else zero_of a) b
      else if lb < la && inside (addr kb) lb (addr ka) then
        iter_common f a (if bit (addr ka) lb then one_of b else zero_of b)

(* The shape depends only on the bound prefixes, so equal tries have
   equal shapes. *)
let rec equal eq a b =
  match (a, b) with
  | Empty, Empty -> true
  | Bind x, Bind y ->
      Prefix.equal x.key y.key && eq x.value y.value && equal eq x.zero y.zero
      && equal eq x.one y.one
  | Branch x, Branch y ->
      Prefix.equal x.key y.key && equal eq x.zero y.zero && equal eq x.one y.one
  | _, _ -> false
