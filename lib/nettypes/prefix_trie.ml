(* A plain binary trie: the path from the root encodes prefix bits, one
   level per bit. Depth is at most 32, so operations are O(32). *)

type 'a t = Leaf | Node of { value : 'a option; zero : 'a t; one : 'a t }

let empty = Leaf

let node value zero one =
  match (value, zero, one) with
  | None, Leaf, Leaf -> Leaf
  | _, _, _ -> Node { value; zero; one }

let is_empty t = t = Leaf

let rec cardinal = function
  | Leaf -> 0
  | Node { value; zero; one } ->
      (match value with Some _ -> 1 | None -> 0) + cardinal zero + cardinal one

let update p f t =
  let addr = Prefix.addr p and len = Prefix.len p in
  let rec go depth t =
    match t with
    | Leaf ->
        if depth = len then node (f None) Leaf Leaf
        else if Ipv4.bit addr depth then node None Leaf (go (depth + 1) Leaf)
        else node None (go (depth + 1) Leaf) Leaf
    | Node { value; zero; one } ->
        if depth = len then node (f value) zero one
        else if Ipv4.bit addr depth then node value zero (go (depth + 1) one)
        else node value (go (depth + 1) zero) one
  in
  go 0 t

let add p v t = update p (fun _ -> Some v) t
let remove p t = update p (fun _ -> None) t

let find_opt p t =
  let addr = Prefix.addr p and len = Prefix.len p in
  let rec go depth t =
    match t with
    | Leaf -> None
    | Node { value; zero; one } ->
        if depth = len then value
        else if Ipv4.bit addr depth then go (depth + 1) one
        else go (depth + 1) zero
  in
  go 0 t

let mem p t = find_opt p t <> None

let all_matches addr t =
  let rec go depth t acc =
    match t with
    | Leaf -> acc
    | Node { value; zero; one } ->
        let acc =
          match value with
          | Some v -> (Prefix.make addr depth, v) :: acc
          | None -> acc
        in
        if depth = 32 then acc
        else if Ipv4.bit addr depth then go (depth + 1) one acc
        else go (depth + 1) zero acc
  in
  go 0 t []

let longest_match addr t =
  match all_matches addr t with [] -> None | best :: _ -> Some best

let rec fold_at base depth f t acc =
  match t with
  | Leaf -> acc
  | Node { value; zero; one } ->
      let acc =
        match value with
        | Some v -> f (Prefix.make base depth) v acc
        | None -> acc
      in
      let acc = fold_at base (depth + 1) f zero acc in
      if depth = 32 then acc
      else
        let one_base = Ipv4.add base (1 lsl (32 - depth - 1)) in
        fold_at one_base (depth + 1) f one acc

let fold f t acc = fold_at Ipv4.zero 0 f t acc
let iter f t = fold (fun p v () -> f p v) t ()
let to_list t = List.rev (fold (fun p v acc -> (p, v) :: acc) t [])
let of_list l = List.fold_left (fun t (p, v) -> add p v t) empty l

let subsumed p t =
  let addr = Prefix.addr p and len = Prefix.len p in
  let rec descend depth t =
    match t with
    | Leaf -> Leaf
    | Node { zero; one; _ } as n ->
        if depth = len then n
        else if Ipv4.bit addr depth then descend (depth + 1) one
        else descend (depth + 1) zero
  in
  let subtree = descend 0 t in
  List.rev (fold_at addr len (fun q v acc -> (q, v) :: acc) subtree [])

let rec map f = function
  | Leaf -> Leaf
  | Node { value; zero; one } ->
      Node { value = Option.map f value; zero = map f zero; one = map f one }

(* One simultaneous walk; a pair of physically equal subtrees holds
   equal bindings, so it is skipped without descending. *)
let diff eq a b =
  let parts = function
    | Leaf -> (None, Leaf, Leaf)
    | Node { value; zero; one } -> (value, zero, one)
  in
  let rec go base depth a b acc =
    if a == b then acc
    else
      let va, za, oa = parts a and vb, zb, ob = parts b in
      let acc =
        match (va, vb) with
        | None, None -> acc
        | Some x, Some y when eq x y -> acc
        | _, _ -> Prefix.make base depth :: acc
      in
      let acc = go base (depth + 1) za zb acc in
      if depth = 32 then acc
      else go (Ipv4.add base (1 lsl (32 - depth - 1))) (depth + 1) oa ob acc
  in
  List.rev (go Ipv4.zero 0 a b [])

let equal eq a b =
  let la = to_list a and lb = to_list b in
  List.length la = List.length lb
  && List.for_all2 (fun (p, v) (q, w) -> Prefix.equal p q && eq v w) la lb
