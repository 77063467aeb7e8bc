include QCheck2.Gen

let opt g = option ~ratio:0.5 g

(* Always [true], shrinking to [false]: paired with each list element,
   it lets the shrinker drop any element, not only the tail. *)
let keep =
  make_primitive ~gen:(fun _ -> true) ~shrink:(fun k ->
      if k then Seq.return false else Seq.empty)

let kept flagged = List.filter_map (fun (k, x) -> if k then Some x else None) flagged
let list_size size g = map kept (list_size size (pair keep g))

let sublist xs =
  map (fun flags -> kept (List.combine flags xs)) (list_repeat (List.length xs) bool)
