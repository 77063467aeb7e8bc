type reason = Falsified of string | Raised of string

type failure = {
  seed : int;
  iteration : int;
  shrink_steps : int;
  original : string;
  minimal : string;
  reason : reason;
}

type outcome = { name : string; iters : int; failure : failure option }

let passed o = o.failure = None

let reason_to_string = function
  | Falsified msg -> msg
  | Raised msg -> "exception: " ^ msg

let report o =
  match o.failure with
  | None -> Printf.sprintf "%s: ok (%d iterations)" o.name o.iters
  | Some f ->
      Printf.sprintf
        "%s: FAILED at iteration %d (reproduce with seed %d, iters 1)\n\
        \  reason: %s\n\
        \  minimal counterexample (%d shrink steps):\n\
         %s\n\
        \  original counterexample:\n\
         %s"
        o.name f.iteration f.seed
        (reason_to_string f.reason)
        f.shrink_steps
        (String.concat "\n"
           (List.map (fun l -> "    " ^ l) (String.split_on_char '\n' f.minimal)))
        (String.concat "\n"
           (List.map (fun l -> "    " ^ l) (String.split_on_char '\n' f.original)))

(* [None] = property holds. *)
let eval prop x =
  match prop x with
  | Ok () -> None
  | Error msg -> Some (Falsified msg)
  | exception e -> Some (Raised (Printexc.to_string e))

(* Greedy descent: take the first shrink candidate that still fails,
   repeat from there. [budget] bounds total candidate evaluations so a
   slow property with a deep tree cannot hang the run. *)
let shrink ~budget prop tree reason0 =
  let steps = ref 0 in
  let budget = ref budget in
  let rec descend tree reason =
    let rec first_failing seq =
      if !budget <= 0 then None
      else
        match seq () with
        | Seq.Nil -> None
        | Seq.Cons (cand, rest) -> (
            decr budget;
            match eval prop (QCheck2.Tree.root cand) with
            | Some r -> Some (cand, r)
            | None -> first_failing rest)
    in
    match first_failing (QCheck2.Tree.children tree) with
    | Some (cand, r) ->
        incr steps;
        descend cand r
    | None -> (QCheck2.Tree.root tree, reason, !steps)
  in
  descend tree reason0

let run ~name ~seed ~iters ?(max_shrinks = 1000) ~print gen prop =
  let rec go i =
    if i >= iters then { name; iters; failure = None }
    else
      (* Iteration 0 draws from the raw seed, so re-running with
         [~seed:failure.seed ~iters:1] regenerates the failing value
         exactly; later iterations draw their seed from a stream over
         (seed, i). *)
      let iter_seed =
        if i = 0 then seed
        else Random.State.bits (Random.State.make [| seed; i |])
      in
      let tree =
        Gen.generate_tree ~rand:(Random.State.make [| iter_seed |]) gen
      in
      match eval prop (QCheck2.Tree.root tree) with
      | None -> go (i + 1)
      | Some reason0 ->
          let original = print (QCheck2.Tree.root tree) in
          let minimal, reason, shrink_steps =
            shrink ~budget:max_shrinks prop tree reason0
          in
          {
            name;
            iters;
            failure =
              Some
                {
                  seed = iter_seed;
                  iteration = i;
                  shrink_steps;
                  original;
                  minimal = print minimal;
                  reason;
                };
          }
  in
  go 0

let assert_ok o = if not (passed o) then failwith (report o)
