(** QCheck2's generators, with the three deviations the differential
    oracles were tuned on. Everything else is [QCheck2.Gen]'s, so a
    generator here is a [QCheck2.Gen.t] and runs under [QCheck2.Test]
    as well as under {!Check}. *)

include module type of struct
  include QCheck2.Gen
end

(** [opt g] is [None] or [Some v] at even odds (QCheck2 defaults to
    [~ratio:0.85]); shrinks towards [None]. *)
val opt : 'a t -> 'a option t

(** [list_size n g] draws the length from [n], then elements from [g].
    Shrinks by cutting the tail first, then element by element from the
    head: dropping it (QCheck2's own [list_size] only cuts the tail),
    then shrinking it. *)
val list_size : int t -> 'a t -> 'a list t

(** [sublist xs] is a random subsequence of [xs] (order preserved),
    shrinking towards the empty list. *)
val sublist : 'a list -> 'a list t
