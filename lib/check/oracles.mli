(** The differential-oracle suite: each oracle is a named property that
    hunts a divergence between two implementations that must agree —
    emit vs parse, sequential vs parallel, BDD vs truth table, per-test
    merge vs union analysis, incremental vs scratch, IFG coverage vs
    mutation.

    All oracles run on {!Netgen} inputs under {!Check}, so a red oracle
    prints a shrunk counterexample and a reproduction seed. The CLI
    [netcov_cli fuzz] and the [@fuzz] dune alias both call {!run_all};
    [test/test_prop.ml] pins each oracle at a fixed seed. *)

type t = {
  name : string;
  describe : string;
  run : seed:int -> iters:int -> Check.outcome;
}

(** The seven oracles, in documentation order: ["roundtrip"],
    ["parallel-determinism"], ["bdd-truth-table"],
    ["monotonicity-merge"], ["fault-isolation"],
    ["incremental-scratch"], ["mutation-falsifiability"]. *)
val all : t list

val find : string -> t option

(** Run every oracle (or only [names]) at [seed] with [iters]
    iterations each, printing one report per oracle to [out]; [true]
    iff all passed. *)
val run_all :
  ?out:out_channel -> ?names:string list -> seed:int -> iters:int -> unit -> bool
