(** Network test abstraction. A test inspects the stable state (data
    plane test) or evaluates configurations directly (control plane
    test); besides pass/fail it reports {e what it tested} — the data
    plane facts and configuration elements NetCov computes coverage
    from. *)

open Netcov_sim
open Netcov_core

type kind = Control_plane | Data_plane

val kind_to_string : kind -> string

type outcome = {
  checks : int;  (** individual assertions evaluated *)
  failures : string list;
}

val passed : outcome -> bool

type result = { outcome : outcome; tested : Netcov.tested }

type t = { name : string; kind : kind; run : Stable_state.t -> result }

(** [run_suite state tests] executes every test, returning per-test
    results in order. *)
val run_suite : Stable_state.t -> t list -> (t * result) list

(** Union of everything the suite tested. *)
val suite_tested : (t * result) list -> Netcov.tested

(** Helpers for building tested-fact sets. *)

(** All main-RIB facts of [host] whose prefix equals [p]. *)
val main_facts : Stable_state.t -> string -> Netcov_types.Prefix.t -> Fact.t list

(** [reachable state ~push ~src ~dst] traces [src → dst] and passes
    [push], path by path in trace order, each reached path's
    {!Fact.F_path} and then the main-RIB facts of its hops. It returns
    true iff some path reaches. *)
val reachable :
  Stable_state.t ->
  push:(Fact.t -> unit) ->
  src:string ->
  dst:Netcov_types.Ipv4.t ->
  bool
