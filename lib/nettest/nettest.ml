open Netcov_sim
open Netcov_core

type kind = Control_plane | Data_plane

let kind_to_string = function
  | Control_plane -> "control-plane"
  | Data_plane -> "data-plane"

type outcome = { checks : int; failures : string list }

let passed o = o.failures = []

type result = { outcome : outcome; tested : Netcov.tested }
type t = { name : string; kind : kind; run : Stable_state.t -> result }

let run_suite state tests = List.map (fun t -> (t, t.run state)) tests

let suite_tested results =
  Netcov.union_tested (List.map (fun (_, r) -> r.tested) results)

let main_facts state host p =
  List.map
    (fun entry -> Fact.F_main_rib { host; entry })
    (Stable_state.main_lookup state host p)

let reachable state ~push ~src ~dst =
  let paths = Stable_state.trace state ~src ~dst in
  List.iteri
    (fun idx (p : Forward.path) ->
      if p.reached then begin
        push (Fact.F_path { src; dst; idx });
        List.iter
          (fun (h : Forward.hop) ->
            List.iter
              (fun entry -> push (Fact.F_main_rib { host = h.hop_host; entry }))
              h.hop_entries)
          p.hops
      end)
    paths;
  List.exists (fun (p : Forward.path) -> p.reached) paths
