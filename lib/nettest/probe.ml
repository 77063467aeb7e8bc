open Netcov_types
open Netcov_config
open Netcov_policy
open Netcov_sim
open Netcov_core

type t = {
  st : Stable_state.t;
  seen : unit Fact.Tbl.t;
  mutable dp_facts : Fact.t list;
  mutable cp_elements : Element.id list;
  mutable n_checks : int;
  mutable fails : string list;
}

let create st =
  {
    st;
    seen = Fact.Tbl.create 256;
    dp_facts = [];
    cp_elements = [];
    n_checks = 0;
    fails = [];
  }

let state p = p.st

let check p ok msg =
  p.n_checks <- p.n_checks + 1;
  if not ok then p.fails <- msg :: p.fails

let push p f =
  if not (Fact.Tbl.mem p.seen f) then begin
    Fact.Tbl.add p.seen f ();
    p.dp_facts <- f :: p.dp_facts
  end

let route_present p ~host prefix =
  let entries = Stable_state.main_lookup p.st host prefix in
  List.iter (fun entry -> push p (Fact.F_main_rib { host; entry })) entries;
  entries <> []

let record_bgp p host entries =
  List.iter
    (fun (e : Rib.bgp_entry) ->
      push p (Fact.F_bgp_rib { host; route = e.be_route; source = e.be_source }))
    entries;
  entries

let best_routes p ~host prefix =
  record_bgp p host (Stable_state.bgp_lookup_best p.st host prefix)

let all_routes p ~host prefix =
  record_bgp p host (Stable_state.bgp_lookup p.st host prefix)

let reachable p ~src ~dst = Nettest.reachable p.st ~push:(push p) ~src ~dst

let record_cp p host keys =
  let reg = Stable_state.registry p.st in
  List.iter
    (fun k ->
      match Registry.find reg ~device:host k with
      | Some id ->
          if not (List.mem id p.cp_elements) then
            p.cp_elements <- id :: p.cp_elements
      | None -> ())
    keys

let eval_chain p ~host ~chain route =
  let d = Stable_state.find_device p.st host in
  let { Eval.verdict; exercised; _ } =
    Eval.run_chain d ~chain ~default:Eval.Accepted route
  in
  record_cp p host exercised;
  match verdict with Eval.Accepted -> `Accepted | Eval.Rejected -> `Rejected

let find_neighbor p ~host ~neighbor =
  let d = Stable_state.find_device p.st host in
  match d.Device.bgp with
  | None -> None
  | Some b ->
      Option.map
        (fun nb -> (d, nb))
        (List.find_opt
           (fun (nb : Device.neighbor) -> Ipv4.equal nb.nb_ip neighbor)
           b.neighbors)

let import_verdict p ~host ~neighbor route =
  match find_neighbor p ~host ~neighbor with
  | None -> `Rejected
  | Some (d, nb) ->
      eval_chain p ~host ~chain:(Device.neighbor_import d nb) route

let export_verdict p ~host ~neighbor route =
  match find_neighbor p ~host ~neighbor with
  | None -> `Rejected
  | Some (d, nb) ->
      eval_chain p ~host ~chain:(Device.neighbor_export d nb) route

let tested p =
  {
    Netcov.dp_facts = List.rev p.dp_facts;
    cp_elements = List.sort_uniq Int.compare p.cp_elements;
  }

let checks p = p.n_checks
let failures p = List.rev p.fails

let to_test ~name ~kind run =
  {
    Nettest.name;
    kind;
    run =
      (fun st ->
        let p = create st in
        run p;
        {
          Nettest.outcome = { checks = p.n_checks; failures = failures p };
          tested = tested p;
        });
  }
