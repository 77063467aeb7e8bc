open Netcov_types
open Netcov_config

type t = {
  reg : Registry.t;
  topo : Topology.t;
  sim : Bgp.result;
  (* devices as simulated: interface failures applied (the registry keeps
     the unmodified configurations for coverage) *)
  sim_devices : (string, Device.t) Hashtbl.t;
  down : (string * string) list;
  sim_diags : Netcov_diag.Diag.t list option;
      (* what a scratch simulation emitted, when it ran with a sink; a
         reused state emits these again *)
  scratch : bool;
      (* [sim] is what [compute ?diags] gives for [sim_devices]: a
         scratch run at the default round cap with no failed
         interfaces. False after a warm run of [update_devices], which
         may stop at another fixed point, so [recompute] reuses only
         scratch states *)
  edge_of_key : (string, Session.edge) Hashtbl.t;
  learned_edge : (string * Ipv4.t, Session.edge * string) Hashtbl.t;
      (* (recv_host, send_ip) -> edge and its key. Both edge indexes
         are built once per state and never written after, so any
         domain may read them without a lock. *)
  forwarding : Forward.t;
      (* over [sim_devices], [sim]'s main RIBs and [topo] *)
}

let apply_down down devices =
  if down = [] then devices
  else
    List.map
      (fun (d : Device.t) ->
        let failed ifname = List.mem (d.hostname, ifname) down in
        {
          d with
          Device.interfaces =
            List.map
              (fun (i : Device.interface) ->
                if failed i.if_name then
                  { i with Device.address = None; igp_enabled = false }
                else i)
              d.interfaces;
        })
      devices

module M = Netcov_obs.Metrics

(* Convergence metrics (docs/OBSERVABILITY.md). *)
let m_runs = M.counter M.default ~help:"stable-state computations" ~unit_:"runs" "sim.runs"

let m_rounds =
  M.counter M.default ~help:"BGP convergence rounds, summed over runs"
    ~unit_:"rounds" "sim.rounds"

let m_reused =
  M.counter M.default
    ~help:"stable states reused by a recompute after a behaviour-free edit"
    ~unit_:"states" "sim.reused"

let m_seconds =
  M.histogram M.default ~help:"wall time of one stable-state computation"
    ~unit_:"seconds" ~buckets:M.seconds_buckets "sim.seconds"

let m_rib_entries =
  M.gauge M.default ~help:"main-RIB entries in the last computed stable state"
    ~unit_:"entries" "sim.rib_entries"

let m_edges =
  M.gauge M.default ~help:"routing edges in the last computed stable state"
    ~unit_:"edges" "sim.bgp_edges"

let record_metrics t dt =
  M.inc m_runs 1;
  M.inc m_rounds t.sim.rounds;
  M.observe m_seconds dt;
  M.set m_rib_entries
    (float_of_int
       (Hashtbl.fold (fun _ table acc -> acc + Rib.table_count table) t.sim.main_ribs 0));
  M.set m_edges (float_of_int (List.length t.sim.edges));
  t

let devices_table devices =
  let t = Hashtbl.create 64 in
  List.iter (fun (d : Device.t) -> Hashtbl.replace t d.hostname d) devices;
  t

let table_of tbl host =
  Option.value (Hashtbl.find_opt tbl host) ~default:Prefix_trie.empty

let env_of sim_devices (sim : Bgp.result) topo =
  {
    Forward.find_device = Hashtbl.find_opt sim_devices;
    main_rib = table_of sim.main_ribs;
    topo;
  }

let assemble ~sim_diags ~scratch reg down topo sim devices =
  let edge_of_key = Hashtbl.create 256 in
  let learned_edge = Hashtbl.create 256 in
  List.iter
    (fun (e : Session.edge) ->
      let key = Session.edge_key e in
      Hashtbl.replace edge_of_key key e;
      Hashtbl.replace learned_edge (e.recv_host, e.send_ip) (e, key))
    sim.Bgp.edges;
  let sim_devices = devices_table devices in
  {
    reg;
    topo;
    sim;
    sim_devices;
    down;
    sim_diags;
    scratch;
    edge_of_key;
    learned_edge;
    forwarding = Forward.create (env_of sim_devices sim topo);
  }

(* [diags] passed through, keeping what it receives for the state's
   [sim_diags]. *)
let recording diags =
  let emitted = ref [] in
  let sink =
    Option.map
      (fun sink d ->
        emitted := d :: !emitted;
        sink d)
      diags
  in
  (sink, fun () -> Option.map (fun _ -> List.rev !emitted) diags)

(* A cold simulation of [raw_devices] over the coverage domain [reg]. *)
let simulate ?max_rounds ?diags ~down reg raw_devices =
  Netcov_obs.Trace.with_span "simulate"
    ~args:[ ("devices", Netcov_obs.Trace.I (List.length raw_devices)) ]
  @@ fun () ->
  let t, dt =
    Netcov_obs.Timing.time (fun () ->
        let devices = apply_down down raw_devices in
        let topo = Topology.build devices in
        let sink, emitted = recording diags in
        let sim = Bgp.run ?max_rounds ?diags:sink devices topo in
        assemble ~sim_diags:(emitted ())
          ~scratch:(max_rounds = None && down = [])
          reg down topo sim devices)
  in
  record_metrics t dt

let compute ?max_rounds ?diags ?(down = []) reg =
  simulate ?max_rounds ?diags ~down reg (Registry.devices reg)

(* Reuse needs every simulation input equal: the devices in the same
   order (Topology.build keeps the last device of a duplicated
   interface address, and IGP adds entries in device order), each
   device's behaviour, and a sink on both sides or on neither (without
   one, the simulation records no diagnostics to emit again). The
   reused state shares [prev]'s tables, topology and edge indexes; its
   devices and registry are the new ones, and its forwarding memo
   starts empty. *)
let recompute ?diags ~prev reg =
  let devices = Registry.devices reg in
  let same_behaviour (d : Device.t) =
    match Hashtbl.find_opt prev.sim_devices d.hostname with
    | Some old -> old == d || Device.behaviour old = Device.behaviour d
    | None -> false
  in
  if
    prev.scratch
    && Option.is_some diags = Option.is_some prev.sim_diags
    && List.map (fun (d : Device.t) -> d.hostname) devices
       = Topology.hosts prev.topo
    && List.for_all same_behaviour devices
  then begin
    Option.iter (fun sink -> Option.iter (List.iter sink) prev.sim_diags) diags;
    M.inc m_reused 1;
    let sim_devices = devices_table devices in
    {
      prev with
      reg;
      sim_devices;
      forwarding = Forward.create (env_of sim_devices prev.sim prev.topo);
    }
  end
  else compute ?diags reg

(* Warm restart: seed the BGP fixed point from [prev]'s converged
   tables and replay only the cone affected by the device edits. A
   host's round function is determined by its configuration, its
   pre-BGP main RIB, and its in-edge set, so the dirty seed is exactly
   the hosts where one of those three differs; Bgp.fixed_point then
   re-imports a dirty sender's whole table at its receivers in round
   one (the sender's export policies may have changed) and propagates
   only best-entry changes after that. Topology and IGP
   depend only on interface stanzas and are reused when no edited
   device touches them. Exact whenever the synchronous iteration's
   fixed point is unique — differentially gated by @mutation-smoke and
   the mutation-falsifiability oracle. *)

let main_tables_equal a b =
  Prefix_trie.equal
    (fun xs ys ->
      List.length xs = List.length ys
      && List.for_all2 (fun x y -> Rib.compare_main x y = 0) xs ys)
    a b

let edges_in_map edges =
  let t = Hashtbl.create 64 in
  List.iter
    (fun (e : Session.edge) ->
      let cur = Option.value (Hashtbl.find_opt t e.recv_host) ~default:[] in
      Hashtbl.replace t e.recv_host (cur @ [ e ]))
    edges;
  t

let update_devices ?max_rounds ?diags prev raw_devices =
  let devices = apply_down prev.down raw_devices in
  let same_hosts =
    List.length devices = Hashtbl.length prev.sim_devices
    && List.for_all
         (fun (d : Device.t) -> Hashtbl.mem prev.sim_devices d.hostname)
         devices
  in
  if not same_hosts then
    (* Host added or removed: the cheap dirty analysis below assumes a
       stable host set; fall back to a full computation. *)
    simulate ?max_rounds ?diags ~down:prev.down prev.reg raw_devices
  else
    Netcov_obs.Trace.with_span "simulate.update"
      ~args:[ ("devices", Netcov_obs.Trace.I (List.length devices)) ]
    @@ fun () ->
    let t, dt =
      Netcov_obs.Timing.time (fun () ->
          let changed =
            List.filter
              (fun (d : Device.t) ->
                match Hashtbl.find_opt prev.sim_devices d.hostname with
                | Some old -> old <> d
                | None -> true)
              devices
          in
          let ifaces_same =
            List.for_all
              (fun (d : Device.t) ->
                match Hashtbl.find_opt prev.sim_devices d.hostname with
                | Some old -> old.Device.interfaces = d.Device.interfaces
                | None -> false)
              changed
          in
          let topo, igp_ribs =
            if ifaces_same then (prev.topo, prev.sim.Bgp.igp_ribs)
            else
              let topo = Topology.build devices in
              (topo, Igp.compute devices topo)
          in
          let pre_mains =
            if ifaces_same then (
              (* IGP tables unchanged: only edited devices can see a
                 different pre-BGP main RIB. *)
              let pm = Hashtbl.copy prev.sim.Bgp.pre_mains in
              let fresh = Bgp.compute_pre_mains changed igp_ribs in
              Hashtbl.iter (fun h t -> Hashtbl.replace pm h t) fresh;
              pm)
            else Bgp.compute_pre_mains devices igp_ribs
          in
          let dirty = Hashtbl.create 16 in
          List.iter
            (fun (d : Device.t) -> Hashtbl.replace dirty d.hostname ())
            changed;
          let pre_check = if ifaces_same then changed else devices in
          List.iter
            (fun (d : Device.t) ->
              if not (Hashtbl.mem dirty d.hostname) then
                let old =
                  Option.value
                    (Hashtbl.find_opt prev.sim.Bgp.pre_mains d.hostname)
                    ~default:Prefix_trie.empty
                in
                let now =
                  Option.value
                    (Hashtbl.find_opt pre_mains d.hostname)
                    ~default:Prefix_trie.empty
                in
                if not (main_tables_equal old now) then
                  Hashtbl.replace dirty d.hostname ())
            pre_check;
          let edges =
            (* [dirty] at this point holds exactly the hosts whose
               config (interfaces included) or pre-BGP main RIB moved
               — establish_delta's [affected] contract. *)
            Session.establish_delta devices topo
              ~reach:(Bgp.reach_of pre_mains) ~affected:dirty
              ~prev:prev.sim.Bgp.edges
          in
          let prev_in = edges_in_map prev.sim.Bgp.edges in
          let now_in = edges_in_map edges in
          List.iter
            (fun (d : Device.t) ->
              if not (Hashtbl.mem dirty d.hostname) then
                let old =
                  Option.value (Hashtbl.find_opt prev_in d.hostname) ~default:[]
                in
                let now =
                  Option.value (Hashtbl.find_opt now_in d.hostname) ~default:[]
                in
                if old <> now then Hashtbl.replace dirty d.hostname ())
            devices;
          let warm =
            {
              Bgp.w_tables = prev.sim.Bgp.bgp_ribs;
              w_dirty = dirty;
              w_main_reuse = prev.sim.Bgp.main_ribs;
            }
          in
          let sim =
            Bgp.fixed_point ?max_rounds ?diags ~warm devices ~igp_ribs
              ~pre_mains ~edges
          in
          assemble ~sim_diags:None ~scratch:false prev.reg
            prev.down topo sim devices)
    in
    record_metrics t dt

let registry t = t.reg
let topology t = t.topo
let rounds t = t.sim.rounds
let find_device t host =
  match Hashtbl.find_opt t.sim_devices host with
  | Some d -> d
  | None -> Registry.device t.reg host
let is_external t host = Registry.is_external t.reg host

let main_rib t host = table_of t.sim.main_ribs host
let bgp_rib t host = table_of t.sim.bgp_ribs host
let igp_rib t host = table_of t.sim.igp_ribs host
let edges t = t.sim.edges

let edge_of_key t key = Hashtbl.find_opt t.edge_of_key key

let learned_edge t ~recv_host ~send_ip =
  Hashtbl.find_opt t.learned_edge (recv_host, send_ip)

let edges_in t host =
  List.filter (fun (e : Session.edge) -> e.recv_host = host) t.sim.edges

let main_lookup t host p = Rib.table_find p (main_rib t host)
let bgp_lookup t host p = Rib.table_find p (bgp_rib t host)

let bgp_lookup_best t host p =
  List.filter (fun (e : Rib.bgp_entry) -> e.be_best) (bgp_lookup t host p)

let igp_lookup t host p = Rib.table_find p (igp_rib t host)

let forward_env t = env_of t.sim_devices t.sim t.topo

(* Tests trace the pairs they probe, and materialization's path and
   edge rules trace them again: the state's one forwarding memo lets
   the rules reuse the test's traces. *)
let trace t ~src ~dst = Forward.trace t.forwarding ~src ~dst

let reachable t ~src ~dst =
  List.exists (fun (p : Forward.path) -> p.reached) (trace t ~src ~dst)

let owner_of_ip t ip =
  Option.map
    (fun (e : Topology.endpoint) -> (e.host, e.ifname))
    (Topology.endpoint_of_ip t.topo ip)

let total_main_entries t =
  Hashtbl.fold (fun _ table acc -> acc + Rib.table_count table) t.sim.main_ribs 0

let total_bgp_entries t =
  Hashtbl.fold (fun _ table acc -> acc + Rib.table_count table) t.sim.bgp_ribs 0

let internal_hosts t =
  List.map (fun (d : Device.t) -> d.hostname) (Registry.internal_devices t.reg)

let all_hosts t =
  List.map (fun (d : Device.t) -> d.hostname) (Registry.devices t.reg)

let routes_equal a b =
  let same_table x y = x == y || Rib.table_entries x = Rib.table_entries y in
  all_hosts a = all_hosts b
  && internal_hosts a = internal_hosts b
  && (a.sim == b.sim
     || a.sim.edges = b.sim.edges
        && List.for_all
             (fun h ->
               same_table (main_rib a h) (main_rib b h)
               && same_table (bgp_rib a h) (bgp_rib b h)
               && same_table (igp_rib a h) (igp_rib b h))
             (internal_hosts a))
