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
  mutable import_memo : Bgp.import_memo option;
      (* primed lazily by [prime]; always [None] on a freshly assembled
         state — a memo is only valid for warm updates seeded from the
         exact state it was primed on, so it never carries over *)
  edge_of_key : (string, Session.edge) Hashtbl.t;
  learned_edge : (string * Ipv4.t, Session.edge * string) Hashtbl.t;
      (* (recv_host, send_ip) -> edge and its key. Both edge indexes
         are built once per state and never written after, so any
         domain may read them without a lock. *)
  traces : (string * Ipv4.t, Forward.path list) Hashtbl.t;
      (* [trace] memo, filled on demand; the pool's domains share a
         state, so every access holds [trace_lock] *)
  trace_lock : Mutex.t;
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

let assemble reg down topo sim devices =
  let sim_devices = Hashtbl.create 64 in
  List.iter
    (fun (d : Device.t) -> Hashtbl.replace sim_devices d.hostname d)
    devices;
  let edge_of_key = Hashtbl.create 256 in
  let learned_edge = Hashtbl.create 256 in
  List.iter
    (fun (e : Session.edge) ->
      let key = Session.edge_key e in
      Hashtbl.replace edge_of_key key e;
      Hashtbl.replace learned_edge (e.recv_host, e.send_ip) (e, key))
    sim.Bgp.edges;
  {
    reg;
    topo;
    sim;
    sim_devices;
    down;
    import_memo = None;
    edge_of_key;
    learned_edge;
    traces = Hashtbl.create 64;
    trace_lock = Mutex.create ();
  }

let compute ?max_rounds ?diags ?(down = []) reg =
  let n_devices = List.length (Registry.devices reg) in
  Netcov_obs.Trace.with_span "simulate"
    ~args:[ ("devices", Netcov_obs.Trace.I n_devices) ]
  @@ fun () ->
  let t, dt =
    Netcov_obs.Timing.time (fun () ->
        let devices = apply_down down (Registry.devices reg) in
        let topo = Topology.build devices in
        let sim = Bgp.run ?max_rounds ?diags devices topo in
        assemble reg down topo sim devices)
  in
  record_metrics t dt

(* Warm restart: seed the BGP fixed point from [prev]'s converged
   tables and replay only the cone affected by the device edits. A
   host's round function is determined by its configuration, its
   pre-BGP main RIB, and its in-edge set, so the dirty seed is exactly
   the hosts where one of those three differs; Bgp.fixed_point then
   adds receivers of dirty senders in round one (export policies are
   evaluated receiver-side) and propagates normally. Topology and IGP
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

let update_core ?max_rounds ?diags prev reg raw_devices =
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
    compute ?max_rounds ?diags ~down:prev.down reg
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
              w_memo = prev.import_memo;
            }
          in
          let sim =
            Bgp.fixed_point ?max_rounds ?diags ~warm devices ~igp_ribs
              ~pre_mains ~edges
          in
          assemble reg prev.down topo sim devices)
    in
    record_metrics t dt

let update ?max_rounds ?diags prev reg =
  update_core ?max_rounds ?diags prev reg (Registry.devices reg)

let update_devices ?max_rounds ?diags prev devices =
  update_core ?max_rounds ?diags prev prev.reg devices

let registry t = t.reg
let topology t = t.topo
let rounds t = t.sim.rounds
let find_device t host =
  match Hashtbl.find_opt t.sim_devices host with
  | Some d -> d
  | None -> Registry.device t.reg host
let is_external t host = Registry.is_external t.reg host

(* Idempotent: prime once, then every [update]/[update_devices] seeded
   from [t] replays unchanged (edge, prefix) imports from the memo. The
   memo is immutable after priming, so a primed state can serve many
   parallel warm updates (one domain per mutant) without synchronization.
   Derived states come out with [import_memo = None] — re-prime them if
   they will seed further batches. *)
let prime t =
  match t.import_memo with
  | Some _ -> ()
  | None ->
      t.import_memo <-
        Some
          (Bgp.build_import_memo (find_device t) ~edges:t.sim.Bgp.edges
             ~pre_mains:t.sim.Bgp.pre_mains ~bgp_ribs:t.sim.Bgp.bgp_ribs)

let table_of tbl host =
  Option.value (Hashtbl.find_opt tbl host) ~default:Prefix_trie.empty

let main_rib t host = table_of t.sim.main_ribs host
let bgp_rib t host = table_of t.sim.bgp_ribs host
let igp_rib t host = table_of t.sim.igp_ribs host
let edges t = t.sim.edges

let edge_of_key t key = Hashtbl.find_opt t.edge_of_key key

let learned_edge t ~recv_host ~send_ip =
  Hashtbl.find_opt t.learned_edge (recv_host, send_ip)

let edges_in t host =
  List.filter (fun (e : Session.edge) -> e.recv_host = host) t.sim.edges

let edges_out t host =
  List.filter (fun (e : Session.edge) -> e.send_host = host) t.sim.edges

let main_lookup t host p = Rib.table_find p (main_rib t host)
let bgp_lookup t host p = Rib.table_find p (bgp_rib t host)

let bgp_lookup_best t host p =
  List.filter (fun (e : Rib.bgp_entry) -> e.be_best) (bgp_lookup t host p)

let igp_lookup t host p = Rib.table_find p (igp_rib t host)

let forward_env t =
  {
    Forward.find_device = (fun h -> Hashtbl.find_opt t.sim_devices h);
    main_rib = (fun h -> main_rib t h);
    topo = t.topo;
  }

(* Tests trace the pairs they probe, and materialization's path and
   edge rules trace them again: memoizing per state lets the rules
   reuse the test's traces. Tracing runs outside the lock; when two
   domains race on a pair, both return the first stored list. *)
let trace t ~src ~dst =
  let key = (src, dst) in
  match Mutex.protect t.trace_lock (fun () -> Hashtbl.find_opt t.traces key) with
  | Some paths -> paths
  | None ->
      let paths = Forward.trace (forward_env t) ~src ~dst in
      Mutex.protect t.trace_lock (fun () ->
          match Hashtbl.find_opt t.traces key with
          | Some first -> first
          | None ->
              Hashtbl.add t.traces key paths;
              paths)

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
