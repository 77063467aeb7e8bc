(** The stable network state consumed by NetCov: configurations, main
    and protocol RIBs, active routing edges, and data-plane forwarding —
    everything §4's inference rules look up. *)

open Netcov_types
open Netcov_config

type t

(** [compute registry] builds the topology from interface addressing and
    runs the control plane to a fixed point.

    [down] lists failed interfaces as [(host, ifname)] pairs: they lose
    their addresses for the purposes of topology, connected routes, IGP
    and sessions, while the registry (the coverage domain) is untouched —
    this models an environmental failure, not a configuration change.

    [diags] is passed through to {!Bgp.run}: with a sink, unknown
    hostnames degrade to external stubs and are reported instead of
    raising. *)
val compute :
  ?max_rounds:int ->
  ?diags:(Netcov_diag.Diag.t -> unit) ->
  ?down:(string * string) list ->
  Registry.t ->
  t

(** [recompute ?diags ~prev registry] returns what
    [compute ?diags registry] returns. When [prev] came from {!compute}
    or [recompute] at the default round cap with no failed interfaces,
    [diags] is given exactly when it was for [prev], [registry] holds
    [prev]'s hosts in [prev]'s order, and every device has the
    {!Netcov_config.Device.behaviour} of [prev]'s, no simulation input
    moved: the result is [prev]'s simulation over [registry] (RIBs,
    edges, topology and rounds, physically shared), and the diagnostics
    [prev]'s simulation emitted are emitted again to [diags]. Each such
    reuse counts in the [sim.reused] metric. Otherwise it computes from
    scratch.

    It never warm-starts the fixed point: a warm run equals a scratch
    run only where the fixed point is unique (see {!update_devices}),
    and this function must equal {!compute} on every input. *)
val recompute :
  ?diags:(Netcov_diag.Diag.t -> unit) -> prev:t -> Registry.t -> t

(** [routes_equal a b] holds when [a] and [b] have the same hosts and
    internal hosts, the same routing edges, and every internal host
    the same main, BGP and IGP RIB entries. Tables that the two states
    share physically (a {!recompute} reuse shares all of them) compare
    in O(1). *)
val routes_equal : t -> t -> bool

(** [update_devices prev devices] recomputes the stable state for raw
    device configurations [devices], warm-started from [prev]: the BGP
    fixed point is seeded with [prev]'s converged tables and only the
    cone affected by the device edits is replayed (topology and IGP are
    reused when no edited device touches its interface stanzas).
    [prev]'s [down] list carries over, and the {e registry} (the
    coverage domain, what {!registry} returns) remains [prev]'s — a
    simulation-level override with the same contract as [down]. Falls
    back to a cold simulation of [devices] when the host set changed.

    This is the mutant fast path: mutation coverage perturbs one device
    and asks only simulation questions of the result, so skipping
    [Registry.build] per mutant is sound and is where most of the
    per-mutant speedup comes from. The result matches {!compute}
    whenever the synchronous iteration's fixed point is unique: both
    stop at the first fixed point they reach, one from [prev]'s tables
    and one from empty tables. That holds on the fat-trees, internet2
    and the hostile corpus, differentially enforced by the
    [@mutation-smoke] gate and the [mutation-falsifiability] oracle; it
    fails for some WAN delete mutants, where scratch does not converge
    within the round cap (docs/MUTATION.md). *)
val update_devices :
  ?max_rounds:int ->
  ?diags:(Netcov_diag.Diag.t -> unit) ->
  t ->
  Device.t list ->
  t

val registry : t -> Registry.t
val topology : t -> Topology.t
val rounds : t -> int

val find_device : t -> string -> Device.t
val is_external : t -> string -> bool

val main_rib : t -> string -> Rib.main_entry Rib.table
val bgp_rib : t -> string -> Rib.bgp_entry Rib.table
val igp_rib : t -> string -> Rib.igp_entry Rib.table

(** All established directed routing edges. *)
val edges : t -> Session.edge list

(** The edge whose {!Session.edge_key} is the given key. *)
val edge_of_key : t -> string -> Session.edge option

(** [learned_edge t ~recv_host ~send_ip] is the edge over which
    [recv_host] learns routes from session address [send_ip], paired
    with its {!Session.edge_key}: Figure 4's edge lookup for a learned
    BGP route, without formatting a key per lookup. Both edge indexes
    are built once per state, so lookups from any domain need no
    lock. *)
val learned_edge :
  t -> recv_host:string -> send_ip:Ipv4.t -> (Session.edge * string) option

val edges_in : t -> string -> Session.edge list

(** Exact-prefix lookups. *)
val main_lookup : t -> string -> Prefix.t -> Rib.main_entry list

val bgp_lookup : t -> string -> Prefix.t -> Rib.bgp_entry list

(** Best entries only, Figure 3's [status='BEST'] filter. *)
val bgp_lookup_best : t -> string -> Prefix.t -> Rib.bgp_entry list

val igp_lookup : t -> string -> Prefix.t -> Rib.igp_entry list

(** Data-plane forwarding over the simulated devices (failed
    interfaces applied), the main RIBs and the topology. *)
val forward_env : t -> Forward.env

(** [trace t ~src ~dst] is {!Forward.trace} over the state's one
    forwarding value, created with the state: hop choices are computed
    once per (host, [dst]) per state, and a repeat call, including one
    made while materializing the IFG after a test traced the same pair,
    returns the physically same list. Safe to call from several domains
    at once. A {!recompute} or {!update_devices} result starts with an
    empty memo. *)
val trace : t -> src:string -> dst:Ipv4.t -> Forward.path list

(** [reachable t ~src ~dst] is true iff at least one path of
    [trace t ~src ~dst] reaches (so it reads and fills the same memo). *)
val reachable : t -> src:string -> dst:Ipv4.t -> bool

(** [owner_of_ip t ip] is the device/interface carrying [ip]. *)
val owner_of_ip : t -> Ipv4.t -> (string * string) option

(** Total entries across main RIBs of all devices (scale metric used by
    Figure 10(b)). *)
val total_main_entries : t -> int

val total_bgp_entries : t -> int

(** Hosts in the coverage domain (internal devices). *)
val internal_hosts : t -> string list

val all_hosts : t -> string list
