(** Data-plane forwarding over the computed main RIBs: ECMP-aware
    traceroute with ACL evaluation and recursive next-hop resolution.
    Produces the hop-by-hop evidence behind the IFG's path facts
    ([p <- {f...}, {a...}] in Table 1). *)

open Netcov_types
open Netcov_config

type acl_use = {
  au_host : string;
  au_acl : string;
  au_rule : int option;  (** matching rule index; [None] = default *)
  au_permit : bool;
}

type hop = {
  hop_host : string;
  hop_entries : Rib.main_entry list;
      (** the forwarding entry used, then any entries consulted to
          resolve an indirect next hop *)
  hop_out_if : string option;
  hop_acls : acl_use list;
}

type path = {
  path_src : string;
  path_dst : Ipv4.t;
  hops : hop list;
  reached : bool;
}

type env = {
  find_device : string -> Device.t option;
  main_rib : string -> Rib.main_entry Rib.table;
  topo : Topology.t;
}

(** A state's forwarding: its [env] and the memos tracing fills. *)
type t

(** [create env] has empty memos. *)
val create : env -> t

(** [trace t ~src ~dst] enumerates forwarding paths from [src] to
    [dst] depth-first, branching on ECMP in main-RIB order, and keeps
    the first 32 paths; none has more than 64 hops. A path reaches when
    it arrives at a device owning [dst] or delivers onto a connected
    subnet containing it. It ends unreached where it is dropped or
    blocked by an ACL, where it would revisit a host, and where it would
    take a 65th hop.

    A hop choice at a host toward [dst] (the matched entry, the entries
    resolving its next hop, the egress interface, the ACL uses, the
    next host) is computed once per [t] and shared by every trace
    through that host, and a repeat call returns the physically same
    list. Safe to call from several domains at once: one mutex guards
    both memos, and computing runs outside it. *)
val trace : t -> src:string -> dst:Ipv4.t -> path list
