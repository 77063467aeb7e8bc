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

(** [trace env ~src ~dst] enumerates forwarding paths from [src] to
    [dst], branching on ECMP up to 32 paths of at most 64 hops. A path
    reaches when it arrives at a device owning [dst] or delivers onto a
    connected subnet containing it. *)
val trace : env -> src:string -> dst:Ipv4.t -> path list
