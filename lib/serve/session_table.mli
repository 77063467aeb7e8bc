(** The daemon's registry of warm networks.

    Each uploaded network owns one {!entry}: a live
    {!Netcov_incr.Incr.session} (registry, interner, BDD tables and the
    persistent targeted-simulation memo cache stay warm across
    requests), the test-suite specs registered against it, and the
    diagnostics of its most recent parse. Entries are found under a
    server-assigned id (["n1"], ["n2"], …).

    Concurrency model (documented in [docs/SERVE.md]): the table itself
    is guarded by one mutex — lookups, inserts and removals are cheap
    and serialized. Each entry carries its own lock; every handler that
    touches an entry's mutable state (analysis, suite registration,
    config update, coverage read) runs under {!with_entry}. Requests
    against {e different} networks therefore proceed in parallel on
    different pool domains, while requests against the same network
    serialize — an [Incr] session is single-writer by construction. *)

open Netcov_types

(** One registered test, as uploaded (compiled against the session's
    current stable state on every update; see [docs/SERVE.md]). *)
type test_spec =
  | Dp_upper_bound
      (** the hypothetical test inspecting every forwarding rule
          ({!Netcov_dpcov.Dpcov.all_data_plane_tested}) *)
  | Rib of { host : string; prefix : Prefix.t }
      (** the main-RIB entries of [host] covering [prefix] — what a
          data-plane test that looks up [prefix] on [host] exercises *)
  | Element of { device : string; line : int }
      (** direct control-plane coverage of the element owning the given
          configuration line of [device] *)

type suite = { su_name : string; su_tests : test_spec list }

(** One configuration file of the latest accepted upload or update: its
    text and what parsing it gave. An update that sends byte-equal text
    under the same file name reuses the device and warnings. *)
type parsed = {
  p_text : string;
  p_device : Netcov_config.Device.t;
  p_warnings : Netcov_diag.Diag.t list;
}

type entry = {
  e_id : string;
  e_name : string;
  e_syntax : [ `Junos | `Ios ];
  e_lock : Mutex.t;  (** held via {!with_entry} for all mutable access *)
  e_session : Netcov_incr.Incr.session;
  mutable e_suites : suite list;  (** registration order *)
  mutable e_diags : Netcov_diag.Diag.t list;
      (** diagnostics of the latest accepted upload/update, embedded in
          coverage reports *)
  mutable e_updates : int;  (** completed [/update] calls *)
  mutable e_parsed : (string, parsed) Hashtbl.t;
      (** by file name, the files of the latest accepted upload or
          update; replaced whole, never written in place *)
  e_created_s : float;  (** [Unix.gettimeofday] at creation *)
}

type t

(** [create ~max_networks ()] is an empty table admitting at most
    [max_networks] concurrent entries (the [serve.networks] gauge
    tracks the population). *)
val create : max_networks:int -> unit -> t

val max_networks : t -> int
val count : t -> int

(** [add t ~name ~syntax ~session ~diags ~parsed] registers a network
    under a fresh id, or [Error `Full] at capacity ([remove] frees a
    slot). *)
val add :
  t ->
  name:string ->
  syntax:[ `Junos | `Ios ] ->
  session:Netcov_incr.Incr.session ->
  diags:Netcov_diag.Diag.t list ->
  parsed:(string, parsed) Hashtbl.t ->
  (entry, [ `Full ]) result

val find : t -> string -> entry option

(** [remove t id] deletes the entry; [false] when [id] is unknown. *)
val remove : t -> string -> bool

(** Entries in id (creation) order. *)
val list : t -> entry list

(** [with_entry e f] runs [f ()] holding [e]'s lock. Not reentrant. *)
val with_entry : entry -> (unit -> 'a) -> 'a
