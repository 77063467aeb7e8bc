(** Network-wide configuration registry: every device's rendered
    configuration text, plus globally-numbered configuration elements and
    the per-line ownership map. This is what NetCov extracts via Batfish
    in the paper (§5). *)

type t

(** [build devices] renders each device with the emitter matching its
    syntax, assigns globally unique element ids, and indexes ownership.
    External (environment stub) devices are outside the coverage domain:
    they are not rendered, so they have no text, lines or registered
    elements. Raises [Invalid_argument] on duplicate hostnames. *)
val build : Device.t list -> t

(** Like {!build}, but duplicate hostnames degrade instead of raising:
    the first definition wins, each later one is dropped and reported
    as a [Duplicate_host] error diagnostic. *)
val build_lenient : Device.t list -> t * Netcov_diag.Diag.t list

val device : t -> string -> Device.t
val device_opt : t -> string -> Device.t option

(** All devices, in build order. *)
val devices : t -> Device.t list

(** Devices inside the coverage domain. *)
val internal_devices : t -> Device.t list

val is_external : t -> string -> bool

(** Number of registered elements; ids run from 0 to [n_elements - 1]. *)
val n_elements : t -> int

val element : t -> Element.id -> Element.t
val iter_elements : t -> (Element.t -> unit) -> unit
val fold_elements : t -> ('a -> Element.t -> 'a) -> 'a -> 'a

(** [find t ~device key] resolves an element id; [None] when the device
    is external or the key does not exist. *)
val find : t -> device:string -> Element.key -> Element.id option

val find_exn : t -> device:string -> Element.key -> Element.id

(** Element ids belonging to one device. *)
val elements_of_device : t -> string -> Element.id list

(** Rendered configuration lines of a device; empty for an external
    device. *)
val text : t -> string -> string array

(** [line_owner t host n] is the element owning 1-based line [n]. *)
val line_owner : t -> string -> int -> Element.id option

(** Line counts over internal devices. *)
val total_lines : t -> int

(** Lines owned by some element (the "considered" denominator). *)
val considered_lines : t -> int

val device_total_lines : t -> string -> int
val device_considered_lines : t -> string -> int
