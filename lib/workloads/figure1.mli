(** The paper's Figure 1 network: two eBGP routers. [r2] originates its
    LAN 10.10.1.0/24 through a BGP network statement; [r1] imports it
    through the policy [R2-to-R1], whose [block] term rejects
    10.10.2.0/24 and whose [prefer] term accepts 10.10.1.0/24 at local
    preference 120. *)

val devices : unit -> Netcov_config.Device.t list
(** [[r1; r2]]. *)
