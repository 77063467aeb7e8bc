(* Shared hand-built fixture networks for simulator and core tests. *)
open Netcov_types
open Netcov_config

let ip = Ipv4.of_string
let p = Prefix.of_string

let neighbor ?(remote_as = 0) ?group ?(import = []) ?(export = []) ?local_addr
    ?(next_hop_self = false) nb_ip =
  {
    Device.nb_ip = ip nb_ip;
    nb_remote_as = remote_as;
    nb_group = group;
    nb_import = import;
    nb_export = export;
    nb_local_addr = Option.map ip local_addr;
    nb_next_hop_self = next_hop_self;
    nb_rr_client = false;
    nb_description = None;
  }

let bgp ?(networks = []) ?(aggregates = []) ?(redistributes = []) ?(groups = [])
    ?(multipath = 1) ~local_as ~router_id neighbors =
  {
    Device.local_as;
    router_id = ip router_id;
    networks = List.map p networks;
    aggregates;
    redistributes;
    groups;
    neighbors;
    multipath;
  }

(* A 3-router eBGP chain:

     a (AS 65001) --- b (AS 65002) --- c (AS 65003)
    a announces 10.10.0.0/24 via a network statement on its LAN.
    link a-b: 192.168.0.0/30 (a=.1, b=.2)
    link b-c: 192.168.0.4/30 (b=.5, c=.6) *)
let chain () =
  let a =
    Device.make
      ~interfaces:
        [
          Device.interface ~address:(ip "192.168.0.1", 30) "eth0";
          Device.interface ~address:(ip "10.10.0.1", 24) "lan0";
        ]
      ~bgp:
        (bgp ~local_as:65001 ~router_id:"1.1.1.1" ~networks:[ "10.10.0.0/24" ]
           [ neighbor ~remote_as:65002 "192.168.0.2" ])
      "a"
  in
  let b =
    Device.make
      ~interfaces:
        [
          Device.interface ~address:(ip "192.168.0.2", 30) "eth0";
          Device.interface ~address:(ip "192.168.0.5", 30) "eth1";
        ]
      ~bgp:
        (bgp ~local_as:65002 ~router_id:"2.2.2.2"
           [
             neighbor ~remote_as:65001 "192.168.0.1";
             neighbor ~remote_as:65003 "192.168.0.6";
           ])
      "b"
  in
  let c =
    Device.make
      ~interfaces:[ Device.interface ~address:(ip "192.168.0.6", 30) "eth0" ]
      ~bgp:
        (bgp ~local_as:65003 ~router_id:"3.3.3.3"
           [ neighbor ~remote_as:65002 "192.168.0.5" ])
      "c"
  in
  [ a; b; c ]

(* A 2x2 diamond with IGP and iBGP over loopbacks:

        a --- b
        |     |
        c --- d
    all in AS 65000, IGP everywhere, iBGP full mesh via loopbacks.
    a announces 10.50.0.0/24 from its LAN via a network statement. *)
let diamond ?(multipath = 1) () =
  let links =
    (* (host1, host2, subnet base) *)
    [
      ("a", "b", "192.168.10.0");
      ("a", "c", "192.168.10.4");
      ("b", "d", "192.168.10.8");
      ("c", "d", "192.168.10.12");
    ]
  in
  let lo = function
    | "a" -> "172.20.0.1"
    | "b" -> "172.20.0.2"
    | "c" -> "172.20.0.3"
    | "d" -> "172.20.0.4"
    | h -> invalid_arg h
  in
  let make host =
    let ifaces =
      List.concat
        (List.mapi
           (fun i (h1, h2, base) ->
             let addr =
               if h1 = host then Some (Ipv4.succ (ip base))
               else if h2 = host then Some (Ipv4.add (ip base) 2)
               else None
             in
             match addr with
             | None -> []
             | Some a ->
                 [
                   Device.interface ~address:(a, 30) ~igp_enabled:true
                     ~igp_metric:10
                     (Printf.sprintf "eth%d" i);
                 ])
           links)
    in
    let loopback =
      Device.interface ~address:(ip (lo host), 32) ~igp_enabled:true ~igp_metric:0
        "lo0"
    in
    let lan =
      if host = "a" then
        [ Device.interface ~address:(ip "10.50.0.1", 24) "lan0" ]
      else []
    in
    let others = List.filter (fun h -> h <> host) [ "a"; "b"; "c"; "d" ] in
    let neighbors =
      List.map
        (fun h ->
          neighbor ~remote_as:65000 ~local_addr:(lo host) ~next_hop_self:true
            (lo h))
        others
    in
    let networks = if host = "a" then [ "10.50.0.0/24" ] else [] in
    Device.make
      ~interfaces:((loopback :: ifaces) @ lan)
      ~bgp:(bgp ~local_as:65000 ~router_id:(lo host) ~networks ~multipath neighbors)
      host
  in
  List.map make [ "a"; "b"; "c"; "d" ]

let state_of devices =
  Netcov_sim.Stable_state.compute (Registry.build devices)

(* The edge whose receiver is [recv_host] and whose sender session
   address is [send_ip] — the lookup in Figure 4. *)
let edge_from state ~recv_host ~send_ip =
  List.find_opt
    (fun (e : Netcov_sim.Session.edge) ->
      e.recv_host = recv_host && Ipv4.equal e.send_ip send_ip)
    (Netcov_sim.Stable_state.edges state)
