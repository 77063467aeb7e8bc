open Netcov_types
open Netcov_config

let ip = Ipv4.of_string
let pfx = Prefix.of_string

let neighbor ?(import = []) ~description nb_ip remote_as =
  {
    Device.nb_ip = ip nb_ip;
    nb_remote_as = remote_as;
    nb_group = None;
    nb_import = import;
    nb_export = [];
    nb_local_addr = None;
    nb_next_hop_self = false;
    nb_rr_client = false;
    nb_description = Some description;
  }

let bgp ?(networks = []) ~local_as ~router_id neighbors =
  {
    Device.local_as;
    router_id = ip router_id;
    networks;
    aggregates = [];
    redistributes = [];
    groups = [];
    neighbors;
    multipath = 1;
  }

let r1 () =
  Device.make
    ~interfaces:[ Device.interface ~address:(ip "192.168.1.1", 30) "eth0" ]
    ~policies:
      [
        {
          Policy_ast.pol_name = "R2-to-R1";
          terms =
            [
              {
                term_name = "block";
                matches =
                  [ Policy_ast.Match_prefix (pfx "10.10.2.0/24", Policy_ast.Exact) ];
                actions = [ Policy_ast.Reject ];
              };
              {
                term_name = "prefer";
                matches =
                  [ Policy_ast.Match_prefix (pfx "10.10.1.0/24", Policy_ast.Exact) ];
                actions = [ Policy_ast.Set_local_pref 120; Policy_ast.Accept ];
              };
            ];
        };
      ]
    ~bgp:
      (bgp ~local_as:65001 ~router_id:"192.168.1.1"
         [ neighbor ~import:[ "R2-to-R1" ] ~description:"to R2" "192.168.1.2" 65002 ])
    "r1"

let r2 () =
  Device.make
    ~interfaces:
      [
        Device.interface ~address:(ip "192.168.1.2", 30) "eth0";
        Device.interface ~address:(ip "10.10.1.1", 24) "eth1";
      ]
    ~bgp:
      (bgp ~networks:[ pfx "10.10.1.0/24" ] ~local_as:65002 ~router_id:"192.168.1.2"
         [ neighbor ~description:"to R1" "192.168.1.1" 65001 ])
    "r2"

let devices () = [ r1 (); r2 () ]
