open Netcov_types
module M = Netcov_obs.Metrics

let m_networks =
  M.gauge M.default ~help:"networks currently registered with the daemon"
    ~unit_:"networks" "serve.networks"

type test_spec =
  | Dp_upper_bound
  | Rib of { host : string; prefix : Prefix.t }
  | Element of { device : string; line : int }

type suite = { su_name : string; su_tests : test_spec list }

type parsed = {
  p_text : string;
  p_device : Netcov_config.Device.t;
  p_warnings : Netcov_diag.Diag.t list;
}

type entry = {
  e_id : string;
  e_name : string;
  e_syntax : [ `Junos | `Ios ];
  e_lock : Mutex.t;
  e_session : Netcov_incr.Incr.session;
  mutable e_suites : suite list;
  mutable e_diags : Netcov_diag.Diag.t list;
  mutable e_updates : int;
  mutable e_parsed : (string, parsed) Hashtbl.t;
  e_created_s : float;
}

type t = {
  mu : Mutex.t;
  entries : (string, entry) Hashtbl.t;
  mutable next_id : int;
  cap : int;
}

let create ~max_networks () =
  { mu = Mutex.create (); entries = Hashtbl.create 16; next_id = 1;
    cap = max 1 max_networks }

let max_networks t = t.cap

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let count t = locked t (fun () -> Hashtbl.length t.entries)

let add t ~name ~syntax ~session ~diags ~parsed =
  locked t @@ fun () ->
  if Hashtbl.length t.entries >= t.cap then Error `Full
  else begin
    let id = "n" ^ string_of_int t.next_id in
    t.next_id <- t.next_id + 1;
    let e =
      {
        e_id = id;
        e_name = (if name = "" then id else name);
        e_syntax = syntax;
        e_lock = Mutex.create ();
        e_session = session;
        e_suites = [];
        e_diags = diags;
        e_updates = 0;
        e_parsed = parsed;
        e_created_s = Unix.gettimeofday ();
      }
    in
    Hashtbl.replace t.entries id e;
    M.set m_networks (float_of_int (Hashtbl.length t.entries));
    Ok e
  end

let find t id = locked t (fun () -> Hashtbl.find_opt t.entries id)

let remove t id =
  locked t @@ fun () ->
  let existed = Hashtbl.mem t.entries id in
  if existed then begin
    Hashtbl.remove t.entries id;
    M.set m_networks (float_of_int (Hashtbl.length t.entries))
  end;
  existed

(* Ids are "n<counter>", so numeric order is creation order. *)
let list t =
  locked t @@ fun () ->
  Hashtbl.fold (fun _ e acc -> e :: acc) t.entries []
  |> List.sort (fun a b ->
         let num e =
           int_of_string_opt
             (String.sub e.e_id 1 (String.length e.e_id - 1))
           |> Option.value ~default:0
         in
         compare (num a) (num b))

let with_entry e f =
  Mutex.lock e.e_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock e.e_lock) f
