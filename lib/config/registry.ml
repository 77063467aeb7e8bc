type dev_info = {
  device : Device.t;
  text : string array;
  owners : Element.id option array;
  element_ids : Element.id list;
}

(* (device, element key) -> element id, compared field by field: every
   inference rule resolves its config parents here. *)
module Key_tbl = Hashtbl.Make (struct
  type t = string * Element.key

  let equal (d1, (k1 : Element.key)) (d2, (k2 : Element.key)) =
    Element.compare_etype k1.etype k2.etype = 0
    && String.equal k1.name k2.name
    && String.equal d1 d2

  let hash (d, (k : Element.key)) =
    (((Hashtbl.hash d * 31) + Hashtbl.hash k.name) * 31) + Hashtbl.hash k.etype
end)

type t = {
  infos : (string, dev_info) Hashtbl.t;
  order : string list;
  elements : Element.t array;
  by_key : Element.id Key_tbl.t;
}

let emit_for (d : Device.t) =
  match d.syntax with
  | Device.Junos -> Emit_junos.emit d
  | Device.Ios -> Emit_ios.emit d

let build devices =
  let infos = Hashtbl.create 64 in
  let by_key = Key_tbl.create 4096 in
  let elements_rev = ref [] in
  let next_id = ref 0 in
  let register (d : Device.t) (key_lines : (Element.key * int list) list) =
    List.rev_map
      (fun (ekey, lines) ->
        let id = !next_id in
        incr next_id;
        let e = { Element.id; device = d.hostname; ekey; lines = List.rev lines } in
        elements_rev := e :: !elements_rev;
        Key_tbl.replace by_key (d.hostname, ekey) id;
        id)
      (List.rev key_lines)
    |> List.rev
  in
  List.iter
    (fun (d : Device.t) ->
      if Hashtbl.mem infos d.hostname then
        invalid_arg ("Registry.build: duplicate hostname " ^ d.hostname);
      (* An external device is outside the coverage domain: it gets no
         text, so no line and no element. *)
      let text, key_owners =
        if d.is_external then ([||], [||]) else emit_for d
      in
      let owners = Array.make (Array.length text) None in
      (* Collect owned line numbers per key, in first-appearance order. *)
      let tbl : (Element.key, int list ref) Hashtbl.t = Hashtbl.create 64 in
      let order = ref [] in
      Array.iteri
        (fun i ko ->
          match ko with
          | None -> ()
          | Some k ->
              let cell =
                match Hashtbl.find_opt tbl k with
                | Some c -> c
                | None ->
                    let c = ref [] in
                    Hashtbl.add tbl k c;
                    order := k :: !order;
                    c
              in
              cell := (i + 1) :: !cell)
        key_owners;
      let key_lines = List.rev_map (fun k -> (k, !(Hashtbl.find tbl k))) !order in
      let element_ids = register d key_lines in
      (* Fill the per-line id map. *)
      Array.iteri
        (fun i ko ->
          match ko with
          | None -> ()
          | Some k -> owners.(i) <- Key_tbl.find_opt by_key (d.hostname, k))
        key_owners;
      Hashtbl.replace infos d.hostname { device = d; text; owners; element_ids })
    devices;
  {
    infos;
    order = List.map (fun (d : Device.t) -> d.hostname) devices;
    elements = Array.of_list (List.rev !elements_rev);
    by_key;
  }

let build_lenient devices =
  let seen = Hashtbl.create 16 in
  let diags = ref [] in
  let kept =
    List.filter
      (fun (d : Device.t) ->
        if Hashtbl.mem seen d.hostname then begin
          diags :=
            Netcov_diag.Diag.error ~device:d.hostname
              Netcov_diag.Diag.Duplicate_host
              (Printf.sprintf
                 "duplicate hostname %s: kept the first definition, dropped \
                  this one"
                 d.hostname)
            :: !diags;
          false
        end
        else begin
          Hashtbl.add seen d.hostname ();
          true
        end)
      devices
  in
  (build kept, List.rev !diags)

let info t host =
  match Hashtbl.find_opt t.infos host with
  | Some i -> i
  | None -> invalid_arg ("Registry: unknown device " ^ host)

let device t host = (info t host).device
let device_opt t host = Option.map (fun i -> i.device) (Hashtbl.find_opt t.infos host)
let devices t = List.map (fun h -> (info t h).device) t.order

let internal_devices t =
  List.filter (fun (d : Device.t) -> not d.is_external) (devices t)

let is_external t host = (device t host).is_external
let n_elements t = Array.length t.elements
let element t id = t.elements.(id)
let iter_elements t f = Array.iter f t.elements
let fold_elements t f acc = Array.fold_left f acc t.elements
let find t ~device key = Key_tbl.find_opt t.by_key (device, key)

let find_exn t ~device key =
  match find t ~device key with
  | Some id -> id
  | None ->
      invalid_arg
        (Format.asprintf "Registry.find_exn: %s %a not found" device
           Element.pp_key key)

let elements_of_device t host = (info t host).element_ids
let text t host = (info t host).text

let line_owner t host n =
  let i = info t host in
  if n < 1 || n > Array.length i.owners then None else i.owners.(n - 1)

let internal_infos t =
  List.filter_map
    (fun h ->
      let i = info t h in
      if i.device.is_external then None else Some i)
    t.order

let device_total_lines t host = Array.length (info t host).text

let device_considered_lines t host =
  Array.fold_left
    (fun acc o -> match o with Some _ -> acc + 1 | None -> acc)
    0 (info t host).owners

let total_lines t =
  List.fold_left (fun acc i -> acc + Array.length i.text) 0 (internal_infos t)

let considered_lines t =
  List.fold_left
    (fun acc i ->
      acc
      + Array.fold_left
          (fun n o -> match o with Some _ -> n + 1 | None -> n)
          0 i.owners)
    0 (internal_infos t)
