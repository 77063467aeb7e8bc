type severity = Info | Warning | Error

let severity_to_string = function
  | Info -> "info"
  | Warning -> "warning"
  | Error -> "error"

let severity_rank = function Info -> 0 | Warning -> 1 | Error -> 2

type kind =
  | Parse_error
  | Parse_recovered
  | Duplicate_host
  | Unknown_host
  | No_convergence
  | Policy_eval
  | Sim_failure
  | Test_failure
  | Io_error
  | Internal

let kind_to_string = function
  | Parse_error -> "parse.error"
  | Parse_recovered -> "parse.recovered"
  | Duplicate_host -> "registry.duplicate-host"
  | Unknown_host -> "sim.unknown-host"
  | No_convergence -> "sim.no-convergence"
  | Policy_eval -> "sim.policy-eval"
  | Sim_failure -> "sim.failure"
  | Test_failure -> "analyze.test-failure"
  | Io_error -> "io.error"
  | Internal -> "internal"

type t = {
  severity : severity;
  kind : kind;
  message : string;
  device : string option;
  file : string option;
  line : int option;
  fact : string option;
}

let make ?device ?file ?line ?fact severity kind message =
  { severity; kind; message; device; file; line; fact }

let error ?device ?file ?line ?fact kind message =
  make ?device ?file ?line ?fact Error kind message

let warning ?device ?file ?line ?fact kind message =
  make ?device ?file ?line ?fact Warning kind message

let info ?device ?file ?line ?fact kind message =
  make ?device ?file ?line ?fact Info kind message

let to_string d =
  let where =
    match (d.file, d.line, d.device) with
    | Some f, Some l, _ -> Printf.sprintf "%s:%d: " f l
    | Some f, None, _ -> Printf.sprintf "%s: " f
    | None, _, Some dev -> Printf.sprintf "%s: " dev
    | None, _, None -> ""
  in
  Printf.sprintf "%s%s: %s" where (severity_to_string d.severity) d.message

let compare a b =
  let opt_cmp cmp a b =
    match (a, b) with
    | None, None -> 0
    | None, Some _ -> -1
    | Some _, None -> 1
    | Some x, Some y -> cmp x y
  in
  let c = opt_cmp String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = opt_cmp Int.compare a.line b.line in
    if c <> 0 then c
    else
      let c = opt_cmp String.compare a.device b.device in
      if c <> 0 then c
      else
        let c = Int.compare (severity_rank b.severity) (severity_rank a.severity) in
        if c <> 0 then c
        else
          let c = String.compare (kind_to_string a.kind) (kind_to_string b.kind) in
          if c <> 0 then c else String.compare a.message b.message

let max_severity = function
  | [] -> None
  | d :: rest ->
      Some
        (List.fold_left
           (fun acc d ->
             if severity_rank d.severity > severity_rank acc then d.severity
             else acc)
           d.severity rest)

let is_error d = d.severity = Error

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let escape_string s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_json d =
  let buf = Buffer.create 128 in
  let first = ref true in
  let field k v =
    if not !first then Buffer.add_char buf ',';
    first := false;
    Buffer.add_string buf (Printf.sprintf "\"%s\":%s" k v)
  in
  let str_field k v = field k (Printf.sprintf "\"%s\"" (escape_string v)) in
  Buffer.add_char buf '{';
  str_field "severity" (severity_to_string d.severity);
  str_field "kind" (kind_to_string d.kind);
  str_field "message" d.message;
  Option.iter (str_field "device") d.device;
  Option.iter (str_field "file") d.file;
  Option.iter (fun l -> field "line" (string_of_int l)) d.line;
  Option.iter (str_field "fact") d.fact;
  Buffer.add_char buf '}';
  Buffer.contents buf

let list_to_json ds =
  Printf.sprintf "[%s]" (String.concat "," (List.map to_json ds))

(* ------------------------------------------------------------------ *)
(* Collector                                                           *)
(* ------------------------------------------------------------------ *)

type collector = { mutex : Mutex.t; mutable rev_items : t list; mutable count : int }

let collector () = { mutex = Mutex.create (); rev_items = []; count = 0 }

let add c d =
  Mutex.lock c.mutex;
  c.rev_items <- d :: c.rev_items;
  c.count <- c.count + 1;
  Mutex.unlock c.mutex

let sink c = add c

let items c =
  Mutex.lock c.mutex;
  let out = List.rev c.rev_items in
  Mutex.unlock c.mutex;
  out

let length c = c.count
