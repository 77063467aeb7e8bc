type severity = Info | Warning | Error

let severity_to_string = function
  | Info -> "info"
  | Warning -> "warning"
  | Error -> "error"

let severity_of_string = function
  | "info" -> Some Info
  | "warning" -> Some Warning
  | "error" -> Some Error
  | _ -> None

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

let all_kinds =
  [
    Parse_error;
    Parse_recovered;
    Duplicate_host;
    Unknown_host;
    No_convergence;
    Policy_eval;
    Sim_failure;
    Test_failure;
    Io_error;
    Internal;
  ]

let kind_of_string s =
  List.find_opt (fun k -> kind_to_string k = s) all_kinds

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

(* Minimal parser for the flat objects [to_json] emits: string and
   integer values only, no nesting. Kept dependency-free on purpose
   (this library sits below everything else in the repo). *)
let of_json s =
  let exception Bad of string in
  let fail fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt in
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while
      !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      incr pos
    done
  in
  let expect c =
    skip_ws ();
    match peek () with
    | Some c' when c' = c -> incr pos
    | Some c' -> fail "expected %C at offset %d, got %C" c !pos c'
    | None -> fail "expected %C, got end of input" c
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 32 in
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else
        match s.[!pos] with
        | '"' -> incr pos
        | '\\' ->
            incr pos;
            (if !pos >= n then fail "unterminated escape"
             else
               match s.[!pos] with
               | '"' -> Buffer.add_char buf '"'
               | '\\' -> Buffer.add_char buf '\\'
               | '/' -> Buffer.add_char buf '/'
               | 'n' -> Buffer.add_char buf '\n'
               | 't' -> Buffer.add_char buf '\t'
               | 'r' -> Buffer.add_char buf '\r'
               | 'b' -> Buffer.add_char buf '\b'
               | 'f' -> Buffer.add_char buf '\012'
               | 'u' ->
                   if !pos + 4 >= n then fail "truncated \\u escape";
                   let hex = String.sub s (!pos + 1) 4 in
                   let code =
                     match int_of_string_opt ("0x" ^ hex) with
                     | Some c -> c
                     | None -> fail "bad \\u escape %S" hex
                   in
                   if code > 0xff then fail "non-latin \\u escape %S" hex
                   else Buffer.add_char buf (Char.chr code);
                   pos := !pos + 4
               | c -> fail "bad escape \\%C" c);
            incr pos;
            go ()
        | c ->
            Buffer.add_char buf c;
            incr pos;
            go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_int () =
    skip_ws ();
    let start = !pos in
    if peek () = Some '-' then incr pos;
    while !pos < n && match s.[!pos] with '0' .. '9' -> true | _ -> false do
      incr pos
    done;
    match int_of_string_opt (String.sub s start (!pos - start)) with
    | Some v -> v
    | None -> fail "expected integer at offset %d" start
  in
  try
    expect '{';
    let fields = ref [] in
    skip_ws ();
    if peek () = Some '}' then incr pos
    else begin
      let rec members () =
        skip_ws ();
        let key = parse_string () in
        expect ':';
        skip_ws ();
        let value =
          match peek () with
          | Some '"' -> `Str (parse_string ())
          | Some ('-' | '0' .. '9') -> `Int (parse_int ())
          | _ -> fail "field %S: expected string or integer value" key
        in
        fields := (key, value) :: !fields;
        skip_ws ();
        match peek () with
        | Some ',' ->
            incr pos;
            members ()
        | Some '}' -> incr pos
        | _ -> fail "expected ',' or '}' at offset %d" !pos
      in
      members ()
    end;
    skip_ws ();
    if !pos <> n then fail "trailing input at offset %d" !pos;
    let str key =
      match List.assoc_opt key !fields with
      | Some (`Str v) -> Some v
      | Some (`Int _) -> fail "field %S: expected a string" key
      | None -> None
    in
    let int key =
      match List.assoc_opt key !fields with
      | Some (`Int v) -> Some v
      | Some (`Str _) -> fail "field %S: expected an integer" key
      | None -> None
    in
    let req key =
      match str key with Some v -> v | None -> fail "missing field %S" key
    in
    let severity =
      let v = req "severity" in
      match severity_of_string v with
      | Some sv -> sv
      | None -> fail "unknown severity %S" v
    in
    let kind =
      let v = req "kind" in
      match kind_of_string v with
      | Some k -> k
      | None -> fail "unknown kind %S" v
    in
    Ok
      {
        severity;
        kind;
        message = req "message";
        device = str "device";
        file = str "file";
        line = int "line";
        fact = str "fact";
      }
  with Bad msg -> Result.Error msg

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
