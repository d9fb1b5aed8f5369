type severity = Error | Warning | Info

type t = {
  code : string;
  severity : severity;
  scope : string;
  item : string option;
  message : string;
}

let v ~code ~severity ~scope ?item message = { code; severity; scope; item; message }

let severity_name = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let errors = List.filter (fun d -> d.severity = Error)

let warnings = List.filter (fun d -> d.severity = Warning)

let infos = List.filter (fun d -> d.severity = Info)

let strictify =
  List.map (fun d ->
      if d.severity = Warning then { d with severity = Error } else d)

let rank = function Error -> 0 | Warning -> 1 | Info -> 2

let sort ds =
  List.stable_sort (fun a b -> compare (rank a.severity) (rank b.severity)) ds

let summary ds =
  Printf.sprintf "%d error(s), %d warning(s), %d info"
    (List.length (errors ds))
    (List.length (warnings ds))
    (List.length (infos ds))

let to_string d =
  Printf.sprintf "%s %s [%s]%s: %s"
    (severity_name d.severity)
    d.code d.scope
    (match d.item with Some i -> Printf.sprintf " '%s'" i | None -> "")
    d.message

let pp fmt d = Format.pp_print_string fmt (to_string d)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
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
  Printf.sprintf
    {|{"code":"%s","severity":"%s","module":"%s","item":%s,"message":"%s"}|}
    (json_escape d.code)
    (severity_name d.severity)
    (json_escape d.scope)
    (match d.item with
    | Some i -> Printf.sprintf {|"%s"|} (json_escape i)
    | None -> "null")
    (json_escape d.message)

let json_of_list ds =
  "[" ^ String.concat "," (List.map to_json ds) ^ "]"
