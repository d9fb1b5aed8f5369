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

let to_json d =
  Printf.sprintf
    {|{"code":"%s","severity":"%s","module":"%s","item":%s,"message":"%s"}|}
    (Db_util.Minijson.escape d.code)
    (severity_name d.severity)
    (Db_util.Minijson.escape d.scope)
    (match d.item with
    | Some i -> Printf.sprintf {|"%s"|} (Db_util.Minijson.escape i)
    | None -> "null")
    (Db_util.Minijson.escape d.message)

let json_of_list ds =
  "[" ^ String.concat "," (List.map to_json ds) ^ "]"
