(* A hand-rolled HTTP/1.1 subset: exactly what the daemon needs to speak
   with curl/netcat and its own client, nothing more.  One request per
   connection (`Connection: close` on every response), bounded header
   and body sizes, tolerant of bare-LF line endings.  Anything outside
   the subset is a structured parse failure the daemon answers with a
   classified 400 — never an uncaught exception. *)

type request = {
  meth : string;
  path : string;
  headers : (string * string) list;  (** names lower-cased *)
  body : string;
}

type read_result =
  | Request of request
  | Malformed of string
  | Too_large of string  (** headers or declared body over the cap *)

let max_header_bytes = 16 * 1024

let status_text = function
  | 200 -> "OK"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 413 -> "Content Too Large"
  | 422 -> "Unprocessable Content"
  | 429 -> "Too Many Requests"
  | 500 -> "Internal Server Error"
  | 503 -> "Service Unavailable"
  | 504 -> "Gateway Timeout"
  | 507 -> "Insufficient Storage"
  | _ -> "Status"

(* Read from [fd] until the blank line ending the header block, without
   reading past the body more than the buffer already holds. *)
let read_until_headers fd =
  let buf = Buffer.create 1024 in
  let chunk = Bytes.create 4096 in
  let rec header_end () =
    let s = Buffer.contents buf in
    let rec find i =
      if i + 1 >= String.length s then None
      else if s.[i] = '\n' && s.[i + 1] = '\n' then Some (i + 2)
      else if
        i + 3 < String.length s
        && s.[i] = '\r' && s.[i + 1] = '\n' && s.[i + 2] = '\r' && s.[i + 3] = '\n'
      then Some (i + 4)
      else find (i + 1)
    in
    find 0
  and loop () =
    match header_end () with
    | Some stop -> Some (Buffer.contents buf, stop)
    | None ->
        if Buffer.length buf > max_header_bytes then None
        else
          let n = Unix.read fd chunk 0 (Bytes.length chunk) in
          if n = 0 then None
          else begin
            Buffer.add_subbytes buf chunk 0 n;
            loop ()
          end
  in
  loop ()

let split_lines s =
  String.split_on_char '\n' s
  |> List.map (fun l ->
         if l <> "" && l.[String.length l - 1] = '\r' then
           String.sub l 0 (String.length l - 1)
         else l)

let parse_headers lines =
  List.filter_map
    (fun line ->
      match String.index_opt line ':' with
      | None -> None
      | Some i ->
          Some
            ( String.lowercase_ascii (String.trim (String.sub line 0 i)),
              String.trim
                (String.sub line (i + 1) (String.length line - i - 1)) ))
    lines

let header name req = List.assoc_opt name req.headers

let read_body fd ~already ~length =
  let buf = Buffer.create length in
  Buffer.add_string buf already;
  let chunk = Bytes.create 65536 in
  let rec loop () =
    if Buffer.length buf >= length then
      String.sub (Buffer.contents buf) 0 length
    else
      let n = Unix.read fd chunk 0 (Bytes.length chunk) in
      if n = 0 then Buffer.contents buf (* short body: caller validates *)
      else begin
        Buffer.add_subbytes buf chunk 0 n;
        loop ()
      end
  in
  loop ()

let read_request ~max_body fd =
  match read_until_headers fd with
  | exception Unix.Unix_error (e, _, _) ->
      Malformed ("read failed: " ^ Unix.error_message e)
  | None -> Malformed "missing or oversized header block"
  | Some (raw, stop) -> (
      let header_text = String.sub raw 0 stop in
      let already = String.sub raw stop (String.length raw - stop) in
      match split_lines header_text with
      | [] -> Malformed "empty request"
      | request_line :: rest -> (
          match String.split_on_char ' ' request_line with
          | [ meth; path; version ]
            when meth <> "" && path <> "" && path.[0] = '/'
                 && (version = "HTTP/1.1" || version = "HTTP/1.0") -> (
              let headers = parse_headers rest in
              let req = { meth; path; headers; body = "" } in
              match header "content-length" req with
              | None ->
                  if already = "" then Request req
                  else Malformed "body without Content-Length"
              | Some l -> (
                  match int_of_string_opt (String.trim l) with
                  | None -> Malformed ("bad Content-Length " ^ l)
                  | Some n when n < 0 -> Malformed "negative Content-Length"
                  | Some n when n > max_body ->
                      Too_large
                        (Printf.sprintf "body of %d bytes exceeds the %d cap" n
                           max_body)
                  | Some n ->
                      let body = read_body fd ~already ~length:n in
                      if String.length body < n then
                        Malformed "connection closed mid-body"
                      else Request { req with body }))
          | _ -> Malformed ("bad request line " ^ String.escaped request_line)))

let write_all fd s =
  let b = Bytes.of_string s in
  let rec loop off =
    if off < Bytes.length b then
      let n = Unix.write fd b off (Bytes.length b - off) in
      loop (off + n)
  in
  loop 0

let write_response fd ~status ?(headers = []) ~body () =
  let buf = Buffer.create (String.length body + 256) in
  Printf.bprintf buf "HTTP/1.1 %d %s\r\n" status (status_text status);
  Printf.bprintf buf "Content-Type: application/json\r\n";
  Printf.bprintf buf "Content-Length: %d\r\n" (String.length body);
  List.iter (fun (k, v) -> Printf.bprintf buf "%s: %s\r\n" k v) headers;
  Printf.bprintf buf "Connection: close\r\n\r\n";
  Buffer.add_string buf body;
  try write_all fd (Buffer.contents buf)
  with Unix.Unix_error _ -> () (* peer went away; its loss *)

(* --- JSON rendering (strings carry whole prototxt scripts) ------------- *)

let json_escape = Db_util.Minijson.escape

let error_body ~cls ~message =
  Printf.sprintf "{\"status\":\"error\",\"class\":%S,\"message\":\"%s\"}" cls
    (json_escape message)

let shed_body ~retry_after_s =
  Printf.sprintf "{\"status\":\"shed\",\"retry_after_s\":%d}" retry_after_s

(* --- Minimal blocking client (tests, bench, CLI examples) --------------- *)

let request ?(host = "127.0.0.1") ~port ~meth ~path ?(headers = [])
    ?(body = "") () =
  (* A server that sheds before reading closes our write side early; the
     response is still coming, so an EPIPE mid-send must not kill us. *)
  ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore);
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd
        (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
      let buf = Buffer.create 256 in
      Printf.bprintf buf "%s %s HTTP/1.1\r\nHost: %s\r\n" meth path host;
      List.iter (fun (k, v) -> Printf.bprintf buf "%s: %s\r\n" k v) headers;
      if body <> "" || meth = "POST" then
        Printf.bprintf buf "Content-Length: %d\r\n" (String.length body);
      Buffer.add_string buf "\r\n";
      Buffer.add_string buf body;
      (try write_all fd (Buffer.contents buf) with Unix.Unix_error _ -> ());
      (* Responses always close the connection: read to EOF. *)
      let resp = Buffer.create 1024 in
      let chunk = Bytes.create 65536 in
      (* A server that answers-and-closes before consuming our whole body
         (oversized uploads, sheds) RSTs the connection once its receive
         buffer still holds data; whatever response bytes arrived before
         the reset are the answer. *)
      let rec drain () =
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> ()
        | n ->
            Buffer.add_subbytes resp chunk 0 n;
            drain ()
        | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> ()
      in
      drain ();
      let raw = Buffer.contents resp in
      let status =
        match String.split_on_char ' ' raw with
        | _ :: code :: _ -> ( match int_of_string_opt code with Some c -> c | None -> 0)
        | _ -> 0
      in
      let body =
        let rec find i =
          if i + 1 >= String.length raw then String.length raw
          else if raw.[i] = '\n' && raw.[i + 1] = '\n' then i + 2
          else if
            i + 3 < String.length raw
            && raw.[i] = '\r' && raw.[i + 1] = '\n' && raw.[i + 2] = '\r'
            && raw.[i + 3] = '\n'
          then i + 4
          else find (i + 1)
        in
        let start = find 0 in
        String.sub raw start (String.length raw - start)
      in
      (status, body))
