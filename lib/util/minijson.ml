type t =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let fail fmt = Error.failf_at ~component:"json" fmt

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

type cursor = { src : string; mutable pos : int }

let peek c = if c.pos < String.length c.src then Some c.src.[c.pos] else None

let advance c = c.pos <- c.pos + 1

let rec skip_ws c =
  match peek c with
  | Some (' ' | '\t' | '\n' | '\r') ->
      advance c;
      skip_ws c
  | _ -> ()

let expect c ch =
  match peek c with
  | Some x when x = ch -> advance c
  | Some x -> fail "at offset %d: expected %C, found %C" c.pos ch x
  | None -> fail "unexpected end of input (expected %C)" ch

let literal c word value =
  if
    c.pos + String.length word <= String.length c.src
    && String.sub c.src c.pos (String.length word) = word
  then begin
    c.pos <- c.pos + String.length word;
    value
  end
  else fail "at offset %d: malformed literal" c.pos

let parse_string c =
  expect c '"';
  let buf = Buffer.create 16 in
  let rec loop () =
    match peek c with
    | None -> fail "unterminated string"
    | Some '"' -> advance c
    | Some '\\' -> (
        advance c;
        match peek c with
        | Some '"' -> advance c; Buffer.add_char buf '"'; loop ()
        | Some '\\' -> advance c; Buffer.add_char buf '\\'; loop ()
        | Some '/' -> advance c; Buffer.add_char buf '/'; loop ()
        | Some 'n' -> advance c; Buffer.add_char buf '\n'; loop ()
        | Some 't' -> advance c; Buffer.add_char buf '\t'; loop ()
        | Some 'r' -> advance c; Buffer.add_char buf '\r'; loop ()
        | Some 'b' -> advance c; Buffer.add_char buf '\b'; loop ()
        | Some 'f' -> advance c; Buffer.add_char buf '\012'; loop ()
        | Some 'u' ->
            advance c;
            if c.pos + 4 > String.length c.src then fail "truncated \\u escape";
            let hex = String.sub c.src c.pos 4 in
            let code =
              match int_of_string_opt ("0x" ^ hex) with
              | Some n -> n
              | None -> fail "bad \\u escape %S" hex
            in
            c.pos <- c.pos + 4;
            (* Only BMP code points below 0x80 round-trip exactly; the
               repo's emitters never produce others, so encode the rest
               as UTF-8 best-effort. *)
            if code < 0x80 then Buffer.add_char buf (Char.chr code)
            else if code < 0x800 then begin
              Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
              Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
            end
            else begin
              Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
              Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
              Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
            end;
            loop ()
        | Some x -> fail "bad escape \\%C" x
        | None -> fail "unterminated escape")
    | Some x ->
        advance c;
        Buffer.add_char buf x;
        loop ()
  in
  loop ();
  Buffer.contents buf

let parse_number c =
  let start = c.pos in
  let numchar = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while (match peek c with Some x -> numchar x | None -> false) do
    advance c
  done;
  let s = String.sub c.src start (c.pos - start) in
  match float_of_string_opt s with
  | Some f -> f
  | None -> fail "at offset %d: bad number %S" start s

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> fail "unexpected end of input"
  | Some '"' -> String (parse_string c)
  | Some '{' ->
      advance c;
      skip_ws c;
      if peek c = Some '}' then begin
        advance c;
        Obj []
      end
      else begin
        let fields = ref [] in
        let rec members () =
          skip_ws c;
          let key = parse_string c in
          skip_ws c;
          expect c ':';
          let v = parse_value c in
          fields := (key, v) :: !fields;
          skip_ws c;
          match peek c with
          | Some ',' -> advance c; members ()
          | Some '}' -> advance c
          | Some x -> fail "at offset %d: expected ',' or '}', found %C" c.pos x
          | None -> fail "unterminated object"
        in
        members ();
        Obj (List.rev !fields)
      end
  | Some '[' ->
      advance c;
      skip_ws c;
      if peek c = Some ']' then begin
        advance c;
        List []
      end
      else begin
        let items = ref [] in
        let rec elements () =
          let v = parse_value c in
          items := v :: !items;
          skip_ws c;
          match peek c with
          | Some ',' -> advance c; elements ()
          | Some ']' -> advance c
          | Some x -> fail "at offset %d: expected ',' or ']', found %C" c.pos x
          | None -> fail "unterminated array"
        in
        elements ();
        List (List.rev !items)
      end
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some 'n' -> literal c "null" Null
  | Some ('-' | '0' .. '9') -> Number (parse_number c)
  | Some x -> fail "at offset %d: unexpected %C" c.pos x

let parse src =
  let c = { src; pos = 0 } in
  let v = parse_value c in
  skip_ws c;
  if c.pos <> String.length src then
    fail "trailing content at offset %d" c.pos;
  v

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_number = function
  | Number f -> f
  | _ -> fail "expected a number"

let to_string = function
  | String s -> s
  | _ -> fail "expected a string"

let to_list = function
  | List l -> l
  | _ -> fail "expected an array"
