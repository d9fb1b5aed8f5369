type issue = { line : int; message : string }

(* Replace comments (both [//] line comments and [/* ... */] block comments,
   including multi-line spans) and string literals with whitespace, so that
   keyword counting never sees quoted or commented-out text.  Newlines are
   preserved even inside block comments, keeping line numbers stable. *)
let strip_comments text =
  let n = String.length text in
  let buf = Buffer.create n in
  let rec go i state =
    if i >= n then ()
    else
      let c = text.[i] in
      match state with
      | `Code ->
          if c = '"' then begin
            Buffer.add_char buf ' ';
            go (i + 1) `Str
          end
          else if c = '/' && i + 1 < n && text.[i + 1] = '/' then
            go (i + 2) `Line
          else if c = '/' && i + 1 < n && text.[i + 1] = '*' then begin
            Buffer.add_char buf ' ';
            go (i + 2) `Block
          end
          else begin
            Buffer.add_char buf c;
            go (i + 1) `Code
          end
      | `Str ->
          if c = '\n' then begin
            (* unterminated string literal: recover at end of line *)
            Buffer.add_char buf '\n';
            go (i + 1) `Code
          end
          else if c = '"' then go (i + 1) `Code
          else if c = '\\' && i + 1 < n then go (i + 2) `Str
          else go (i + 1) `Str
      | `Line ->
          if c = '\n' then begin
            Buffer.add_char buf '\n';
            go (i + 1) `Code
          end
          else go (i + 1) `Line
      | `Block ->
          if c = '\n' then begin
            Buffer.add_char buf '\n';
            go (i + 1) `Block
          end
          else if c = '*' && i + 1 < n && text.[i + 1] = '/' then
            go (i + 2) `Code
          else go (i + 1) `Block
  in
  go 0 `Code;
  Buffer.contents buf

let is_word_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
  || c = '_'

(* [f i j] for every maximal run [text.[i .. j-1]] of word characters,
   left to right. *)
let iter_words text f =
  let n = String.length text in
  let i = ref 0 in
  while !i < n do
    if is_word_char (String.unsafe_get text !i) then begin
      let j = ref (!i + 1) in
      while !j < n && is_word_char (String.unsafe_get text !j) do
        incr j
      done;
      f !i !j;
      i := !j
    end
    else incr i
  done

(* Whether [text.[i .. j-1]] spells [word], without copying it out. *)
let spells text i j word =
  j - i = String.length word
  &&
  let rec same k = k = j - i || (text.[i + k] = word.[k] && same (k + 1)) in
  same 0

(* The Verilog words that can open a [word word (] line other than
   [module], which declares. *)
let keywords = [ "else"; "function"; "task" ]

(* The leading word of a line and the index just past it, spaces
   skipped; [None] when the line does not start with a word. *)
let word_at line i =
  let n = String.length line in
  let rec skip i = if i < n && (line.[i] = ' ' || line.[i] = '\t') then skip (i + 1) else i in
  let i = skip i in
  let rec stop j = if j < n && is_word_char line.[j] then stop (j + 1) else j in
  let j = stop i in
  if j = i then None else Some (String.sub line i (j - i), skip j)

(* [M [#(...)] I (] at the start of a line is an instance [I] of module
   [M]: the emitter and the templates write one statement per line. *)
let instantiation line =
  match word_at line 0 with
  | Some (m, i) when not (List.mem m keywords) -> (
      let n = String.length line in
      let i =
        if i < n && line.[i] = '#' then
          (* skip the parameter override's balanced parentheses *)
          let rec close j depth =
            if j >= n then n
            else
              match line.[j] with
              | '(' -> close (j + 1) (depth + 1)
              | ')' -> if depth = 1 then j + 1 else close (j + 1) (depth - 1)
              | _ -> close (j + 1) depth
          in
          close (i + 1) 0
        else i
      in
      match word_at line i with
      | Some (_, k) when k < n && line.[k] = '(' -> Some m
      | _ -> None)
  | _ -> None

(* The module graph: every instance names a declared module, and every
   declared module but the top (the last one, as the emitter writes it)
   is instantiated somewhere. *)
let module_graph_issues lines report =
  let declared = ref [] and instances = ref [] in
  List.iteri
    (fun idx line ->
      match word_at line 0 with
      | Some ("module", i) -> (
          match word_at line i with
          | Some (name, _) -> declared := (name, idx + 1) :: !declared
          | None -> ())
      | _ -> (
          match instantiation line with
          | Some m -> instances := (m, idx + 1) :: !instances
          | None -> ()))
    lines;
  List.iter
    (fun (m, line) ->
      if not (List.mem_assoc m !declared) then
        report line (Printf.sprintf "instance of undeclared module %s" m))
    (List.rev !instances);
  match !declared with
  | [] -> ()
  | _top :: others ->
      List.iter
        (fun (m, line) ->
          if not (List.mem_assoc m !instances) then
            report line (Printf.sprintf "module %s is never instantiated" m))
        (List.rev others)

let check text =
  let issues = ref [] in
  let report line message = issues := { line; message } :: !issues in
  let modules = ref 0
  and begins = ref 0
  and cases = ref 0
  and parens = ref 0
  and brackets = ref 0 in
  let lines = String.split_on_char '\n' (strip_comments text) in
  List.iteri
    (fun idx line ->
      let line_no = idx + 1 in
      (* Whole words only: "endmodule" and "endcase" are neither "end"
         nor "case". *)
      iter_words line (fun i j ->
          let is = spells line i j in
          if is "module" then incr modules
          else if is "endmodule" then decr modules
          else if is "case" then incr cases
          else if is "endcase" then decr cases
          else if is "begin" then incr begins
          else if is "end" then decr begins);
      String.iter
        (fun c ->
          match c with
          | '(' -> incr parens
          | ')' -> decr parens
          | '[' -> incr brackets
          | ']' -> decr brackets
          | _ -> ())
        line;
      if !parens < 0 then begin
        report line_no "unbalanced ')'";
        parens := 0
      end;
      if !brackets < 0 then begin
        report line_no "unbalanced ']'";
        brackets := 0
      end;
      if !modules < 0 then begin
        report line_no "endmodule without module";
        modules := 0
      end)
    lines;
  let final = List.length lines in
  if !modules <> 0 then report final "module/endmodule imbalance";
  if !begins <> 0 then report final "begin/end imbalance";
  if !cases <> 0 then report final "case/endcase imbalance";
  if !parens <> 0 then report final "parenthesis imbalance";
  if !brackets <> 0 then report final "bracket imbalance";
  module_graph_issues lines report;
  List.rev !issues

let assert_clean text =
  match check text with
  | [] -> ()
  | { line; message } :: rest ->
      Db_util.Error.failf_at ~component:"verilog-lint"
        "%d issue(s); first at line %d: %s" (1 + List.length rest) line message
