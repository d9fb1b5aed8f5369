(** Lightweight structural linting of emitted Verilog text.

    Not a parser — a balance checker for the constructs the emitter and
    the block templates produce: [module]/[endmodule], [begin]/[end],
    [case]/[endcase], parentheses and brackets, plus a check that every
    non-empty source line inside a module is properly terminated.  It
    also closes the module graph: every instance names a module the text
    declares, and every declared module except the top (the last one, as
    {!Verilog.emit_design} writes it) is instantiated.  Run over every
    generated design by the analyzer and the tests, it catches template
    regressions (a dropped [end], an unbalanced port list, a ROM that no
    unit reads) without needing an external tool. *)

type issue = { line : int; message : string }

val strip_comments : string -> string
(** Replace [//] line comments, [/* ... */] block comments (multi-line spans
    included) and string literals with whitespace.  Newlines are preserved,
    so line numbers in the result match the input.  Shared with the semantic
    analyzer ({!Db_analysis}) for scanning behavioural bodies. *)

val is_word_char : char -> bool

val iter_words : string -> (int -> int -> unit) -> unit
(** [iter_words text f] calls [f i j] for every whole word
    [text.[i .. j-1]] (a maximal run of {!is_word_char} characters), left
    to right: the one tokenizer pass behind [check]'s keyword balance and
    the analyzer's template scan. *)

val check : string -> issue list
(** Empty when the text passes every check. *)

val assert_clean : string -> unit
(** Raises {!Db_util.Error.Deepburning_error} quoting the first issue. *)
