(* Semantic static analysis over Rtl.design values and Fsm.t machines.

   Structural modules get a full driver/reader model: every net and port is
   tracked bit-precisely where possible, so shorted drivers (DB-E001) are
   detected even when two slices of the same bus overlap only partially.
   Machine modules are checked as graphs ([fsm]).  Behavioral modules are
   leaf templates of raw Verilog, so they get textual checks (output
   driven, input read, latch heuristic) over one scan of their comment- and
   string-stripped body. *)

module Rtl = Db_hdl.Rtl
module Fsm = Db_hdl.Fsm
module Lint = Db_hdl.Lint
module D = Diagnostic
module W = Expr_width

let code_multi_driver = "DB-E001"
let code_width_mismatch = "DB-E002"
let code_port_width_mismatch = "DB-E003"
let code_comb_loop = "DB-E004"
let code_param_unknown = "DB-E005"
let code_redeclared = "DB-E006"
let code_fsm_invalid = "DB-E007"
let code_verilog_lint = "DB-E008"
let code_undriven_net = "DB-W101"
let code_unused_net = "DB-W102"
let code_undriven_output = "DB-W103"
let code_latch = "DB-W104"
let code_fsm_unreachable = "DB-W105"
let code_fsm_sink = "DB-W106"
let code_implicit_net = "DB-W107"
let code_unused_input = "DB-I201"

(* A driver covers either a known bit range of its target or an unknown
   subset (e.g. an indexed select with a dynamic base).  Unknown subsets
   count for driven-ness but are excluded from overlap detection. *)
type driver = { range : (int * int) option; desc : string }

(* --- template leaves ------------------------------------------------------ *)

(* One pass over a template leaf's comment-stripped body, shared by the
   combinational table and the port and latch checks: the set of its word
   tokens, and, when it has an [always @*] block, how many [case]
   statements lack a [default] arm (each infers a latch).  A small stack
   attributes nested cases correctly. *)
type leaf = { words : (string, unit) Hashtbl.t; latches : int }

let scan_leaf lines =
  let text = Lint.strip_comments (String.concat "\n" lines) in
  let n = String.length text in
  (* s.[k..] comes next from [i], spaces and tabs aside *)
  let rec next_is i s k =
    k = String.length s
    || i < n
       && match text.[i] with
          | ' ' | '\t' -> next_is (i + 1) s k
          | c -> c = s.[k] && next_is (i + 1) s (k + 1)
  in
  let words = Hashtbl.create 64 and comb_always = ref false in
  let stack = ref [] and latches = ref 0 in
  Lint.iter_words text (fun i j ->
      let w = String.sub text i (j - i) in
      Hashtbl.replace words w ();
      match (w, !stack) with
      | "always", _ ->
          if next_is j "@*" 0 || next_is j "@(*)" 0 then comb_always := true
      | ("case" | "casez" | "casex"), _ -> stack := ref false :: !stack
      | "default", top :: _ -> top := true
      | "endcase", top :: rest ->
          if not !top then incr latches;
          stack := rest
      | _ -> ());
  { words; latches = (if !comb_always then !latches else 0) }

(* --- combinational classification ------------------------------------- *)

(* A module is combinational (its outputs can respond to inputs in the same
   cycle) iff it contains no clocked process.  Machines are clocked; a
   template leaf is clocked when its body mentions posedge/negedge;
   structural modules are combinational when they have continuous assigns
   or any combinational child.  This is conservative at module granularity:
   a sequential leaf breaks every path through it. *)
let build_comb_table (design : Rtl.design) scan_of =
  let tbl = Hashtbl.create 16 in
  let rec comb (m : Rtl.module_decl) =
    match Hashtbl.find_opt tbl m.Rtl.mod_name with
    | Some b -> b
    | None ->
        Hashtbl.add tbl m.Rtl.mod_name false (* cycle guard *);
        let b =
          match m.Rtl.body with
          | Rtl.Behavioral _ ->
              let { words; _ } = scan_of m in
              not (Hashtbl.mem words "posedge" || Hashtbl.mem words "negedge")
          | Rtl.Machine _ -> false
          | Rtl.Structural { instances; assigns; _ } ->
              assigns <> []
              || List.exists
                   (fun (i : Rtl.instance) ->
                     match Rtl.find_module design i.Rtl.module_ref with
                     | callee -> comb callee
                     | exception Not_found -> false)
                   instances
        in
        Hashtbl.replace tbl m.Rtl.mod_name b;
        b
  in
  fun m -> comb m

(* --- cycle search ------------------------------------------------------ *)

let find_cycle nodes succs =
  let state = Hashtbl.create 64 in
  let found = ref None in
  let rec visit path n =
    if !found = None then
      match Hashtbl.find_opt state n with
      | Some `Done -> ()
      | Some `Gray ->
          (* [path] runs from the current node back to the root; the cycle is
             the prefix up to (and including) the re-entered node. *)
          let rec take acc = function
            | [] -> acc
            | x :: _ when x = n -> x :: acc
            | x :: rest -> take (x :: acc) rest
          in
          found := Some (n :: take [] path)
      | None ->
          Hashtbl.add state n `Gray;
          List.iter (visit (n :: path)) (succs n);
          Hashtbl.replace state n `Done
  in
  List.iter (fun n -> visit [] n) nodes;
  !found

(* --- structural module analysis ---------------------------------------- *)

let analyze_structural (design : Rtl.design) add comb_of (m : Rtl.module_decl)
    (nets : Rtl.net list) (instances : Rtl.instance list)
    (assigns : (string * string) list) =
  let scope = m.Rtl.mod_name in
  let diag ~code ~severity ?item fmt =
    Printf.ksprintf (fun msg -> add (D.v ~code ~severity ~scope ?item msg)) fmt
  in
  let widths = Hashtbl.create 64 in
  List.iter
    (fun (p : Rtl.port) -> Hashtbl.replace widths p.Rtl.port_name p.Rtl.width)
    m.Rtl.ports;
  List.iter
    (fun (n : Rtl.net) ->
      if Hashtbl.mem widths n.Rtl.net_name then
        diag ~code:code_redeclared ~severity:D.Error ~item:n.Rtl.net_name
          "net %S declared more than once (or shadows a port)" n.Rtl.net_name
      else Hashtbl.replace widths n.Rtl.net_name n.Rtl.net_width)
    nets;
  let params = Hashtbl.create 8 in
  List.iter (fun (k, v) -> Hashtbl.replace params k v) m.Rtl.localparams;
  let param name = Hashtbl.find_opt params name in
  let net_width name = Hashtbl.find_opt widths name in
  let drivers : (string, driver list ref) Hashtbl.t = Hashtbl.create 64 in
  let reads = Hashtbl.create 64 in
  let full_range name =
    match net_width name with Some w -> Some (0, w - 1) | None -> None
  in
  let add_driver base range desc =
    match Hashtbl.find_opt drivers base with
    | Some l -> l := { range; desc } :: !l
    | None -> Hashtbl.add drivers base (ref [ { range; desc } ])
  in
  let add_lvalue_driver target desc =
    match W.lvalue ~param target with
    | Some (W.Whole base) -> add_driver base (full_range base) desc
    | Some (W.Slice (base, sel)) ->
        let range =
          match sel with
          | W.Range (lo, hi) -> Some (lo, hi)
          | W.Bit i -> Some (i, i)
          | W.Indexed _ | W.Opaque ->
              (* indexed selects with dynamic bases are not positioned; they
                 still count as drivers for driven-ness *)
              None
        in
        add_driver base range desc
    | None -> ()
  in
  (* Input ports are driven from outside the module. *)
  List.iter
    (fun (p : Rtl.port) ->
      if p.Rtl.direction = Rtl.Input then
        add_driver p.Rtl.port_name (full_range p.Rtl.port_name) "input port")
    m.Rtl.ports;
  let note_reads expr =
    List.iter
      (fun id ->
        if Hashtbl.mem widths id then Hashtbl.replace reads id ()
        else if param id = None then
          diag ~code:code_implicit_net ~severity:D.Warning ~item:id
            "identifier %S is not a declared net, port or localparam" id)
      (W.identifiers expr)
  in
  (* continuous assigns *)
  List.iter
    (fun (lhs, rhs) ->
      add_lvalue_driver lhs (Printf.sprintf "assign to %S" lhs);
      (let lhs_width =
         match W.lvalue ~param lhs with
         | Some (W.Whole base) -> net_width base
         | Some (W.Slice (_, W.Range (lo, hi))) -> Some (hi - lo + 1)
         | Some (W.Slice (_, W.Bit _)) -> Some 1
         | Some (W.Slice (_, W.Indexed k)) -> Some k
         | Some (W.Slice (_, W.Opaque)) | None -> None
       in
       match (lhs_width, W.infer ~net_width ~param rhs) with
       | Some l, W.Known r when l <> r ->
           diag ~code:code_width_mismatch ~severity:D.Error ~item:lhs
             "assign %s = %s: lhs is %d bit(s) but rhs is %d bit(s)" lhs rhs l
             r
       | _ -> ());
      note_reads rhs)
    assigns;
  (* instances *)
  List.iter
    (fun (inst : Rtl.instance) ->
      match Rtl.find_module design inst.Rtl.module_ref with
      | exception Not_found -> () (* Rtl.validate reports undeclared modules *)
      | callee ->
          List.iter
            (fun (k, _) ->
              if not (List.mem_assoc k callee.Rtl.localparams) then
                diag ~code:code_param_unknown ~severity:D.Error ~item:k
                  "instance %S overrides parameter %S, which module %S does \
                   not declare"
                  inst.Rtl.inst_name k inst.Rtl.module_ref)
            inst.Rtl.parameters;
          List.iter
            (fun (formal, actual) ->
              match
                List.find_opt
                  (fun (p : Rtl.port) -> p.Rtl.port_name = formal)
                  callee.Rtl.ports
              with
              | None -> () (* Rtl.validate reports unknown formals *)
              | Some fp ->
                  (match W.infer ~net_width ~param actual with
                  | W.Known w when w <> fp.Rtl.width ->
                      diag ~code:code_port_width_mismatch ~severity:D.Error
                        ~item:formal
                        "instance %S port %S is %d bit(s) but actual %S is %d \
                         bit(s)"
                        inst.Rtl.inst_name formal fp.Rtl.width actual w
                  | _ -> ());
                  (match fp.Rtl.direction with
                  | Rtl.Output -> (
                      match W.lvalue ~param actual with
                      | Some (W.Whole base | W.Slice (base, _))
                        when Hashtbl.mem widths base ->
                          add_lvalue_driver actual
                            (Printf.sprintf "output %s.%s" inst.Rtl.inst_name
                               formal)
                      | _ ->
                          (* an output wired to an expression is at best a
                             read of its identifiers *)
                          note_reads actual)
                  | Rtl.Input -> note_reads actual))
            inst.Rtl.connections)
    instances;
  (* multiple drivers: sort positioned ranges and scan for overlap *)
  Hashtbl.iter
    (fun base ds ->
      let positioned =
        List.filter_map
          (fun d ->
            match d.range with Some (lo, hi) -> Some (lo, hi, d.desc) | None -> None)
          !ds
        |> List.sort compare
      in
      let rec scan = function
        | (_, hi1, d1) :: ((lo2, _, d2) :: _ as rest) ->
            if lo2 <= hi1 then
              diag ~code:code_multi_driver ~severity:D.Error ~item:base
                "net %S has conflicting drivers: %s and %s" base d1 d2
            else scan rest
        | _ -> ()
      in
      scan positioned)
    drivers;
  (* undriven / unused nets *)
  List.iter
    (fun (n : Rtl.net) ->
      let name = n.Rtl.net_name in
      let driven = Hashtbl.mem drivers name in
      let read = Hashtbl.mem reads name in
      match (driven, read) with
      | true, true -> ()
      | false, true ->
          diag ~code:code_undriven_net ~severity:D.Warning ~item:name
            "net %S is read but never driven" name
      | true, false ->
          diag ~code:code_unused_net ~severity:D.Warning ~item:name
            "net %S is driven but never read" name
      | false, false ->
          diag ~code:code_unused_net ~severity:D.Warning ~item:name
            "net %S is never driven nor read" name)
    nets;
  (* ports of a structural module *)
  List.iter
    (fun (p : Rtl.port) ->
      match p.Rtl.direction with
      | Rtl.Output ->
          if not (Hashtbl.mem drivers p.Rtl.port_name) then
            diag ~code:code_undriven_output ~severity:D.Warning
              ~item:p.Rtl.port_name "output port %S is never driven"
              p.Rtl.port_name
      | Rtl.Input ->
          if not (Hashtbl.mem reads p.Rtl.port_name) then
            diag ~code:code_unused_input ~severity:D.Info ~item:p.Rtl.port_name
              "input port %S is never read" p.Rtl.port_name)
    m.Rtl.ports;
  (* combinational loops: edges from read nets to driven nets through
     assigns and through combinational instances *)
  let edges : (string, string list ref) Hashtbl.t = Hashtbl.create 64 in
  let add_edge src dst =
    match Hashtbl.find_opt edges src with
    | Some l -> l := dst :: !l
    | None -> Hashtbl.add edges src (ref [ dst ])
  in
  let bases_of_target target =
    match W.lvalue ~param target with
    | Some (W.Whole base) | Some (W.Slice (base, _)) ->
        if Hashtbl.mem widths base then [ base ] else []
    | None -> []
  in
  let read_ids expr =
    List.filter (Hashtbl.mem widths) (W.identifiers expr)
  in
  List.iter
    (fun (lhs, rhs) ->
      let dsts = bases_of_target lhs in
      List.iter
        (fun src -> List.iter (fun dst -> add_edge src dst) dsts)
        (read_ids rhs))
    assigns;
  List.iter
    (fun (inst : Rtl.instance) ->
      match Rtl.find_module design inst.Rtl.module_ref with
      | exception Not_found -> ()
      | callee when comb_of callee ->
          let ins = ref [] and outs = ref [] in
          List.iter
            (fun (formal, actual) ->
              match
                List.find_opt
                  (fun (p : Rtl.port) -> p.Rtl.port_name = formal)
                  callee.Rtl.ports
              with
              | Some { Rtl.direction = Rtl.Input; _ } ->
                  ins := read_ids actual @ !ins
              | Some { Rtl.direction = Rtl.Output; _ } ->
                  outs := bases_of_target actual @ !outs
              | None -> ())
            inst.Rtl.connections;
          List.iter
            (fun src -> List.iter (fun dst -> add_edge src dst) !outs)
            !ins
      | _ -> ())
    instances;
  let nodes = Hashtbl.fold (fun k _ acc -> k :: acc) edges [] in
  let succs n =
    match Hashtbl.find_opt edges n with Some l -> !l | None -> []
  in
  match find_cycle (List.sort compare nodes) succs with
  | Some cycle ->
      diag ~code:code_comb_loop ~severity:D.Error
        ?item:(match cycle with n :: _ -> Some n | [] -> None)
        "combinational loop: %s" (String.concat " -> " cycle)
  | None -> ()

(* --- behavioral module analysis ----------------------------------------- *)

let unread_input scope name =
  D.v ~code:code_unused_input ~severity:D.Info ~scope ~item:name
    (Printf.sprintf "behavioral body never reads input %S" name)

let analyze_behavioral add (m : Rtl.module_decl) leaf =
  let scope = m.Rtl.mod_name in
  List.iter
    (fun { Rtl.port_name = name; direction; _ } ->
      if not (Hashtbl.mem leaf.words name) then
        add
          (match direction with
          | Rtl.Output ->
              D.v ~code:code_undriven_output ~severity:D.Warning ~scope
                ~item:name
                (Printf.sprintf "behavioral body never drives output %S" name)
          | Rtl.Input -> unread_input scope name))
    m.Rtl.ports;
  for _ = 1 to leaf.latches do
    add
      (D.v ~code:code_latch ~severity:D.Warning ~scope
         "case statement without a default arm inside always @* infers a \
          latch")
  done

(* --- FSM analysis ------------------------------------------------------- *)

let fsm (f : Fsm.t) =
  let scope = f.Fsm.fsm_name in
  match Fsm.validate f with
  | exception Db_util.Error.Deepburning_error msg ->
      [ D.v ~code:code_fsm_invalid ~severity:D.Error ~scope msg ]
  | () ->
      let reach = Fsm.reachable_states f in
      let reachable = Hashtbl.create 16 in
      List.iter (fun s -> Hashtbl.replace reachable s ()) reach;
      let has_exit = Hashtbl.create 16 in
      List.iter
        (fun (tr : Fsm.transition) ->
          Hashtbl.replace has_exit tr.Fsm.from_state ())
        f.Fsm.transitions;
      let unreachable =
        List.filter_map
          (fun s ->
            if Hashtbl.mem reachable s then None
            else
              Some
                (D.v ~code:code_fsm_unreachable ~severity:D.Warning ~scope
                   ~item:s
                   (Printf.sprintf "state %S is unreachable from %S" s
                      f.Fsm.initial)))
          f.Fsm.states
      in
      let sinks =
        (* a machine with no transitions at all is a degenerate stub, not a
           trap; only flag sinks when the FSM actually moves *)
        if f.Fsm.transitions = [] then []
        else
          List.filter_map
            (fun s ->
              if Hashtbl.mem reachable s && not (Hashtbl.mem has_exit s) then
                Some
                  (D.v ~code:code_fsm_sink ~severity:D.Warning ~scope ~item:s
                     (Printf.sprintf
                        "state %S is reachable but has no outgoing transition"
                        s))
              else None)
            f.Fsm.states
      in
      unreachable @ sinks

(* --- entry points ------------------------------------------------------- *)

(* A lowered machine drives every output and reads its clock and reset;
   an input is read only if some guard tests it. *)
let analyze_machine add (m : Rtl.module_decl) (f : Fsm.t) =
  List.iter add (fsm f);
  let guards = List.filter_map (fun tr -> tr.Fsm.guard) f.Fsm.transitions in
  List.iter
    (fun i -> if not (List.mem i guards) then add (unread_input m.Rtl.mod_name i))
    f.Fsm.inputs

let design (d : Rtl.design) =
  let acc = ref [] in
  let add dg = acc := dg :: !acc in
  let scans =
    List.filter_map
      (fun m ->
        match m.Rtl.body with
        | Rtl.Behavioral lines -> Some (m, scan_leaf lines)
        | Rtl.Machine _ | Rtl.Structural _ -> None)
      d.Rtl.modules
  in
  let scan_of m = List.assq m scans in
  let comb_of = build_comb_table d scan_of in
  List.iter
    (fun (m : Rtl.module_decl) ->
      match m.Rtl.body with
      | Rtl.Behavioral _ -> analyze_behavioral add m (scan_of m)
      | Rtl.Machine f -> analyze_machine add m f
      | Rtl.Structural { nets; instances; assigns } ->
          analyze_structural d add comb_of m nets instances assigns)
    d.Rtl.modules;
  D.sort (List.rev !acc)

(* The emitted text: balanced constructs and a closed module graph,
   including the instances a template leaf writes in its own body. *)
let verilog (d : Rtl.design) =
  List.map
    (fun { Lint.line; message } ->
      D.v ~code:code_verilog_lint ~severity:D.Error ~scope:d.Rtl.top
        (Printf.sprintf "emitted Verilog line %d: %s" line message))
    (Lint.check (Db_hdl.Verilog.emit_design d))

let assert_no_errors ?(strict = false) d =
  let diags = design d in
  let diags = if strict then D.strictify diags else diags in
  match D.errors diags with
  | [] -> ()
  | first :: _ as errs ->
      Db_util.Error.failf_at ~component:"rtl-analysis"
        "design %S: %d error(s); first: %s" d.Rtl.top (List.length errs)
        (D.to_string first)
