type direction = Input | Output

type port = { port_name : string; direction : direction; width : int }

type net = { net_name : string; net_width : int }

type instance = {
  inst_name : string;
  module_ref : string;
  parameters : (string * int) list;
  connections : (string * string) list;
}

type body =
  | Behavioral of string list
  | Structural of {
      nets : net list;
      instances : instance list;
      assigns : (string * string) list;
    }
  | Machine of Fsm.t

type module_decl = {
  mod_name : string;
  ports : port list;
  localparams : (string * int) list;
  body : body;
}

type design = { top : string; modules : module_decl list }

let of_fsm (f : Fsm.t) =
  let port direction port_name = { port_name; direction; width = 1 } in
  {
    mod_name = f.Fsm.fsm_name;
    ports =
      List.map (port Input) (Fsm.clock :: Fsm.reset :: f.Fsm.inputs)
      @ List.map (port Output) f.Fsm.outputs;
    localparams = [];
    body = Machine f;
  }

let fail fmt = Db_util.Error.failf_at ~component:"rtl" fmt

let find_module design name =
  List.find (fun m -> m.mod_name = name) design.modules

let is_identifier s =
  s <> ""
  && String.for_all Lint.is_word_char s
  && not (s.[0] >= '0' && s.[0] <= '9')

let identifier s =
  let mapped = String.map (fun c -> if Lint.is_word_char c then c else '_') s in
  if is_identifier mapped then mapped else "_" ^ mapped

let validate design =
  let names = List.map (fun m -> m.mod_name) design.modules in
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun n ->
      if Hashtbl.mem tbl n then fail "duplicate module %S" n
      else Hashtbl.add tbl n ())
    names;
  if not (Hashtbl.mem tbl design.top) then
    fail "top module %S is not declared" design.top;
  List.iter
    (fun n ->
      if not (is_identifier n) then
        fail "module name %S is not a Verilog identifier" n)
    names;
  List.iter
    (fun m ->
      match m.body with
      | Behavioral _ | Machine _ -> ()
      | Structural { nets; instances; assigns } ->
          let known = Hashtbl.create 64 in
          List.iter (fun p -> Hashtbl.replace known p.port_name ()) m.ports;
          List.iter (fun n -> Hashtbl.replace known n.net_name ()) nets;
          let check_actual context actual =
            (* Expressions (slices, concatenations, literals) are accepted
               as-is; only bare identifiers are checked against the
               declared nets. *)
            if is_identifier actual && not (Hashtbl.mem known actual) then
              fail "module %S, %s: unknown net %S" m.mod_name context actual
          in
          List.iter
            (fun inst ->
              let callee =
                try find_module design inst.module_ref
                with Not_found ->
                  fail "module %S instantiates undeclared module %S"
                    m.mod_name inst.module_ref
              in
              List.iter
                (fun (formal, actual) ->
                  if
                    not
                      (List.exists (fun p -> p.port_name = formal) callee.ports)
                  then
                    fail "instance %S: module %S has no port %S"
                      inst.inst_name inst.module_ref formal;
                  check_actual
                    (Printf.sprintf "instance %S port %S" inst.inst_name formal)
                    actual)
                inst.connections)
            instances;
          List.iter
            (fun (lhs, _rhs) -> check_actual "assign" lhs)
            assigns)
    design.modules
