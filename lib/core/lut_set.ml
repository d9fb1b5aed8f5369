module Approx_lut = Db_blocks.Approx_lut
module Fixed = Db_fixed.Fixed
module Op = Db_ir.Op
module Graph = Db_ir.Graph

type fn =
  | Sigmoid
  | Tanh
  | Exp
  | Reciprocal
  | Lrn_power of { beta : float; k : float }

type table = { fn : fn; lut : Approx_lut.t }

type t = { fmt : Fixed.format; tables : table list }

let fail fmt = Db_util.Error.failf_at ~component:"lut-set" fmt

let of_activation = function
  | Op.Sigmoid -> Some Sigmoid
  | Op.Tanh -> Some Tanh
  | Op.Relu | Op.Sign -> None

(* The functions an op reads, in the order it first reads them. *)
let fns_of_op = function
  | Op.Act a -> Option.to_list (of_activation a)
  | Op.Recurrent _ -> [ Tanh ]
  | Op.Softmax -> [ Exp; Reciprocal ]
  | Op.Pool { method_ = Op.Avg_pool; _ }
  | Op.Global_pool Op.Avg_pool | Op.Lcn _ ->
      [ Reciprocal ]
  | Op.Lrn { beta; k; _ } -> [ Lrn_power { beta; k } ]
  | Op.Input _ | Op.Conv _
  | Op.Pool { method_ = Op.Max_pool; _ }
  | Op.Global_pool Op.Max_pool
  | Op.Fc _ | Op.Dropout _ | Op.Associative _ | Op.Concat | Op.Classifier _
  (* Backward derivative tables reuse the forward ones. *)
  | Op.Backward _ | Op.Sgd_update _ ->
      []

let sample ~entries = function
  | Sigmoid -> Approx_lut.sigmoid ~entries
  | Tanh -> Approx_lut.tanh_lut ~entries
  | Exp -> Approx_lut.exp_lut ~entries
  | Reciprocal -> Approx_lut.reciprocal ~entries
  | Lrn_power { beta; k } ->
      Approx_lut.build ~name:"lrn_power"
        ~f:(fun u -> (k +. u) ** -.beta)
        ~lo:0.0 ~hi:64.0 ~entries

let of_graph dp (g : Graph.t) =
  let fmt = dp.Db_sched.Datapath.fmt in
  let fns =
    Graph.fold g ~init:[] ~f:(fun acc node ->
        List.fold_left
          (fun acc fn -> if List.mem fn acc then acc else fn :: acc)
          acc (fns_of_op node.Graph.op))
    |> List.rev
  in
  (match List.filter (function Lrn_power _ -> true | _ -> false) fns with
  | [] | [ _ ] -> ()
  | powers ->
      fail
        "graph %S: its LRN layers use %d different (beta, k) pairs, but the \
         accelerator has one LRN unit with one power table"
        g.Graph.graph_name (List.length powers));
  (* The ROM words, quantized once here: every reader sees what the BRAM
     holds. *)
  let quantize v = Fixed.to_float fmt (Fixed.of_float fmt v) in
  let table fn =
    let lut = sample ~entries:dp.Db_sched.Datapath.lut_entries fn in
    { fn; lut = { lut with values = Array.map quantize lut.Approx_lut.values } }
  in
  { fmt; tables = List.map table fns }

let find t fn =
  List.find_map (fun tb -> if tb.fn = fn then Some tb.lut else None) t.tables

let lrn_power t =
  List.find_map
    (fun tb ->
      match tb.fn with
      | Lrn_power { beta; k } -> Some (beta, k, tb.lut)
      | Sigmoid | Tanh | Exp | Reciprocal -> None)
    t.tables

let names t = List.map (fun tb -> tb.lut.Approx_lut.lut_name) t.tables

let table t ~name =
  match
    List.find_opt (fun tb -> String.equal tb.lut.Approx_lut.lut_name name) t.tables
  with
  | Some tb -> tb.lut
  | None -> fail "no Approx LUT named %S" name

let word t ~name i = Fixed.of_float t.fmt (table t ~name).Approx_lut.values.(i)

let with_word t ~name i w =
  let tables =
    List.map
      (fun tb ->
        if String.equal tb.lut.Approx_lut.lut_name name then begin
          let values = Array.copy tb.lut.Approx_lut.values in
          values.(i) <- Fixed.to_float t.fmt w;
          { tb with lut = { tb.lut with Approx_lut.values } }
        end
        else tb)
      t.tables
  in
  { t with tables }
