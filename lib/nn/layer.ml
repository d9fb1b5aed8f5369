module Shape = Db_tensor.Shape

type activation = Relu | Sigmoid | Tanh | Sign

type pool_method = Max_pool | Avg_pool

type grad_wrt = Wrt_input | Wrt_params

type t =
  | Input of { shape : Shape.t }
  | Conv of {
      num_output : int;
      kernel_size : int;
      stride : int;
      pad : int;
      group : int;
      bias : bool;
    }
  | Pool of { method_ : pool_method; kernel_size : int; stride : int }
  | Global_pool of pool_method
  | Fc of { num_output : int; bias : bool }
  | Act of activation
  | Lrn of { local_size : int; alpha : float; beta : float; k : float }
  | Lcn of { window : int; epsilon : float }
  | Dropout of { ratio : float }
  | Softmax
  | Recurrent of { num_output : int; steps : int; bias : bool }
  | Associative of { cells_per_dim : int; active_cells : int }
  | Concat
  | Classifier of { top_k : int }
  | Backward of { fwd : t; wrt : grad_wrt }
  | Sgd_update of { target : string }

let activation_name = function
  | Relu -> "RELU"
  | Sigmoid -> "SIGMOID"
  | Tanh -> "TANH"
  | Sign -> "SIGN"

let name = function
  | Backward { wrt = Wrt_input; _ } -> "BP_DX"
  | Backward { wrt = Wrt_params; _ } -> "BP_DW"
  | Sgd_update _ -> "SGD_UPDATE"
  | Input _ -> "INPUT"
  | Conv _ -> "CONV"
  | Pool _ -> "POOL"
  | Global_pool _ -> "GLOBAL_POOL"
  | Fc _ -> "FC"
  | Act act -> activation_name act
  | Lrn _ -> "LRN"
  | Lcn _ -> "LCN"
  | Dropout _ -> "DROPOUT"
  | Softmax -> "SOFTMAX"
  | Recurrent _ -> "RECURRENT"
  | Associative _ -> "ASSOCIATIVE"
  | Concat -> "CONCAT"
  | Classifier _ -> "CLASSIFIER"

let is_training = function
  | Backward _ | Sgd_update _ -> true
  | Input _ | Conv _ | Pool _ | Global_pool _ | Fc _ | Act _ | Lrn _ | Lcn _
  | Dropout _ | Softmax | Recurrent _ | Associative _ | Concat | Classifier _ ->
      false

let is_input = function
  | Input _ -> true
  | _ -> false

let is_classifier = function
  | Classifier _ -> true
  | _ -> false

let is_weighted = function
  | Conv _ | Fc _ | Recurrent _ -> true
  | Input _ | Pool _ | Global_pool _ | Act _ | Lrn _ | Lcn _ | Dropout _
  | Softmax | Associative _ | Concat | Classifier _ | Backward _
  | Sgd_update _ ->
      false

let has_bias = function
  | Conv { bias; _ } | Fc { bias; _ } | Recurrent { bias; _ } -> bias
  | Input _ | Pool _ | Global_pool _ | Act _ | Lrn _ | Lcn _ | Dropout _
  | Softmax | Associative _ | Concat | Classifier _ | Backward _
  | Sgd_update _ ->
      false

let num_output = function
  | Conv { num_output; _ } | Fc { num_output; _ } | Recurrent { num_output; _ }
    ->
      Some num_output
  | Input _ | Pool _ | Global_pool _ | Act _ | Lrn _ | Lcn _ | Dropout _
  | Softmax | Associative _ | Concat | Classifier _ | Backward _
  | Sgd_update _ ->
      None

let window = function
  | Conv { kernel_size; stride; _ } | Pool { kernel_size; stride; _ } ->
      Some (kernel_size, stride)
  | Input _ | Global_pool _ | Fc _ | Act _ | Lrn _ | Lcn _ | Dropout _
  | Softmax | Recurrent _ | Associative _ | Concat | Classifier _ | Backward _
  | Sgd_update _ ->
      None

let expected_arity = function
  | Input _ -> `Exactly 0
  | Concat -> `At_least 2
  | Backward _ -> `Exactly 2
  | Sgd_update _ -> `Exactly 1
  | Conv _ | Pool _ | Global_pool _ | Fc _ | Act _ | Lrn _ | Lcn _ | Dropout _
  | Softmax | Recurrent _ | Associative _ | Classifier _ ->
      `Exactly 1

let equal a b =
  match a, b with
  | Input { shape = sa }, Input { shape = sb } -> Shape.equal sa sb
  | a, b -> a = b

let pool_method_name = function Max_pool -> "max" | Avg_pool -> "ave"

let rec pp fmt op =
  match op with
  | Backward { fwd; wrt = _ } -> Format.fprintf fmt "%s[%a]" (name op) pp fwd
  | Sgd_update { target } -> Format.fprintf fmt "SGD_UPDATE(%s)" target
  | Conv { num_output; kernel_size; stride; pad; group; bias } ->
      Format.fprintf fmt "CONV(out=%d k=%d s=%d p=%d g=%d%s)" num_output
        kernel_size stride pad group
        (if bias then "" else " nobias")
  | Fc { num_output; bias } ->
      Format.fprintf fmt "FC(out=%d%s)" num_output (if bias then "" else " nobias")
  | Input { shape } -> Format.fprintf fmt "INPUT(%s)" (Shape.to_string shape)
  | Pool { method_; kernel_size; stride } ->
      Format.fprintf fmt "POOL(%s k=%d s=%d)" (pool_method_name method_)
        kernel_size stride
  | Global_pool method_ ->
      Format.fprintf fmt "GLOBAL_POOL(%s)" (pool_method_name method_)
  | Act act -> Format.pp_print_string fmt (activation_name act)
  | Lrn { local_size; alpha; beta; k } ->
      Format.fprintf fmt "LRN(n=%d a=%g b=%g k=%g)" local_size alpha beta k
  | Lcn { window; epsilon } -> Format.fprintf fmt "LCN(w=%d eps=%g)" window epsilon
  | Dropout { ratio } -> Format.fprintf fmt "DROPOUT(%g)" ratio
  | Softmax -> Format.pp_print_string fmt "SOFTMAX"
  | Recurrent { num_output; steps; bias } ->
      Format.fprintf fmt "RECURRENT(out=%d steps=%d%s)" num_output steps
        (if bias then "" else " nobias")
  | Associative { cells_per_dim; active_cells } ->
      Format.fprintf fmt "ASSOCIATIVE(cells=%d active=%d)" cells_per_dim
        active_cells
  | Concat -> Format.pp_print_string fmt "CONCAT"
  | Classifier { top_k } -> Format.fprintf fmt "CLASSIFIER(top%d)" top_k

let to_string op = Format.asprintf "%a" pp op
