module Shape = Db_tensor.Shape

type t = (string * Shape.t) list ref

let fail fmt = Db_util.Error.failf_at ~component:"shape-infer" fmt

let one_bottom layer = function
  | [ s ] -> s
  | shapes ->
      fail "layer %s expects exactly one bottom, got %d" (Layer.name layer)
        (List.length shapes)

let layer_output_shape layer bottoms =
  match layer with
  | Layer.Input { shape } -> shape
  | Layer.Conv { num_output; kernel_size; stride; pad; group; _ } ->
      let s = one_bottom layer bottoms in
      if Shape.rank s <> 3 then
        fail "convolution needs a CHW bottom, got %s" (Shape.to_string s);
      if kernel_size <= 0 then
        fail "convolution kernel_size must be positive, got %d" kernel_size;
      if pad < 0 then fail "convolution pad must be non-negative, got %d" pad;
      if group <= 0 then fail "convolution group must be positive, got %d" group;
      let cin = Shape.channels s in
      if cin mod group <> 0 then
        fail "convolution group %d does not divide input channels %d" group cin;
      if num_output mod group <> 0 then
        fail "convolution group %d does not divide num_output %d" group num_output;
      let oh =
        Db_tensor.Ops.conv_output_dim ~input:(Shape.height s) ~kernel:kernel_size
          ~stride ~pad_lo:pad ~pad_hi:pad
      and ow =
        Db_tensor.Ops.conv_output_dim ~input:(Shape.width s) ~kernel:kernel_size
          ~stride ~pad_lo:pad ~pad_hi:pad
      in
      Shape.chw ~channels:num_output ~height:oh ~width:ow
  | Layer.Pool { method_ = _; kernel_size; stride } ->
      let s = one_bottom layer bottoms in
      if Shape.rank s <> 3 then
        fail "pooling needs a CHW bottom, got %s" (Shape.to_string s);
      if kernel_size <= 0 then
        fail "pooling kernel_size must be positive, got %d" kernel_size;
      let oh =
        Db_tensor.Ops.conv_output_dim ~input:(Shape.height s) ~kernel:kernel_size
          ~stride ~pad_lo:0 ~pad_hi:0
      and ow =
        Db_tensor.Ops.conv_output_dim ~input:(Shape.width s) ~kernel:kernel_size
          ~stride ~pad_lo:0 ~pad_hi:0
      in
      Shape.chw ~channels:(Shape.channels s) ~height:oh ~width:ow
  | Layer.Global_pool _ ->
      let s = one_bottom layer bottoms in
      if Shape.rank s <> 3 then
        fail "global pooling needs a CHW bottom, got %s" (Shape.to_string s);
      Shape.vector (Shape.channels s)
  | Layer.Fc { num_output; _ } ->
      let (_ : Shape.t) = one_bottom layer bottoms in
      Shape.vector num_output
  | Layer.Act _ | Layer.Dropout _ | Layer.Softmax ->
      one_bottom layer bottoms
  | Layer.Lrn _ ->
      let s = one_bottom layer bottoms in
      if Shape.rank s <> 3 then
        fail "LRN needs a CHW bottom, got %s" (Shape.to_string s);
      s
  | Layer.Lcn { window; epsilon } ->
      let s = one_bottom layer bottoms in
      if Shape.rank s <> 3 then
        fail "LCN needs a CHW bottom, got %s" (Shape.to_string s);
      if window <= 0 || window mod 2 = 0 then
        fail "LCN window must be odd and positive";
      if epsilon <= 0.0 then fail "LCN epsilon must be positive";
      s
  | Layer.Recurrent { num_output; steps; bias = _ } ->
      let (_ : Shape.t) = one_bottom layer bottoms in
      if steps <= 0 then fail "recurrent layer needs steps >= 1";
      Shape.vector num_output
  | Layer.Associative { cells_per_dim; active_cells } ->
      let s = one_bottom layer bottoms in
      if cells_per_dim <= 1 then fail "associative layer needs cells_per_dim >= 2";
      if active_cells <= 0 || active_cells > cells_per_dim then
        fail "associative layer needs 0 < active_cells <= cells_per_dim";
      Shape.vector (Shape.numel s * cells_per_dim)
  | Layer.Concat -> begin
      match bottoms with
      | [] | [ _ ] -> fail "concat needs at least two bottoms"
      | first :: _ ->
          List.iter
            (fun s ->
              if
                Shape.rank s <> 3
                || Shape.height s <> Shape.height first
                || Shape.width s <> Shape.width first
              then
                fail "concat bottoms must be CHW with equal spatial extents")
            bottoms;
          let channels =
            List.fold_left (fun acc s -> acc + Shape.channels s) 0 bottoms
          in
          Shape.chw ~channels ~height:(Shape.height first)
            ~width:(Shape.width first)
    end
  | Layer.Classifier { top_k } ->
      let s = one_bottom layer bottoms in
      if top_k <= 0 || top_k > Shape.numel s then
        fail "classifier top_k %d out of range for %s inputs" top_k
          (Shape.to_string s);
      Shape.vector top_k
  | Layer.Backward _ | Layer.Sgd_update _ ->
      fail "training op %s has no layer-level shape rule" (Layer.name layer)

let infer net =
  let table : t = ref [] in
  let shape_of blob =
    match List.assoc_opt blob !table with
    | Some s -> s
    | None -> fail "blob %S used before being produced" blob
  in
  Network.iter net (fun node ->
      let bottoms = List.map shape_of node.Network.bottoms in
      let out = layer_output_shape node.Network.layer bottoms in
      List.iter (fun top -> table := !table @ [ (top, out) ]) node.Network.tops);
  table

let blob_shape t blob =
  match List.assoc_opt blob !t with Some s -> s | None -> raise Not_found

let all_blobs t = !t
