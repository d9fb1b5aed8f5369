module Tensor = Db_tensor.Tensor
module Shape = Db_tensor.Shape

type t = (string, Tensor.t list) Hashtbl.t

let create () = Hashtbl.create 16

let set t name tensors = Hashtbl.replace t name tensors

let get t name = Option.value ~default:[] (Hashtbl.find_opt t name)

let mem t name = Hashtbl.mem t name

let fail fmt = Db_util.Error.failf_at ~component:"params" fmt

let expected_shapes layer ~bottom =
  match layer with
  | Layer.Conv { num_output; kernel_size; group; bias; _ } ->
      let cin_g = Shape.channels bottom / group in
      let w = Shape.of_list [ num_output; cin_g; kernel_size; kernel_size ] in
      if bias then [ w; Shape.vector num_output ] else [ w ]
  | Layer.Fc { num_output; bias; _ } ->
      let w = Shape.of_list [ num_output; Shape.numel bottom ] in
      if bias then [ w; Shape.vector num_output ] else [ w ]
  | Layer.Recurrent { num_output; bias; _ } ->
      let w_in = Shape.of_list [ num_output; Shape.numel bottom ] in
      let w_rec = Shape.of_list [ num_output; num_output ] in
      if bias then [ w_in; w_rec; Shape.vector num_output ]
      else [ w_in; w_rec ]
  | Layer.Input _ | Layer.Pool _ | Layer.Global_pool _
  | Layer.Act _ | Layer.Lrn _ | Layer.Lcn _ | Layer.Dropout _
  | Layer.Softmax | Layer.Associative _ | Layer.Concat | Layer.Classifier _
  | Layer.Backward _ | Layer.Sgd_update _ ->
      []

let fan_in_out shape =
  match Shape.to_list shape with
  | [ nout; nin ] -> (nin, nout)
  | [ cout; cin; kh; kw ] -> (cin * kh * kw, cout * kh * kw)
  | dims ->
      let n = List.fold_left ( * ) 1 dims in
      (n, n)

let with_bottoms net f =
  let shapes = Shape_infer.infer net in
  Network.iter net (fun node ->
      match node.Network.bottoms with
      | [ bottom ] -> f node (Shape_infer.blob_shape shapes bottom)
      | [] | _ :: _ :: _ -> ())

let init_xavier rng net =
  let t = create () in
  with_bottoms net (fun node bottom ->
      let shapes = expected_shapes node.Network.layer ~bottom in
      if shapes <> [] then begin
        (* The bias, when present, is the last tensor and starts at zero. *)
        let n_weight_tensors =
          List.length shapes - if Layer.has_bias node.Network.layer then 1 else 0
        in
        let tensors =
          List.mapi
            (fun i shape ->
              if i < n_weight_tensors then begin
                let fan_in, fan_out = fan_in_out shape in
                let bound = sqrt (6.0 /. float_of_int (fan_in + fan_out)) in
                Tensor.random_uniform rng shape ~min:(-.bound) ~max:bound
              end
              else Tensor.create shape)
            shapes
        in
        set t node.Network.node_name tensors
      end);
  t

let validate net t =
  with_bottoms net (fun node bottom ->
      let expected = expected_shapes node.Network.layer ~bottom in
      if expected <> [] then begin
        let actual = get t node.Network.node_name in
        if List.length actual <> List.length expected then
          fail "layer %S: expected %d parameter tensors, found %d"
            node.Network.node_name (List.length expected) (List.length actual);
        List.iteri
          (fun i (exp_shape : Shape.t) ->
            let act_shape = Tensor.shape (List.nth actual i) in
            if not (Shape.equal exp_shape act_shape) then
              fail "layer %S parameter %d: expected shape %s, found %s"
                node.Network.node_name i (Shape.to_string exp_shape)
                (Shape.to_string act_shape))
          expected
      end)

let count_parameters net t =
  Network.fold net ~init:0 ~f:(fun acc node ->
      List.fold_left
        (fun acc tensor -> acc + Tensor.numel tensor)
        acc
        (get t node.Network.node_name))

let iter t f = Hashtbl.iter f t

let copy t =
  let fresh = create () in
  Hashtbl.iter (fun name tensors -> Hashtbl.replace fresh name (List.map Tensor.copy tensors)) t;
  fresh
