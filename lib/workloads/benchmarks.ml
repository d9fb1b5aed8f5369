module Tensor = Db_tensor.Tensor
module Shape = Db_tensor.Shape
module Network = Db_nn.Network
module Params = Db_nn.Params
module Rng = Db_util.Rng
module Trainer = Db_train.Trainer

type accuracy_spec =
  | Classification of { labels : int array }
  | Relative of {
      golden : Tensor.t array;
      postprocess : Tensor.t -> Tensor.t;
    }

type prepared = {
  accuracy_network : Network.t;
  params : Params.t;
  input_blob : string;
  eval_inputs : Tensor.t array;
  accuracy : accuracy_spec;
}

type t = {
  bench_name : string;
  application : string;
  network : Network.t;
  dsp_cap : int;
  prepare : seed:int -> prepared;
}

let alexnet_l_dsp_cap = 144

let id_post t = t

(* --- AxBench approximator ANNs ------------------------------------- *)

let ann_training_config epochs =
  {
    Trainer.default_config with
    Trainer.epochs;
    batch_size = 8;
    learning_rate = 0.3;
    momentum = 0.9;
    loss = Db_train.Loss.Mean_squared_error;
  }

(* Train an MLP to mimic [golden] over inputs drawn by [draw]. *)
let prepare_approximator ~seed ~network ~draw ~golden ~train_count ~eval_count
    ~epochs =
  let rng = Rng.create seed in
  let params = Params.init_xavier rng network in
  let sample () =
    let input = draw rng in
    let target = Tensor.of_array (Shape.vector (Array.length (golden input))) (golden input) in
    { Trainer.input = Tensor.of_array (Shape.vector (Array.length input)) input; target }
  in
  let train_set = Array.init train_count (fun _ -> sample ()) in
  let (_ : Trainer.history) =
    Trainer.train ~config:(ann_training_config epochs) ~rng network params
      train_set
  in
  let eval_raw = Array.init eval_count (fun _ -> draw rng) in
  {
    accuracy_network = network;
    params;
    input_blob = "data";
    eval_inputs =
      Array.map
        (fun i -> Tensor.of_array (Shape.vector (Array.length i)) i)
        eval_raw;
    accuracy =
      Relative
        {
          golden =
            Array.map
              (fun i ->
                let g = golden i in
                Tensor.of_array (Shape.vector (Array.length g)) g)
              eval_raw;
          postprocess = id_post;
        };
  }

(* ANN-0 approximates the twiddle-factor kernel inside the fft, exactly as
   the AxBench fft approximator does: normalised angle in, (cos, sin) out. *)
let draw_twiddle rng = [| Rng.float rng 1.0 |]

let twiddle_golden input =
  let angle = 2.0 *. Float.pi *. input.(0) in
  [| cos angle; sin angle |]

let draw_jpeg_block rng =
  (* Smooth gradient patches: what DCT codecs are good at. *)
  let base = Rng.uniform rng ~min:0.2 ~max:0.8 in
  let gx = Rng.uniform rng ~min:(-0.15) ~max:0.15 in
  let gy = Rng.uniform rng ~min:(-0.15) ~max:0.15 in
  Array.init (Axbench.jpeg_block * Axbench.jpeg_block) (fun i ->
      let y = i / Axbench.jpeg_block and x = i mod Axbench.jpeg_block in
      Float.min 1.0
        (Float.max 0.0
           (base
           +. (gx *. float_of_int x)
           +. (gy *. float_of_int y)
           +. Rng.gaussian rng ~mean:0.0 ~stddev:0.02)))

let draw_rgb rng =
  [| Rng.float rng 1.0; Rng.float rng 1.0; Rng.float rng 1.0 |]

(* --- CMAC ----------------------------------------------------------- *)

let prepare_cmac ~seed =
  let rng = Rng.create seed in
  let surrogate = Model_zoo.build Model_zoo.cmac_surrogate_prototxt in
  let sparams = Params.init_xavier rng surrogate in
  let data = Datasets.arm_samples rng ~count:300 in
  let train_set =
    Array.map (fun (input, target) -> { Trainer.input; target }) data
  in
  let (_ : Trainer.history) =
    Trainer.train
      ~config:
        {
          Trainer.default_config with
          Trainer.epochs = 60;
          learning_rate = 0.2;
          batch_size = 8;
        }
      ~rng surrogate sparams train_set
  in
  (* Transplant: FC+tanh == Recurrent with zero feedback weights. *)
  let network = Model_zoo.build Model_zoo.cmac_prototxt in
  let params = Params.create () in
  (match Params.get sparams "smooth" with
  | [ w; b ] ->
      let w_rec = Tensor.create (Shape.of_list [ 16; 16 ]) in
      Params.set params "smooth" [ w; w_rec; b ]
  | _ -> Db_util.Error.fail "cmac surrogate: unexpected smooth params");
  Params.set params "joints" (Params.get sparams "joints");
  let eval = Datasets.arm_samples rng ~count:60 in
  {
    accuracy_network = network;
    params;
    input_blob = "target";
    eval_inputs = Array.map fst eval;
    accuracy = Relative { golden = Array.map snd eval; postprocess = id_post };
  }

(* --- Hopfield -------------------------------------------------------- *)

let prepare_hopfield ~seed =
  let rng = Rng.create seed in
  (* The Hopfield-Tank relaxation is a heuristic whose basin of attraction
     depends on the instance; pick the instance (out of a handful) the
     float network solves best, as the representative benchmark. *)
  let candidates =
    List.init 6 (fun _ ->
        let cities = Datasets.tsp_instance rng ~cities:5 in
        let h = Hopfield.build ~cities () in
        let tour = Hopfield.solve h in
        (cities, h, Hopfield.tour_quality h tour))
  in
  let cities, h, _ =
    List.fold_left
      (fun (bc, bh, bq) (c, h, q) -> if q > bq then (c, h, q) else (bc, bh, bq))
      (match candidates with
      | first :: _ -> first
      | [] -> assert false)
      candidates
  in
  let optimal = Datasets.tsp_optimal_length cities in
  let postprocess activations =
    let tour = Hopfield.decode_tour h activations in
    Tensor.of_array Shape.scalar [| Datasets.tour_length cities tour |]
  in
  {
    accuracy_network = h.Hopfield.network;
    params = h.Hopfield.params;
    input_blob = Hopfield.input_blob;
    eval_inputs = [| h.Hopfield.input |];
    accuracy =
      Relative
        {
          golden = [| Tensor.of_array Shape.scalar [| optimal |] |];
          postprocess;
        };
  }

(* --- Classification CNNs --------------------------------------------- *)

let prepare_classifier ~seed ~network ~make_data ~train_count ~eval_count
    ~epochs ~learning_rate =
  let rng = Rng.create seed in
  let params = Params.init_xavier rng network in
  let data = make_data rng (train_count + eval_count) in
  let train = Array.sub data 0 train_count in
  let eval = Array.sub data train_count eval_count in
  let classes =
    match Network.output_blobs network with
    | [ _ ] -> begin
        let shapes = Db_nn.Shape_infer.infer network in
        match Network.output_blobs network with
        | [ blob ] -> Shape.numel (Db_nn.Shape_infer.blob_shape shapes blob)
        | _ -> 10
      end
    | _ -> 10
  in
  let train_set =
    Array.map
      (fun (s : Datasets.labeled) ->
        {
          Trainer.input = s.Datasets.image;
          target = Db_train.Loss.one_hot ~classes s.Datasets.label;
        })
      train
  in
  let (_ : Trainer.history) =
    Trainer.train
      ~config:
        {
          Trainer.default_config with
          Trainer.epochs = epochs;
          learning_rate;
          batch_size = 8;
          loss = Db_train.Loss.Softmax_cross_entropy;
        }
      ~rng network params train_set
  in
  {
    accuracy_network = network;
    params;
    input_blob = "data";
    eval_inputs = Array.map (fun s -> s.Datasets.image) eval;
    accuracy =
      Classification { labels = Array.map (fun s -> s.Datasets.label) eval };
  }

(* MNIST trains without the final softmax (the trainer's cross-entropy
   applies softmax itself); accuracy runs on the same logits network. *)
let strip_softmax net =
  let nodes =
    List.filter
      (fun n -> n.Network.layer <> Db_nn.Layer.Softmax)
      net.Network.nodes
  in
  Network.create ~name:(net.Network.net_name ^ "-logits") nodes

(* --- ImageNet-scale nets: fidelity against the float reference ------- *)

let prepare_fidelity ~seed ~network ~input_shape ~samples =
  let rng = Rng.create seed in
  let logits_net = strip_softmax network in
  let params = Params.init_xavier rng logits_net in
  (* He-style gain for the deep ReLU stacks: plain Xavier lets activations
     shrink by ~1/sqrt(2) per ReLU layer, and after 20+ layers they sink
     under the Q8.8 quantisation step, which would measure the number
     format instead of the accelerator.  Scale the weight matrices (not the
     zero biases) by sqrt 2 to keep activation magnitudes stationary. *)
  Params.iter params (fun _name tensors ->
      match tensors with
      | w :: _ ->
          for i = 0 to Tensor.numel w - 1 do
            Tensor.unsafe_set w i (Tensor.unsafe_get w i *. sqrt 2.0)
          done
      | [] -> ());
  let eval_inputs =
    Array.init samples (fun _ ->
        Tensor.random_uniform rng input_shape ~min:0.0 ~max:1.0)
  in
  let g = Db_ir.Lower.lower logits_net in
  let golden =
    Array.map
      (fun input -> Db_ir.Interp.output g params ~inputs:[ ("data", input) ])
      eval_inputs
  in
  {
    accuracy_network = logits_net;
    params;
    input_blob = "data";
    eval_inputs;
    accuracy = Relative { golden; postprocess = id_post };
  }

(* --- The registry ----------------------------------------------------- *)

let ann0_net = Model_zoo.build (Model_zoo.ann_prototxt ~name:"ann0" ~inputs:1 ~hidden1:8 ~hidden2:8 ~outputs:2)
let ann1_net = Model_zoo.build (Model_zoo.ann_prototxt ~name:"ann1" ~inputs:16 ~hidden1:24 ~hidden2:24 ~outputs:16)
let ann2_net = Model_zoo.build (Model_zoo.ann_prototxt ~name:"ann2" ~inputs:3 ~hidden1:16 ~hidden2:16 ~outputs:3)

let all =
  [
    {
      bench_name = "ANN-0";
      application = "fft";
      network = ann0_net;
      dsp_cap = 2;
      prepare =
        (fun ~seed ->
          prepare_approximator ~seed ~network:ann0_net ~draw:draw_twiddle
            ~golden:twiddle_golden ~train_count:400 ~eval_count:60
            ~epochs:250);
    };
    {
      bench_name = "ANN-1";
      application = "jpeg";
      network = ann1_net;
      dsp_cap = 2;
      prepare =
        (fun ~seed ->
          prepare_approximator ~seed ~network:ann1_net ~draw:draw_jpeg_block
            ~golden:Axbench.jpeg_golden ~train_count:300 ~eval_count:60
            ~epochs:150);
    };
    {
      bench_name = "ANN-2";
      application = "kmeans";
      network = ann2_net;
      dsp_cap = 2;
      prepare =
        (fun ~seed ->
          prepare_approximator ~seed ~network:ann2_net ~draw:draw_rgb
            ~golden:Axbench.kmeans_golden ~train_count:600 ~eval_count:60
            ~epochs:300);
    };
    {
      bench_name = "Alexnet";
      application = "Image recognition";
      network = Model_zoo.build Model_zoo.alexnet_prototxt;
      dsp_cap = 9;
      prepare =
        (fun ~seed ->
          prepare_fidelity ~seed
            ~network:(Model_zoo.build Model_zoo.alexnet_prototxt)
            ~input_shape:(Shape.chw ~channels:3 ~height:227 ~width:227)
            ~samples:1);
    };
    {
      bench_name = "NiN";
      application = "Image recognition";
      network = Model_zoo.build Model_zoo.nin_prototxt;
      dsp_cap = 42;
      prepare =
        (fun ~seed ->
          prepare_fidelity ~seed
            ~network:(Model_zoo.build Model_zoo.nin_prototxt)
            ~input_shape:(Shape.chw ~channels:3 ~height:227 ~width:227)
            ~samples:1);
    };
    {
      bench_name = "Cifar";
      application = "Image classification";
      network = Model_zoo.build Model_zoo.cifar_prototxt;
      dsp_cap = 12;
      prepare =
        (fun ~seed ->
          prepare_classifier ~seed
            ~network:(strip_softmax (Model_zoo.build Model_zoo.cifar_lite_prototxt))
            ~make_data:(fun rng count ->
              Datasets.colour_patterns rng ~size:16 ~count ~classes:10)
            ~train_count:300 ~eval_count:80 ~epochs:10 ~learning_rate:0.02);
    };
    {
      bench_name = "CMAC";
      application = "Robot arm control";
      network = Model_zoo.build Model_zoo.cmac_prototxt;
      dsp_cap = 1;
      prepare = (fun ~seed -> prepare_cmac ~seed);
    };
    {
      bench_name = "Hopfield";
      application = "TSP solver";
      network = Model_zoo.build (Model_zoo.hopfield_prototxt ~cities:5);
      dsp_cap = 2;
      prepare = (fun ~seed -> prepare_hopfield ~seed);
    };
    {
      bench_name = "MNIST";
      application = "Number recognition";
      network = Model_zoo.build Model_zoo.mnist_prototxt;
      dsp_cap = 12;
      prepare =
        (fun ~seed ->
          prepare_classifier ~seed
            ~network:(strip_softmax (Model_zoo.build Model_zoo.mnist_prototxt))
            ~make_data:(fun rng count -> Datasets.digit_glyphs rng ~size:16 ~count)
            ~train_count:300 ~eval_count:100 ~epochs:8 ~learning_rate:0.03);
    };
  ]

let find name = List.find (fun b -> b.bench_name = name) all

let cache : (string * int, prepared) Hashtbl.t = Hashtbl.create 16

(* Benchmarks are prepared from parallel experiment loops; serialise access
   to the table (preparation itself runs outside the lock, and a racing
   duplicate preparation is deterministic so either insert is fine). *)
let cache_lock = Mutex.create ()

let prepare_cached t ~seed =
  let key = (t.bench_name, seed) in
  let cached =
    Mutex.lock cache_lock;
    let r = Hashtbl.find_opt cache key in
    Mutex.unlock cache_lock;
    r
  in
  match cached with
  | Some p -> p
  | None ->
      let p = t.prepare ~seed in
      Mutex.lock cache_lock;
      let p =
        match Hashtbl.find_opt cache key with
        | Some existing -> existing
        | None ->
            Hashtbl.add cache key p;
            p
      in
      Mutex.unlock cache_lock;
      p

let accuracy_percent_prefix prepared outputs =
  if Array.length outputs = 0 then
    invalid_arg "Benchmarks.accuracy_percent: no outputs";
  match prepared.accuracy with
  | Classification { labels } ->
      if Array.length outputs > Array.length labels then
        invalid_arg "Benchmarks.accuracy_percent: count mismatch";
      let correct = ref 0 in
      Array.iteri
        (fun i out -> if Tensor.max_index out = labels.(i) then incr correct)
        outputs;
      100.0 *. float_of_int !correct /. float_of_int (Array.length outputs)
  | Relative { golden; postprocess } ->
      if Array.length outputs > Array.length golden then
        invalid_arg "Benchmarks.accuracy_percent: count mismatch";
      let scores =
        Array.mapi
          (fun i out ->
            Db_util.Stats.rel_distance_accuracy
              ~golden:(Tensor.to_array golden.(i))
              ~approx:(Tensor.to_array (postprocess out)))
          outputs
      in
      Db_util.Stats.mean scores

let accuracy_percent prepared outputs =
  let expected =
    match prepared.accuracy with
    | Classification { labels } -> Array.length labels
    | Relative { golden; _ } -> Array.length golden
  in
  if Array.length outputs <> expected then
    invalid_arg "Benchmarks.accuracy_percent: count mismatch";
  accuracy_percent_prefix prepared outputs
