let ann_prototxt ~name ~inputs ~hidden1 ~hidden2 ~outputs =
  Printf.sprintf
    {|
name: "%s"
layers { name: "data" type: INPUT top: "data" input_param { dim: %d } }
layers { name: "fc1" type: INNER_PRODUCT bottom: "data" top: "fc1"
  inner_product_param { num_output: %d } }
layers { name: "act1" type: SIGMOID bottom: "fc1" top: "act1" }
layers { name: "fc2" type: INNER_PRODUCT bottom: "act1" top: "fc2"
  inner_product_param { num_output: %d } }
layers { name: "act2" type: SIGMOID bottom: "fc2" top: "act2" }
layers { name: "fc3" type: INNER_PRODUCT bottom: "act2" top: "fc3"
  inner_product_param { num_output: %d } }
|}
    name inputs hidden1 hidden2 outputs

let mlp_prototxt =
  {|
name: "mlp"
layers { name: "data" type: INPUT top: "data" input_param { dim: 16 } }
layers { name: "hidden" type: INNER_PRODUCT bottom: "data" top: "hidden"
  inner_product_param { num_output: 32 } }
layers { name: "act" type: SIGMOID bottom: "hidden" top: "act" }
layers { name: "out" type: INNER_PRODUCT bottom: "act" top: "out"
  inner_product_param { num_output: 8 } }
|}

let cmac_prototxt =
  {|
name: "cmac"
layers { name: "target" type: INPUT top: "target" input_param { dim: 2 } }
layers { name: "tiles" type: ASSOCIATIVE bottom: "target" top: "tiles"
  associative_param { cells_per_dim: 32 active_cells: 4 } }
layers { name: "smooth" type: RECURRENT bottom: "tiles" top: "smooth"
  recurrent_param { num_output: 16 steps: 2 }
  connect { name: "s2s" direction: recurrent type: file_specified } }
layers { name: "joints" type: INNER_PRODUCT bottom: "smooth" top: "joints"
  inner_product_param { num_output: 2 } }
layers { name: "squash" type: SIGMOID bottom: "joints" top: "squash" }
|}

let cmac_surrogate_prototxt =
  {|
name: "cmac-surrogate"
layers { name: "target" type: INPUT top: "target" input_param { dim: 2 } }
layers { name: "tiles" type: ASSOCIATIVE bottom: "target" top: "tiles"
  associative_param { cells_per_dim: 32 active_cells: 4 } }
layers { name: "smooth" type: INNER_PRODUCT bottom: "tiles" top: "smooth"
  inner_product_param { num_output: 16 } }
layers { name: "smooth_act" type: TANH bottom: "smooth" top: "smooth_act" }
layers { name: "joints" type: INNER_PRODUCT bottom: "smooth_act" top: "joints"
  inner_product_param { num_output: 2 } }
layers { name: "squash" type: SIGMOID bottom: "joints" top: "squash" }
|}

let mnist_prototxt =
  {|
name: "mnist"
layers { name: "data" type: INPUT top: "data"
  input_param { dim: 1 dim: 16 dim: 16 } }
layers { name: "conv1" type: CONVOLUTION bottom: "data" top: "conv1"
  convolution_param { num_output: 8 kernel_size: 5 stride: 1 pad: 2 } }
layers { name: "relu1" type: RELU bottom: "conv1" top: "relu1" }
layers { name: "pool1" type: POOLING bottom: "relu1" top: "pool1"
  pooling_param { pool: MAX kernel_size: 2 stride: 2 } }
layers { name: "norm1" type: LRN bottom: "pool1" top: "norm1"
  lrn_param { local_size: 3 alpha: 0.0001 beta: 0.75 k: 1.0 } }
layers { name: "conv2" type: CONVOLUTION bottom: "norm1" top: "conv2"
  convolution_param { num_output: 16 kernel_size: 3 stride: 1 pad: 1 } }
layers { name: "relu2" type: RELU bottom: "conv2" top: "relu2" }
layers { name: "pool2" type: POOLING bottom: "relu2" top: "pool2"
  pooling_param { pool: MAX kernel_size: 2 stride: 2 } }
layers { name: "ip1" type: INNER_PRODUCT bottom: "pool2" top: "ip1"
  inner_product_param { num_output: 10 } }
layers { name: "prob" type: SOFTMAX bottom: "ip1" top: "prob" }
|}

let cifar_prototxt =
  {|
name: "cifar"
layers { name: "data" type: INPUT top: "data"
  input_param { dim: 3 dim: 32 dim: 32 } }
layers { name: "conv1" type: CONVOLUTION bottom: "data" top: "conv1"
  convolution_param { num_output: 32 kernel_size: 5 stride: 1 pad: 2 } }
layers { name: "pool1" type: POOLING bottom: "conv1" top: "pool1"
  pooling_param { pool: MAX kernel_size: 2 stride: 2 } }
layers { name: "relu1" type: RELU bottom: "pool1" top: "relu1" }
layers { name: "conv2" type: CONVOLUTION bottom: "relu1" top: "conv2"
  convolution_param { num_output: 32 kernel_size: 5 stride: 1 pad: 2 } }
layers { name: "relu2" type: RELU bottom: "conv2" top: "relu2" }
layers { name: "pool2" type: POOLING bottom: "relu2" top: "pool2"
  pooling_param { pool: AVE kernel_size: 2 stride: 2 } }
layers { name: "conv3" type: CONVOLUTION bottom: "pool2" top: "conv3"
  convolution_param { num_output: 64 kernel_size: 5 stride: 1 pad: 2 } }
layers { name: "relu3" type: RELU bottom: "conv3" top: "relu3" }
layers { name: "pool3" type: POOLING bottom: "relu3" top: "pool3"
  pooling_param { pool: AVE kernel_size: 2 stride: 2 } }
layers { name: "ip1" type: INNER_PRODUCT bottom: "pool3" top: "ip1"
  inner_product_param { num_output: 64 } }
layers { name: "ip2" type: INNER_PRODUCT bottom: "ip1" top: "ip2"
  inner_product_param { num_output: 10 } }
layers { name: "prob" type: SOFTMAX bottom: "ip2" top: "prob" }
|}

let cifar_lite_prototxt =
  {|
name: "cifar-lite"
layers { name: "data" type: INPUT top: "data"
  input_param { dim: 3 dim: 16 dim: 16 } }
layers { name: "conv1" type: CONVOLUTION bottom: "data" top: "conv1"
  convolution_param { num_output: 12 kernel_size: 5 stride: 1 pad: 2 } }
layers { name: "pool1" type: POOLING bottom: "conv1" top: "pool1"
  pooling_param { pool: MAX kernel_size: 2 stride: 2 } }
layers { name: "relu1" type: RELU bottom: "pool1" top: "relu1" }
layers { name: "conv2" type: CONVOLUTION bottom: "relu1" top: "conv2"
  convolution_param { num_output: 16 kernel_size: 3 stride: 1 pad: 1 } }
layers { name: "relu2" type: RELU bottom: "conv2" top: "relu2" }
layers { name: "pool2" type: POOLING bottom: "relu2" top: "pool2"
  pooling_param { pool: AVE kernel_size: 2 stride: 2 } }
layers { name: "ip1" type: INNER_PRODUCT bottom: "pool2" top: "ip1"
  inner_product_param { num_output: 32 } }
layers { name: "relu3" type: RELU bottom: "ip1" top: "relu3" }
layers { name: "ip2" type: INNER_PRODUCT bottom: "relu3" top: "ip2"
  inner_product_param { num_output: 10 } }
layers { name: "prob" type: SOFTMAX bottom: "ip2" top: "prob" }
|}

let alexnet_prototxt =
  {|
name: "alexnet"
layers { name: "data" type: INPUT top: "data"
  input_param { dim: 3 dim: 227 dim: 227 } }
layers { name: "conv1" type: CONVOLUTION bottom: "data" top: "conv1"
  convolution_param { num_output: 96 kernel_size: 11 stride: 4 } }
layers { name: "relu1" type: RELU bottom: "conv1" top: "relu1" }
layers { name: "norm1" type: LRN bottom: "relu1" top: "norm1"
  lrn_param { local_size: 5 alpha: 0.0001 beta: 0.75 k: 1.0 } }
layers { name: "pool1" type: POOLING bottom: "norm1" top: "pool1"
  pooling_param { pool: MAX kernel_size: 3 stride: 2 } }
layers { name: "conv2" type: CONVOLUTION bottom: "pool1" top: "conv2"
  convolution_param { num_output: 256 kernel_size: 5 pad: 2 group: 2 } }
layers { name: "relu2" type: RELU bottom: "conv2" top: "relu2" }
layers { name: "norm2" type: LRN bottom: "relu2" top: "norm2"
  lrn_param { local_size: 5 alpha: 0.0001 beta: 0.75 k: 1.0 } }
layers { name: "pool2" type: POOLING bottom: "norm2" top: "pool2"
  pooling_param { pool: MAX kernel_size: 3 stride: 2 } }
layers { name: "conv3" type: CONVOLUTION bottom: "pool2" top: "conv3"
  convolution_param { num_output: 384 kernel_size: 3 pad: 1 } }
layers { name: "relu3" type: RELU bottom: "conv3" top: "relu3" }
layers { name: "conv4" type: CONVOLUTION bottom: "relu3" top: "conv4"
  convolution_param { num_output: 384 kernel_size: 3 pad: 1 group: 2 } }
layers { name: "relu4" type: RELU bottom: "conv4" top: "relu4" }
layers { name: "conv5" type: CONVOLUTION bottom: "relu4" top: "conv5"
  convolution_param { num_output: 256 kernel_size: 3 pad: 1 group: 2 } }
layers { name: "relu5" type: RELU bottom: "conv5" top: "relu5" }
layers { name: "pool5" type: POOLING bottom: "relu5" top: "pool5"
  pooling_param { pool: MAX kernel_size: 3 stride: 2 } }
layers { name: "fc6" type: INNER_PRODUCT bottom: "pool5" top: "fc6"
  inner_product_param { num_output: 4096 } }
layers { name: "relu6" type: RELU bottom: "fc6" top: "relu6" }
layers { name: "drop6" type: DROPOUT bottom: "relu6" top: "drop6"
  dropout_param { dropout_ratio: 0.5 } }
layers { name: "fc7" type: INNER_PRODUCT bottom: "drop6" top: "fc7"
  inner_product_param { num_output: 4096 } }
layers { name: "relu7" type: RELU bottom: "fc7" top: "relu7" }
layers { name: "drop7" type: DROPOUT bottom: "relu7" top: "drop7"
  dropout_param { dropout_ratio: 0.5 } }
layers { name: "fc8" type: INNER_PRODUCT bottom: "drop7" top: "fc8"
  inner_product_param { num_output: 1000 } }
layers { name: "prob" type: SOFTMAX bottom: "fc8" top: "prob" }
|}

let nin_prototxt =
  {|
name: "nin"
layers { name: "data" type: INPUT top: "data"
  input_param { dim: 3 dim: 227 dim: 227 } }
layers { name: "conv1" type: CONVOLUTION bottom: "data" top: "conv1"
  convolution_param { num_output: 96 kernel_size: 11 stride: 4 } }
layers { name: "relu0" type: RELU bottom: "conv1" top: "relu0" }
layers { name: "cccp1" type: CONVOLUTION bottom: "relu0" top: "cccp1"
  convolution_param { num_output: 96 kernel_size: 1 } }
layers { name: "relu1" type: RELU bottom: "cccp1" top: "relu1" }
layers { name: "cccp2" type: CONVOLUTION bottom: "relu1" top: "cccp2"
  convolution_param { num_output: 96 kernel_size: 1 } }
layers { name: "relu2" type: RELU bottom: "cccp2" top: "relu2" }
layers { name: "pool1" type: POOLING bottom: "relu2" top: "pool1"
  pooling_param { pool: MAX kernel_size: 3 stride: 2 } }
layers { name: "conv2" type: CONVOLUTION bottom: "pool1" top: "conv2"
  convolution_param { num_output: 256 kernel_size: 5 pad: 2 } }
layers { name: "relu3" type: RELU bottom: "conv2" top: "relu3" }
layers { name: "cccp3" type: CONVOLUTION bottom: "relu3" top: "cccp3"
  convolution_param { num_output: 256 kernel_size: 1 } }
layers { name: "relu4" type: RELU bottom: "cccp3" top: "relu4" }
layers { name: "cccp4" type: CONVOLUTION bottom: "relu4" top: "cccp4"
  convolution_param { num_output: 256 kernel_size: 1 } }
layers { name: "relu5" type: RELU bottom: "cccp4" top: "relu5" }
layers { name: "pool2" type: POOLING bottom: "relu5" top: "pool2"
  pooling_param { pool: MAX kernel_size: 3 stride: 2 } }
layers { name: "conv3" type: CONVOLUTION bottom: "pool2" top: "conv3"
  convolution_param { num_output: 384 kernel_size: 3 pad: 1 } }
layers { name: "relu6" type: RELU bottom: "conv3" top: "relu6" }
layers { name: "cccp5" type: CONVOLUTION bottom: "relu6" top: "cccp5"
  convolution_param { num_output: 384 kernel_size: 1 } }
layers { name: "relu7" type: RELU bottom: "cccp5" top: "relu7" }
layers { name: "cccp6" type: CONVOLUTION bottom: "relu7" top: "cccp6"
  convolution_param { num_output: 384 kernel_size: 1 } }
layers { name: "relu8" type: RELU bottom: "cccp6" top: "relu8" }
layers { name: "pool3" type: POOLING bottom: "relu8" top: "pool3"
  pooling_param { pool: MAX kernel_size: 3 stride: 2 } }
layers { name: "drop" type: DROPOUT bottom: "pool3" top: "drop"
  dropout_param { dropout_ratio: 0.5 } }
layers { name: "conv4" type: CONVOLUTION bottom: "drop" top: "conv4"
  convolution_param { num_output: 1024 kernel_size: 3 pad: 1 } }
layers { name: "relu9" type: RELU bottom: "conv4" top: "relu9" }
layers { name: "cccp7" type: CONVOLUTION bottom: "relu9" top: "cccp7"
  convolution_param { num_output: 1024 kernel_size: 1 } }
layers { name: "relu10" type: RELU bottom: "cccp7" top: "relu10" }
layers { name: "cccp8" type: CONVOLUTION bottom: "relu10" top: "cccp8"
  convolution_param { num_output: 1000 kernel_size: 1 } }
layers { name: "gap" type: GLOBAL_POOLING bottom: "cccp8" top: "gap"
  pooling_param { pool: AVE } }
layers { name: "prob" type: SOFTMAX bottom: "gap" top: "prob" }
|}

let googlenet_like_prototxt =
  {|
name: "googlenet-like"
layers { name: "data" type: INPUT top: "data"
  input_param { dim: 3 dim: 32 dim: 32 } }
layers { name: "stem" type: CONVOLUTION bottom: "data" top: "stem"
  convolution_param { num_output: 16 kernel_size: 3 pad: 1 } }
layers { name: "stem_relu" type: RELU bottom: "stem" top: "stem_relu" }
layers { name: "norm1" type: LRN bottom: "stem_relu" top: "norm1"
  lrn_param { local_size: 3 alpha: 0.0001 beta: 0.75 k: 1.0 } }
layers { name: "inc_1x1" type: CONVOLUTION bottom: "norm1" top: "inc_1x1"
  convolution_param { num_output: 8 kernel_size: 1 } }
layers { name: "inc_3x3" type: CONVOLUTION bottom: "norm1" top: "inc_3x3"
  convolution_param { num_output: 8 kernel_size: 3 pad: 1 } }
layers { name: "inc_5x5" type: CONVOLUTION bottom: "norm1" top: "inc_5x5"
  convolution_param { num_output: 8 kernel_size: 5 pad: 2 } }
layers { name: "inception" type: CONCAT bottom: "inc_1x1" bottom: "inc_3x3"
  bottom: "inc_5x5" top: "inception" }
layers { name: "inc_relu" type: RELU bottom: "inception" top: "inc_relu" }
layers { name: "pool" type: POOLING bottom: "inc_relu" top: "pool"
  pooling_param { pool: MAX kernel_size: 2 stride: 2 } }
layers { name: "drop" type: DROPOUT bottom: "pool" top: "drop"
  dropout_param { dropout_ratio: 0.4 } }
layers { name: "fc" type: INNER_PRODUCT bottom: "drop" top: "fc"
  inner_product_param { num_output: 10 } }
layers { name: "prob" type: SOFTMAX bottom: "fc" top: "prob" }
|}

let lenet5_prototxt =
  {|
name: "lenet-5"
layers { name: "data" type: INPUT top: "data"
  input_param { dim: 1 dim: 32 dim: 32 } }
layers { name: "c1" type: CONVOLUTION bottom: "data" top: "c1"
  convolution_param { num_output: 6 kernel_size: 5 } }
layers { name: "t1" type: TANH bottom: "c1" top: "t1" }
layers { name: "s2" type: POOLING bottom: "t1" top: "s2"
  pooling_param { pool: AVE kernel_size: 2 stride: 2 } }
layers { name: "c3" type: CONVOLUTION bottom: "s2" top: "c3"
  convolution_param { num_output: 16 kernel_size: 5 } }
layers { name: "t2" type: TANH bottom: "c3" top: "t2" }
layers { name: "s4" type: POOLING bottom: "t2" top: "s4"
  pooling_param { pool: AVE kernel_size: 2 stride: 2 } }
layers { name: "c5" type: INNER_PRODUCT bottom: "s4" top: "c5"
  inner_product_param { num_output: 120 } }
layers { name: "t3" type: TANH bottom: "c5" top: "t3" }
layers { name: "f6" type: INNER_PRODUCT bottom: "t3" top: "f6"
  inner_product_param { num_output: 84 } }
layers { name: "t4" type: TANH bottom: "f6" top: "t4" }
layers { name: "out" type: INNER_PRODUCT bottom: "t4" top: "out"
  inner_product_param { num_output: 10 } }
|}

let vgg16_prototxt =
  let conv name bottom top n =
    Printf.sprintf
      {|layers { name: "%s" type: CONVOLUTION bottom: "%s" top: "%s"
  convolution_param { num_output: %d kernel_size: 3 pad: 1 } }
layers { name: "%s_r" type: RELU bottom: "%s" top: "%sr" }
|}
      name bottom top n name top top
  in
  let pool name bottom top =
    Printf.sprintf
      {|layers { name: "%s" type: POOLING bottom: "%s" top: "%s"
  pooling_param { pool: MAX kernel_size: 2 stride: 2 } }
|}
      name bottom top
  in
  String.concat ""
    [
      "name: \"vgg-16\"\n";
      {|layers { name: "data" type: INPUT top: "data"
  input_param { dim: 3 dim: 224 dim: 224 } }
|};
      conv "conv1_1" "data" "c11" 64;
      conv "conv1_2" "c11r" "c12" 64;
      pool "pool1" "c12r" "p1";
      conv "conv2_1" "p1" "c21" 128;
      conv "conv2_2" "c21r" "c22" 128;
      pool "pool2" "c22r" "p2";
      conv "conv3_1" "p2" "c31" 256;
      conv "conv3_2" "c31r" "c32" 256;
      conv "conv3_3" "c32r" "c33" 256;
      pool "pool3" "c33r" "p3";
      conv "conv4_1" "p3" "c41" 512;
      conv "conv4_2" "c41r" "c42" 512;
      conv "conv4_3" "c42r" "c43" 512;
      pool "pool4" "c43r" "p4";
      conv "conv5_1" "p4" "c51" 512;
      conv "conv5_2" "c51r" "c52" 512;
      conv "conv5_3" "c52r" "c53" 512;
      pool "pool5" "c53r" "p5";
      {|layers { name: "fc6" type: INNER_PRODUCT bottom: "p5" top: "fc6"
  inner_product_param { num_output: 4096 } }
layers { name: "relu6" type: RELU bottom: "fc6" top: "fc6r" }
layers { name: "fc7" type: INNER_PRODUCT bottom: "fc6r" top: "fc7"
  inner_product_param { num_output: 4096 } }
layers { name: "relu7" type: RELU bottom: "fc7" top: "fc7r" }
layers { name: "fc8" type: INNER_PRODUCT bottom: "fc7r" top: "fc8"
  inner_product_param { num_output: 1000 } }
layers { name: "prob" type: SOFTMAX bottom: "fc8" top: "prob" }
|};
    ]

let hopfield_prototxt ~cities =
  let units = cities * cities in
  Printf.sprintf
    {|
name: "hopfield-tsp"
layers { name: "bias_in" type: INPUT top: "bias" input_param { dim: %d } }
layers { name: "relax" type: RECURRENT bottom: "bias" top: "state"
  recurrent_param { num_output: %d steps: 60 bias_term: false }
  connect { name: "p2f2" direction: recurrent type: file_specified } }
|}
    units units

let build src = Db_nn.Caffe.import_string src

let named =
  [
    ("mlp", mlp_prototxt);
    ("cmac", cmac_prototxt);
    ("mnist", mnist_prototxt);
    ("cifar", cifar_prototxt);
    ("cifar-lite", cifar_lite_prototxt);
    ("alexnet", alexnet_prototxt);
    ("nin", nin_prototxt);
    ("googlenet-like", googlenet_like_prototxt);
    ("hopfield", hopfield_prototxt ~cities:5);
    ("lenet5", lenet5_prototxt);
    ("vgg16", vgg16_prototxt);
    ( "ann0",
      ann_prototxt ~name:"ann0" ~inputs:1 ~hidden1:8 ~hidden2:8 ~outputs:2 );
  ]

let table1_models =
  [
    ("MLP", build mlp_prototxt);
    ("Hopfield", build (hopfield_prototxt ~cities:5));
    ("CMAC", build cmac_prototxt);
    ("Alexnet", build alexnet_prototxt);
    ("Mnist", build mnist_prototxt);
    ("GoogleNet", build googlenet_like_prototxt);
  ]
