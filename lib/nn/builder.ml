type t = { nodes : Network.node list; top : string; counter : int }

let input shape =
  {
    nodes =
      [
        {
          Network.node_name = "input";
          layer = Layer.Input { shape };
          bottoms = [];
          tops = [ "data" ];
        };
      ];
    top = "data";
    counter = 0;
  }

let append prefix layer t =
  let counter = t.counter + 1 in
  let name = Printf.sprintf "%s%d" prefix counter in
  {
    nodes =
      {
        Network.node_name = name;
        layer;
        bottoms = [ t.top ];
        tops = [ name ];
      }
      :: t.nodes;
    top = name;
    counter;
  }

let layer l t =
  let prefix = String.lowercase_ascii (Layer.name l) in
  append prefix l t

let conv ?(stride = 1) ?(pad = 0) ?(group = 1) ?(bias = true) ~num_output
    ~kernel_size t =
  append "conv"
    (Layer.Conv { num_output; kernel_size; stride; pad; group; bias })
    t

let max_pool ~kernel_size ~stride t =
  append "pool" (Layer.Pool { method_ = Layer.Max_pool; kernel_size; stride }) t

let avg_pool ~kernel_size ~stride t =
  append "pool" (Layer.Pool { method_ = Layer.Avg_pool; kernel_size; stride }) t

let global_avg_pool t = append "gap" (Layer.Global_pool Layer.Avg_pool) t

let fc ?(bias = true) ~num_output t =
  append "fc" (Layer.Fc { num_output; bias }) t

let relu t = append "relu" (Layer.Act Layer.Relu) t

let sigmoid t = append "sigmoid" (Layer.Act Layer.Sigmoid) t

let tanh t = append "tanh" (Layer.Act Layer.Tanh) t

let lrn ?(local_size = 5) ?(alpha = 1e-4) ?(beta = 0.75) ?(k = 1.0) t =
  append "norm" (Layer.Lrn { local_size; alpha; beta; k }) t

let lcn ?(window = 5) ?(epsilon = 0.01) t =
  append "lcn" (Layer.Lcn { window; epsilon }) t

let dropout ?(ratio = 0.5) t = append "drop" (Layer.Dropout { ratio }) t

let softmax t = append "prob" Layer.Softmax t

let recurrent ?(bias = true) ~num_output ~steps t =
  append "rec" (Layer.Recurrent { num_output; steps; bias }) t

let associative ?(active_cells = 3) ~cells_per_dim t =
  append "assoc" (Layer.Associative { cells_per_dim; active_cells }) t

let classifier ~top_k t = append "cls" (Layer.Classifier { top_k }) t

let build ~name t = Network.create ~name (List.rev t.nodes)
