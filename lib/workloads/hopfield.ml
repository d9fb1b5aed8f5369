module Tensor = Db_tensor.Tensor
module Shape = Db_tensor.Shape
module Network = Db_nn.Network
module Layer = Db_nn.Layer
module Params = Db_nn.Params

type t = {
  cities : float array array;
  network : Network.t;
  params : Params.t;
  input : Tensor.t;
}

let input_blob = "bias"

(* Hopfield-Tank penalty coefficients, scaled down so the tanh iteration
   of the Recurrent layer contracts instead of oscillating. *)
let coeff_row = 1.2    (* one city per position *)
let coeff_col = 1.2    (* one position per city *)
let coeff_dist = 0.9
let bias_current = 1.1

let dist a b =
  let dx = a.(0) -. b.(0) and dy = a.(1) -. b.(1) in
  sqrt ((dx *. dx) +. (dy *. dy))

let build ?(steps = 60) ~cities () =
  let n = Array.length cities in
  if n < 3 then invalid_arg "Hopfield.build: need at least 3 cities";
  let units = n * n in
  let idx city pos = (city * n) + pos in
  let w_rec = Tensor.create (Shape.of_list [ units; units ]) in
  for x = 0 to n - 1 do
    for i = 0 to n - 1 do
      for y = 0 to n - 1 do
        for j = 0 to n - 1 do
          let v = ref 0.0 in
          if x = y && i <> j then v := !v -. coeff_row;
          if i = j && x <> y then v := !v -. coeff_col;
          if x <> y && (j = (i + 1) mod n || j = (i + n - 1) mod n) then
            v := !v -. (coeff_dist *. dist cities.(x) cities.(y));
          Tensor.set w_rec ((idx x i * units) + idx y j) !v
        done
      done
    done
  done;
  (* w_in is the identity: the external bias current enters untouched. *)
  let w_in =
    Tensor.init (Shape.of_list [ units; units ]) (fun k ->
        if k / units = k mod units then 1.0 else 0.0)
  in
  let nodes =
    [
      {
        Network.node_name = "bias_in";
        layer = Layer.Input { shape = Shape.vector units };
        bottoms = [];
        tops = [ input_blob ];
      };
      {
        Network.node_name = "relax";
        layer = Layer.Recurrent { num_output = units; steps; bias = false };
        bottoms = [ input_blob ];
        tops = [ "state" ];
      };
    ]
  in
  let network = Network.create ~name:"hopfield-tsp" nodes in
  let params = Params.create () in
  Params.set params "relax" [ w_in; w_rec ];
  let input = Tensor.full (Shape.vector units) bias_current in
  { cities; network; params; input }

let decode_tour t activations =
  let n = Array.length t.cities in
  let used = Array.make n false in
  Array.init n (fun pos ->
      let best = ref (-1) and best_v = ref neg_infinity in
      for city = 0 to n - 1 do
        if not used.(city) then begin
          let v = Tensor.get activations ((city * n) + pos) in
          if v > !best_v then begin best_v := v; best := city end
        end
      done;
      used.(!best) <- true;
      !best)

let solve t =
  let out =
    Db_ir.Interp.output (Db_ir.Lower.lower t.network) t.params
      ~inputs:[ (input_blob, t.input) ]
  in
  decode_tour t out

let tour_quality t tour =
  let optimal = Datasets.tsp_optimal_length t.cities in
  let actual = Datasets.tour_length t.cities tour in
  Db_util.Stats.rel_distance_accuracy ~golden:[| optimal |] ~approx:[| actual |]
