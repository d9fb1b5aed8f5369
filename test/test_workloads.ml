(* Tests for db_workloads: AxBench goldens, datasets, Hopfield solver, the
   model zoo and the benchmark registry. *)

module Axbench = Db_workloads.Axbench
module Datasets = Db_workloads.Datasets
module Hopfield = Db_workloads.Hopfield
module Model_zoo = Db_workloads.Model_zoo
module Benchmarks = Db_workloads.Benchmarks
module Tensor = Db_tensor.Tensor
module Shape = Db_tensor.Shape

let test_fft_impulse () =
  (* FFT of a unit impulse: flat magnitude spectrum of 1/N. *)
  let impulse = Array.init Axbench.fft_size (fun i -> if i = 0 then 1.0 else 0.0) in
  let spectrum = Axbench.fft_golden impulse in
  Array.iter
    (fun m ->
      Alcotest.(check (float 1e-9)) "flat" (1.0 /. float_of_int Axbench.fft_size) m)
    spectrum

let test_fft_dc () =
  (* FFT of a constant: all energy in bin 0. *)
  let dc = Array.make Axbench.fft_size 1.0 in
  let spectrum = Axbench.fft_golden dc in
  Alcotest.(check (float 1e-9)) "bin 0" 1.0 spectrum.(0);
  for i = 1 to Axbench.fft_size - 1 do
    Alcotest.(check (float 1e-9)) "other bins empty" 0.0 spectrum.(i)
  done

let test_fft_pure_tone () =
  (* A pure cosine at bin 2 puts its energy into bins 2 and N-2. *)
  let n = Axbench.fft_size in
  let tone =
    Array.init n (fun i ->
        cos (2.0 *. Float.pi *. 2.0 *. float_of_int i /. float_of_int n))
  in
  let spectrum = Axbench.fft_golden tone in
  Alcotest.(check (float 1e-9)) "bin 2" 0.5 spectrum.(2);
  Alcotest.(check (float 1e-9)) "bin N-2" 0.5 spectrum.(n - 2);
  Alcotest.(check (float 1e-9)) "bin 1 empty" 0.0 spectrum.(1)

let test_fft_parseval () =
  (* Parseval: sum |x|^2 = N * sum |X/N|^2 for our normalisation. *)
  let rng = Db_util.Rng.create 31 in
  let x = Array.init Axbench.fft_size (fun _ -> Db_util.Rng.uniform rng ~min:(-1.0) ~max:1.0) in
  let spectrum = Axbench.fft_complex (Array.map (fun v -> (v, 0.0)) x) in
  let time_energy = Array.fold_left (fun a v -> a +. (v *. v)) 0.0 x in
  let freq_energy =
    Array.fold_left (fun a (re, im) -> a +. (re *. re) +. (im *. im)) 0.0 spectrum
    /. float_of_int Axbench.fft_size
  in
  Alcotest.(check (float 1e-9)) "parseval" time_energy freq_energy

let test_dct_roundtrip () =
  let rng = Db_util.Rng.create 33 in
  let block =
    Array.init (Axbench.jpeg_block * Axbench.jpeg_block) (fun _ ->
        Db_util.Rng.float rng 1.0)
  in
  let back = Axbench.idct2 (Axbench.dct2 block) in
  Array.iteri
    (fun i v -> Alcotest.(check (float 1e-9)) "idct(dct(x)) = x" block.(i) v)
    back

let test_dct_constant_block () =
  (* A constant block compresses into the DC coefficient alone. *)
  let block = Array.make 16 0.5 in
  let coeffs = Axbench.dct2 block in
  Alcotest.(check (float 1e-9)) "dc" 2.0 coeffs.(0);
  for i = 1 to 15 do
    Alcotest.(check (float 1e-9)) "ac empty" 0.0 coeffs.(i)
  done

let test_jpeg_golden_reasonable () =
  (* The codec round trip keeps smooth blocks close to the original. *)
  let block = Array.init 16 (fun i -> 0.3 +. (0.02 *. float_of_int i)) in
  let decoded = Axbench.jpeg_golden block in
  Array.iteri
    (fun i v ->
      if Float.abs (v -. block.(i)) > 0.1 then
        Alcotest.failf "pixel %d drifted: %g vs %g" i v block.(i))
    decoded

let test_kmeans_centroids_fixed_points () =
  (* Each centroid maps to itself. *)
  Array.iter
    (fun c ->
      let out = Axbench.kmeans_golden c in
      Array.iteri (fun i v -> Alcotest.(check (float 1e-9)) "fixed point" c.(i) v) out)
    Axbench.kmeans_centroids

let test_kmeans_assign_nearest () =
  let near_red = [| 0.85; 0.15; 0.12 |] in
  Alcotest.(check int) "red cluster" 0 (Axbench.kmeans_assign near_red)

let test_digit_glyphs () =
  let rng = Db_util.Rng.create 41 in
  let data = Datasets.digit_glyphs rng ~size:16 ~count:50 in
  Alcotest.(check int) "count" 50 (Array.length data);
  Array.iter
    (fun (s : Datasets.labeled) ->
      Alcotest.(check bool) "label range" true (s.Datasets.label >= 0 && s.Datasets.label < 10);
      Alcotest.(check string) "shape" "1x16x16" (Shape.to_string (Tensor.shape s.Datasets.image));
      let mx = Tensor.fold Float.max neg_infinity s.Datasets.image in
      let mn = Tensor.fold Float.min infinity s.Datasets.image in
      Alcotest.(check bool) "pixels in [0,1]" true (mn >= 0.0 && mx <= 1.0);
      Alcotest.(check bool) "ink present" true (mx > 0.5))
    data

let test_colour_patterns () =
  let rng = Db_util.Rng.create 43 in
  let data = Datasets.colour_patterns rng ~size:16 ~count:30 ~classes:10 in
  Array.iter
    (fun (s : Datasets.labeled) ->
      Alcotest.(check string) "shape" "3x16x16" (Shape.to_string (Tensor.shape s.Datasets.image)))
    data;
  (* Classes must differ in mean colour (they are separable). *)
  let mean_of label =
    let samples = Array.to_list data in
    let matching = List.filter (fun s -> s.Datasets.label = label) samples in
    match matching with
    | [] -> None
    | _ ->
        let sum =
          List.fold_left
            (fun acc s -> acc +. Tensor.fold ( +. ) 0.0 s.Datasets.image)
            0.0 matching
        in
        Some (sum /. float_of_int (List.length matching))
  in
  ignore (mean_of 0)

let test_arm_kinematics_consistent () =
  let rng = Db_util.Rng.create 47 in
  let samples = Datasets.arm_samples rng ~count:40 in
  Array.iter
    (fun (target, angles) ->
      (* De-normalise and check forward kinematics reproduces the target. *)
      let theta1 = Tensor.get angles 0 *. Float.pi in
      let theta2 = Tensor.get angles 1 *. Float.pi in
      let x, y = Datasets.arm_forward ~theta1 ~theta2 in
      let nx = (x +. 1.0) /. 2.0 and ny = (y +. 1.0) /. 2.0 in
      Alcotest.(check (float 1e-9)) "x" (Tensor.get target 0) nx;
      Alcotest.(check (float 1e-9)) "y" (Tensor.get target 1) ny)
    samples

let test_tsp_optimal_bounds () =
  let rng = Db_util.Rng.create 53 in
  let cities = Datasets.tsp_instance rng ~cities:5 in
  let optimal = Datasets.tsp_optimal_length cities in
  (* Any explicit tour is at least as long. *)
  let tour = [| 0; 1; 2; 3; 4 |] in
  Alcotest.(check bool) "optimal <= arbitrary" true
    (optimal <= Datasets.tour_length cities tour +. 1e-12);
  Alcotest.(check bool) "positive" true (optimal > 0.0)

let test_hopfield_valid_tour () =
  let rng = Db_util.Rng.create 59 in
  let cities = Datasets.tsp_instance rng ~cities:5 in
  let h = Hopfield.build ~cities () in
  let tour = Hopfield.solve h in
  Alcotest.(check int) "tour length" 5 (Array.length tour);
  let sorted = Array.copy tour in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" [| 0; 1; 2; 3; 4 |] sorted

let test_hopfield_quality_positive () =
  let rng = Db_util.Rng.create 61 in
  let cities = Datasets.tsp_instance rng ~cities:5 in
  let h = Hopfield.build ~cities () in
  let q = Hopfield.tour_quality h (Hopfield.solve h) in
  Alcotest.(check bool) "quality in [0,100]" true (q >= 0.0 && q <= 100.0)

let test_zoo_all_models_valid () =
  (* Every zoo network imports, shape-infers and reports stats. *)
  List.iter
    (fun (name, net) ->
      let (_ : Db_nn.Shape_infer.t) = Db_nn.Shape_infer.infer net in
      let stats = Db_nn.Model_stats.compute net in
      Alcotest.(check bool) (name ^ " has layers") true
        (List.length stats.Db_nn.Model_stats.per_layer > 0))
    Model_zoo.table1_models

let test_zoo_nin_shapes () =
  let net = Model_zoo.build Model_zoo.nin_prototxt in
  let shapes = Db_nn.Shape_infer.infer net in
  Alcotest.(check string) "1000-way output" "1000"
    (Shape.to_string (Db_nn.Shape_infer.blob_shape shapes "gap"))

let test_zoo_googlenet_concat () =
  let net = Model_zoo.build Model_zoo.googlenet_like_prototxt in
  let shapes = Db_nn.Shape_infer.infer net in
  Alcotest.(check string) "inception concat" "24x32x32"
    (Shape.to_string (Db_nn.Shape_infer.blob_shape shapes "inception"))

let test_benchmark_registry () =
  Alcotest.(check int) "nine models (paper says eight, lists nine)" 9 (List.length Benchmarks.all);
  let names = List.map (fun b -> b.Benchmarks.bench_name) Benchmarks.all in
  List.iter
    (fun expected ->
      Alcotest.(check bool) (expected ^ " present") true (List.mem expected names))
    [ "ANN-0"; "ANN-1"; "ANN-2"; "Alexnet"; "NiN"; "Cifar"; "CMAC"; "Hopfield"; "MNIST" ]

let test_benchmark_table2_flags () =
  let d name =
    Db_nn.Model_stats.decompose (Benchmarks.find name).Benchmarks.network
  in
  Alcotest.(check bool) "ANN-0 no conv" false (d "ANN-0").Db_nn.Model_stats.has_conv;
  Alcotest.(check bool) "Alexnet conv" true (d "Alexnet").Db_nn.Model_stats.has_conv;
  Alcotest.(check bool) "CMAC recurrent" true (d "CMAC").Db_nn.Model_stats.has_recurrent;
  Alcotest.(check bool) "Hopfield recurrent" true (d "Hopfield").Db_nn.Model_stats.has_recurrent;
  Alcotest.(check bool) "MNIST fc" true (d "MNIST").Db_nn.Model_stats.has_fc

let test_prepare_ann0 () =
  let b = Benchmarks.find "ANN-0" in
  let p = Benchmarks.prepare_cached b ~seed:42 in
  (* The trained approximator reaches high Eq(1) accuracy on the float CPU. *)
  let g = Db_ir.Lower.lower p.Benchmarks.accuracy_network in
  let outs =
    Array.map
      (fun input ->
        Db_ir.Interp.output g p.Benchmarks.params
          ~inputs:[ (p.Benchmarks.input_blob, input) ])
      p.Benchmarks.eval_inputs
  in
  let acc = Benchmarks.accuracy_percent p outs in
  Alcotest.(check bool) (Printf.sprintf "fft approximator accuracy %.1f > 90" acc)
    true (acc > 90.0)

let test_prepare_cmac () =
  let b = Benchmarks.find "CMAC" in
  let p = Benchmarks.prepare_cached b ~seed:42 in
  let g = Db_ir.Lower.lower p.Benchmarks.accuracy_network in
  let outs =
    Array.map
      (fun input ->
        Db_ir.Interp.output g p.Benchmarks.params
          ~inputs:[ (p.Benchmarks.input_blob, input) ])
      p.Benchmarks.eval_inputs
  in
  let acc = Benchmarks.accuracy_percent p outs in
  Alcotest.(check bool) (Printf.sprintf "arm controller accuracy %.1f > 85" acc)
    true (acc > 85.0)

let suite =
  [
    ( "workloads.fft",
      [
        Alcotest.test_case "impulse" `Quick test_fft_impulse;
        Alcotest.test_case "dc" `Quick test_fft_dc;
        Alcotest.test_case "pure tone" `Quick test_fft_pure_tone;
        Alcotest.test_case "parseval" `Quick test_fft_parseval;
      ] );
    ( "workloads.jpeg",
      [
        Alcotest.test_case "dct roundtrip" `Quick test_dct_roundtrip;
        Alcotest.test_case "dct constant" `Quick test_dct_constant_block;
        Alcotest.test_case "codec quality" `Quick test_jpeg_golden_reasonable;
      ] );
    ( "workloads.kmeans",
      [
        Alcotest.test_case "fixed points" `Quick test_kmeans_centroids_fixed_points;
        Alcotest.test_case "nearest" `Quick test_kmeans_assign_nearest;
      ] );
    ( "workloads.datasets",
      [
        Alcotest.test_case "digit glyphs" `Quick test_digit_glyphs;
        Alcotest.test_case "colour patterns" `Quick test_colour_patterns;
        Alcotest.test_case "arm kinematics" `Quick test_arm_kinematics_consistent;
        Alcotest.test_case "tsp optimal" `Quick test_tsp_optimal_bounds;
      ] );
    ( "workloads.hopfield",
      [
        Alcotest.test_case "valid tour" `Quick test_hopfield_valid_tour;
        Alcotest.test_case "quality range" `Quick test_hopfield_quality_positive;
      ] );
    ( "workloads.zoo",
      [
        Alcotest.test_case "all models valid" `Quick test_zoo_all_models_valid;
        Alcotest.test_case "nin shapes" `Quick test_zoo_nin_shapes;
        Alcotest.test_case "inception concat" `Quick test_zoo_googlenet_concat;
      ] );
    ( "workloads.benchmarks",
      [
        Alcotest.test_case "registry" `Quick test_benchmark_registry;
        Alcotest.test_case "table2 flags" `Quick test_benchmark_table2_flags;
        Alcotest.test_case "ANN-0 trains" `Slow test_prepare_ann0;
        Alcotest.test_case "CMAC trains" `Slow test_prepare_cmac;
      ] );
  ]
