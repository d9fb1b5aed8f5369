module A1 = Bigarray.Array1

let fail fmt = Db_util.Error.failf_at ~component:"tensor" fmt

type padding = { top : int; left : int; bottom : int; right : int }

let no_padding = { top = 0; left = 0; bottom = 0; right = 0 }

let symmetric_padding p =
  if p < 0 then fail "symmetric_padding: negative";
  { top = p; left = p; bottom = p; right = p }

let conv_output_dim ~input ~kernel ~stride ~pad_lo ~pad_hi =
  if stride <= 0 then fail "conv_output_dim: stride must be positive";
  let span = input + pad_lo + pad_hi - kernel in
  if span < 0 then fail "conv_output_dim: kernel larger than padded input";
  (span / stride) + 1

(* Shared shape validation for both convolution paths.  This is the guarded
   entry point: everything below it indexes the buffers unchecked. *)
let conv2d_dims ~input ~weights ~bias ~stride ~padding ~group =
  let ishape = Tensor.shape input and wshape = Tensor.shape weights in
  if Shape.rank ishape <> 3 then fail "conv2d: input must be CHW";
  if Shape.rank wshape <> 4 then fail "conv2d: weights must be OIKK";
  let cin = Shape.dim ishape 0
  and h = Shape.dim ishape 1
  and w = Shape.dim ishape 2 in
  let cout = Shape.dim wshape 0
  and cin_g = Shape.dim wshape 1
  and kh = Shape.dim wshape 2
  and kw = Shape.dim wshape 3 in
  if kh <> kw then fail "conv2d: only square kernels supported";
  if group <= 0 || cin mod group <> 0 || cout mod group <> 0 then
    fail "conv2d: bad group";
  if cin_g <> cin / group then fail "conv2d: weight channel mismatch";
  (match bias with
  | None -> ()
  | Some b ->
      if Tensor.numel b <> cout then fail "conv2d: bias length mismatch");
  let oh = conv_output_dim ~input:h ~kernel:kh ~stride ~pad_lo:padding.top ~pad_hi:padding.bottom in
  let ow = conv_output_dim ~input:w ~kernel:kw ~stride ~pad_lo:padding.left ~pad_hi:padding.right in
  (cin, h, w, cout, cin_g, kh, kw, oh, ow)

let conv2d_naive ~input ~weights ~bias ~stride ~padding ~group =
  let _cin, h, w, cout, cin_g, kh, kw, oh, ow =
    conv2d_dims ~input ~weights ~bias ~stride ~padding ~group
  in
  let out = Tensor.create (Shape.chw ~channels:cout ~height:oh ~width:ow) in
  let idata = Tensor.data input and wdata = Tensor.data weights in
  let odata = Tensor.data out in
  let cout_g = cout / group in
  for oc = 0 to cout - 1 do
    let g = oc / cout_g in
    let base_ic = g * cin_g in
    let b = match bias with None -> 0.0 | Some bt -> Tensor.get bt oc in
    for oy = 0 to oh - 1 do
      for ox = 0 to ow - 1 do
        let acc = ref b in
        for ic = 0 to cin_g - 1 do
          for ky = 0 to kh - 1 do
            let iy = (oy * stride) + ky - padding.top in
            if iy >= 0 && iy < h then
              for kx = 0 to kw - 1 do
                let ix = (ox * stride) + kx - padding.left in
                if ix >= 0 && ix < w then begin
                  let iv =
                    A1.unsafe_get idata
                      (((base_ic + ic) * h * w) + (iy * w) + ix)
                  in
                  let wv =
                    A1.unsafe_get wdata
                      ((((oc * cin_g) + ic) * kh * kw) + (ky * kw) + kx)
                  in
                  acc := !acc +. (iv *. wv)
                end
              done
          done
        done;
        A1.unsafe_set odata ((oc * oh * ow) + (oy * ow) + ox) !acc
      done
    done
  done;
  out

(* Lower one channel group's receptive fields into a (cin_g*kh*kw) x (oh*ow)
   row-major patch matrix.  Row k holds input tap (ic, ky, kx) with
   k = ((ic*kh)+ky)*kw+kx, i.e. the exact accumulation order of the naive
   loops, so the GEMM below adds contributions in the same sequence (padded
   taps contribute literal zeros).  Rows are independent, so the fill is
   parallel over k. *)
let im2col ~(idata : Tensor.buf) ~base_ic ~cin_g ~h ~w ~kh ~kw ~stride
    ~padding ~oh ~ow =
  let krows = cin_g * kh * kw in
  let n = oh * ow in
  let patch = A1.create Bigarray.float64 Bigarray.c_layout (krows * n) in
  A1.fill patch 0.0;
  Db_parallel.Pool.parallel_for ~work:(krows * n) ~lo:0 ~hi:krows (fun k ->
      let ic = k / (kh * kw) in
      let ky = k / kw mod kh in
      let kx = k mod kw in
      let irow_base = (base_ic + ic) * h * w in
      let prow_base = k * n in
      for oy = 0 to oh - 1 do
        let iy = (oy * stride) + ky - padding.top in
        if iy >= 0 && iy < h then begin
          let isrc = irow_base + (iy * w) in
          let pdst = prow_base + (oy * ow) in
          for ox = 0 to ow - 1 do
            let ix = (ox * stride) + kx - padding.left in
            if ix >= 0 && ix < w then
              A1.unsafe_set patch (pdst + ox) (A1.unsafe_get idata (isrc + ix))
          done
        end
      done);
  patch

(* C[m x n] += A[m x k] * B[k x n] with C pre-filled (bias), all row-major.
   Parallel over blocks of C rows; within a task, rows are processed four
   at a time so each streamed B row is reused from registers/L1 four times.
   Every C element accumulates its k terms in ascending order regardless of
   the blocking, which keeps results bitwise-stable across pool widths. *)
let gemm ~m ~n ~k ~(a : Tensor.buf) ~a_off ~(b : Tensor.buf)
    ~(c : Tensor.buf) ~c_off =
  Db_parallel.Pool.parallel_for ~chunk:4 ~work:(m * n * k) ~lo:0
    ~hi:((m + 3) / 4) (fun blk ->
      let i0 = blk * 4 in
      let rows = Stdlib.min 4 (m - i0) in
      if rows = 4 then begin
        let r0 = c_off + (i0 * n)
        and r1 = c_off + ((i0 + 1) * n)
        and r2 = c_off + ((i0 + 2) * n)
        and r3 = c_off + ((i0 + 3) * n) in
        for p = 0 to k - 1 do
          let a0 = A1.unsafe_get a (a_off + (i0 * k) + p)
          and a1 = A1.unsafe_get a (a_off + ((i0 + 1) * k) + p)
          and a2 = A1.unsafe_get a (a_off + ((i0 + 2) * k) + p)
          and a3 = A1.unsafe_get a (a_off + ((i0 + 3) * k) + p) in
          let bp = p * n in
          for j = 0 to n - 1 do
            let bv = A1.unsafe_get b (bp + j) in
            A1.unsafe_set c (r0 + j) (A1.unsafe_get c (r0 + j) +. (a0 *. bv));
            A1.unsafe_set c (r1 + j) (A1.unsafe_get c (r1 + j) +. (a1 *. bv));
            A1.unsafe_set c (r2 + j) (A1.unsafe_get c (r2 + j) +. (a2 *. bv));
            A1.unsafe_set c (r3 + j) (A1.unsafe_get c (r3 + j) +. (a3 *. bv))
          done
        done
      end
      else
        for i = i0 to i0 + rows - 1 do
          let ri = c_off + (i * n) in
          for p = 0 to k - 1 do
            let av = A1.unsafe_get a (a_off + (i * k) + p) in
            let bp = p * n in
            for j = 0 to n - 1 do
              A1.unsafe_set c (ri + j)
                (A1.unsafe_get c (ri + j) +. (av *. A1.unsafe_get b (bp + j)))
            done
          done
        done)

let conv2d ~input ~weights ~bias ~stride ~padding ~group =
  let _cin, h, w, cout, cin_g, kh, kw, oh, ow =
    conv2d_dims ~input ~weights ~bias ~stride ~padding ~group
  in
  let out = Tensor.create (Shape.chw ~channels:cout ~height:oh ~width:ow) in
  let idata = Tensor.data input and wdata = Tensor.data weights in
  let odata = Tensor.data out in
  let cout_g = cout / group in
  let n = oh * ow in
  let krows = cin_g * kh * kw in
  (match bias with
  | None -> ()
  | Some bt ->
      let bdata = Tensor.data bt in
      for oc = 0 to cout - 1 do
        A1.fill (A1.sub odata (oc * n) n) (A1.unsafe_get bdata oc)
      done);
  for g = 0 to group - 1 do
    let patch =
      im2col ~idata ~base_ic:(g * cin_g) ~cin_g ~h ~w ~kh ~kw ~stride ~padding
        ~oh ~ow
    in
    (* Weight rows of this group are contiguous: row oc is exactly the
       (cin_g*kh*kw)-long filter in tap order. *)
    gemm ~m:cout_g ~n ~k:krows ~a:wdata
      ~a_off:(g * cout_g * krows)
      ~b:patch ~c:odata
      ~c_off:(g * cout_g * n)
  done;
  out

let pool_generic ~combine ~finish ~init_value ~input ~kernel ~stride =
  let ishape = Tensor.shape input in
  if Shape.rank ishape <> 3 then fail "pool: input must be CHW";
  let c = Shape.dim ishape 0
  and h = Shape.dim ishape 1
  and w = Shape.dim ishape 2 in
  let oh = conv_output_dim ~input:h ~kernel ~stride ~pad_lo:0 ~pad_hi:0 in
  let ow = conv_output_dim ~input:w ~kernel ~stride ~pad_lo:0 ~pad_hi:0 in
  let out = Tensor.create (Shape.chw ~channels:c ~height:oh ~width:ow) in
  let idata = Tensor.data input and odata = Tensor.data out in
  (* Channels are independent; each task owns whole output channels. *)
  Db_parallel.Pool.parallel_for ~work:(c * oh * ow * kernel * kernel) ~lo:0
    ~hi:c (fun ch ->
      for oy = 0 to oh - 1 do
        for ox = 0 to ow - 1 do
          let acc = ref init_value in
          for ky = 0 to kernel - 1 do
            for kx = 0 to kernel - 1 do
              let iy = (oy * stride) + ky and ix = (ox * stride) + kx in
              acc := combine !acc (A1.unsafe_get idata ((ch * h * w) + (iy * w) + ix))
            done
          done;
          A1.unsafe_set odata ((ch * oh * ow) + (oy * ow) + ox) (finish !acc)
        done
      done);
  out

let max_pool ~input ~kernel ~stride =
  pool_generic ~combine:Float.max ~finish:(fun x -> x) ~init_value:neg_infinity
    ~input ~kernel ~stride

let avg_pool ~input ~kernel ~stride =
  let area = float_of_int (kernel * kernel) in
  pool_generic ~combine:( +. ) ~finish:(fun x -> x /. area) ~init_value:0.0
    ~input ~kernel ~stride

let global_avg_pool ~input =
  let ishape = Tensor.shape input in
  if Shape.rank ishape <> 3 then fail "global_avg_pool: input must be CHW";
  let c = Shape.dim ishape 0
  and h = Shape.dim ishape 1
  and w = Shape.dim ishape 2 in
  let out = Tensor.create (Shape.vector c) in
  let idata = Tensor.data input and odata = Tensor.data out in
  Db_parallel.Pool.parallel_for ~work:(c * h * w) ~lo:0 ~hi:c (fun ch ->
      let acc = ref 0.0 in
      for i = 0 to (h * w) - 1 do
        acc := !acc +. A1.unsafe_get idata ((ch * h * w) + i)
      done;
      A1.unsafe_set odata ch (!acc /. float_of_int (h * w)));
  out

let fully_connected ~input ~weights ~bias =
  let wshape = Tensor.shape weights in
  if Shape.rank wshape <> 2 then fail "fully_connected: weights must be rank 2";
  let nout = Shape.dim wshape 0 and nin = Shape.dim wshape 1 in
  if Tensor.numel input <> nin then
    fail "fully_connected: input size mismatch";
  (match bias with
  | None -> ()
  | Some b ->
      if Tensor.numel b <> nout then
        fail "fully_connected: bias length mismatch");
  let out = Tensor.create (Shape.vector nout) in
  let idata = Tensor.data input
  and wdata = Tensor.data weights
  and odata = Tensor.data out in
  (* Each output neuron owns its dot product; accumulation order within a
     neuron is unchanged, so results match the scalar loop bitwise. *)
  Db_parallel.Pool.parallel_for ~work:(nout * nin) ~lo:0 ~hi:nout (fun o ->
      let acc = ref (match bias with None -> 0.0 | Some b -> Tensor.get b o) in
      for i = 0 to nin - 1 do
        acc := !acc +. (A1.unsafe_get wdata ((o * nin) + i) *. A1.unsafe_get idata i)
      done;
      A1.unsafe_set odata o !acc);
  out

let relu t = Tensor.map (fun x -> Float.max 0.0 x) t

let sigmoid t = Tensor.map (fun x -> 1.0 /. (1.0 +. exp (-.x))) t

let tanh_act t = Tensor.map Float.tanh t

let softmax t =
  let m = Tensor.fold Float.max neg_infinity t in
  let exps = Tensor.map (fun x -> exp (x -. m)) t in
  let total = Tensor.fold ( +. ) 0.0 exps in
  Tensor.map (fun x -> x /. total) exps

let lrn ~input ~local_size ~alpha ~beta ~k =
  let ishape = Tensor.shape input in
  if Shape.rank ishape <> 3 then fail "lrn: input must be CHW";
  if local_size <= 0 || local_size mod 2 = 0 then
    fail "lrn: local_size must be odd and positive";
  let c = Shape.dim ishape 0
  and h = Shape.dim ishape 1
  and w = Shape.dim ishape 2 in
  let half = local_size / 2 in
  let out = Tensor.create ishape in
  let idata = Tensor.data input and odata = Tensor.data out in
  Db_parallel.Pool.parallel_for ~work:(c * h * w * local_size) ~lo:0 ~hi:c
    (fun ch ->
      let lo = Stdlib.max 0 (ch - half) and hi = Stdlib.min (c - 1) (ch + half) in
      for y = 0 to h - 1 do
        for x = 0 to w - 1 do
          let sq = ref 0.0 in
          for j = lo to hi do
            let v = A1.unsafe_get idata ((j * h * w) + (y * w) + x) in
            sq := !sq +. (v *. v)
          done;
          let scale = k +. (alpha /. float_of_int local_size *. !sq) in
          let v = A1.unsafe_get idata ((ch * h * w) + (y * w) + x) in
          A1.unsafe_set odata ((ch * h * w) + (y * w) + x) (v /. (scale ** beta))
        done
      done);
  out

let dropout_inference ~ratio t =
  if ratio < 0.0 || ratio >= 1.0 then fail "dropout_inference: bad ratio";
  Tensor.copy t

let concat_channels tensors =
  match tensors with
  | [] -> fail "concat_channels: empty list"
  | first :: _ ->
      let h = Shape.height (Tensor.shape first)
      and w = Shape.width (Tensor.shape first) in
      List.iter
        (fun t ->
          let s = Tensor.shape t in
          if Shape.rank s <> 3 || Shape.height s <> h || Shape.width s <> w then
            fail "concat_channels: spatial mismatch")
        tensors;
      let total_c = List.fold_left (fun acc t -> acc + Shape.channels (Tensor.shape t)) 0 tensors in
      let out = Tensor.create (Shape.chw ~channels:total_c ~height:h ~width:w) in
      let odata = Tensor.data out in
      let offset = ref 0 in
      List.iter
        (fun t ->
          let n = Tensor.numel t in
          A1.blit (Tensor.data t) (A1.sub odata !offset n);
          offset := !offset + n)
        tensors;
      out

let flatten t = Tensor.reshape t (Shape.vector (Tensor.numel t))

let associative_encode ~cells_per_dim ~active_cells input =
  let n = Tensor.numel input in
  let out = Tensor.create (Shape.vector (n * cells_per_dim)) in
  let weight = 1.0 /. float_of_int active_cells in
  let half = active_cells / 2 in
  for i = 0 to n - 1 do
    let x = Float.min 1.0 (Float.max 0.0 (Tensor.get input i)) in
    let centre =
      Stdlib.min (cells_per_dim - 1)
        (int_of_float (x *. float_of_int (cells_per_dim - 1) +. 0.5))
    in
    for d = -half to active_cells - half - 1 do
      let cell = centre + d in
      if cell >= 0 && cell < cells_per_dim then
        Tensor.set out ((i * cells_per_dim) + cell) weight
    done
  done;
  out

let classify_top_k ~top_k input =
  let n = Tensor.numel input in
  (* Partial selection instead of sorting all n logits: k passes, each
     picking the largest remaining value.  The ascending scan with a strict
     [>] means the lowest index wins ties — the same order as the hardware
     k-sorter's deterministic comparator network. *)
  let used = Array.make n false in
  let selected = Array.make top_k 0 in
  for rank = 0 to top_k - 1 do
    let best = ref (-1) in
    for i = 0 to n - 1 do
      if
        (not used.(i))
        && (!best < 0 || Tensor.get input i > Tensor.get input !best)
      then best := i
    done;
    if !best < 0 then fail "classify_top_k: top_k %d exceeds input size %d" top_k n;
    used.(!best) <- true;
    selected.(rank) <- !best
  done;
  Tensor.init (Shape.vector top_k) (fun i -> float_of_int selected.(i))

let recurrent_forward ~w_in ~w_rec ~bias ~steps input =
  let num_output = Shape.dim (Tensor.shape w_in) 0 in
  let state = ref (Tensor.create (Shape.vector num_output)) in
  for _step = 1 to steps do
    let drive = fully_connected ~input ~weights:w_in ~bias in
    let feedback = fully_connected ~input:!state ~weights:w_rec ~bias:None in
    state := tanh_act (Tensor.add drive feedback)
  done;
  !state

(* Window edges are clipped: smaller effective windows at the borders. *)
let lcn ~window ~epsilon input =
  let shape = Tensor.shape input in
  let c = Shape.channels shape
  and h = Shape.height shape
  and w = Shape.width shape in
  let half = window / 2 in
  let out = Tensor.create shape in
  for ch = 0 to c - 1 do
    for y = 0 to h - 1 do
      for x = 0 to w - 1 do
        let sum = ref 0.0 and sumsq = ref 0.0 and count = ref 0 in
        for dy = -half to half do
          for dx = -half to half do
            let yy = y + dy and xx = x + dx in
            if yy >= 0 && yy < h && xx >= 0 && xx < w then begin
              let v = Tensor.get3 input ~c:ch ~y:yy ~x:xx in
              sum := !sum +. v;
              sumsq := !sumsq +. (v *. v);
              incr count
            end
          done
        done;
        let n = float_of_int !count in
        let mean = !sum /. n in
        let var = Float.max 0.0 ((!sumsq /. n) -. (mean *. mean)) in
        let denom = Float.max epsilon (sqrt var) in
        Tensor.set3 out ~c:ch ~y ~x
          ((Tensor.get3 input ~c:ch ~y ~x -. mean) /. denom)
      done
    done
  done;
  out
