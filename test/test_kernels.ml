(* Bit-identity of the specialized tap-major Winograd kernels against
   the generic Rmat-sandwich reference path, for every variant, random
   shapes, and under TWQ_NUM_DOMAINS=4.

   "Bit-identical" for the float path means every element compares equal
   with [=] (the specialized transforms may only differ from the generic
   matmuls in the sign of a zero, which [=] treats as equal); the integer
   path is exact arithmetic and must match verbatim. *)

module Parallel = Twq_util.Parallel
module Tensor = Twq_tensor.Tensor
module Itensor = Twq_tensor.Itensor
module Transform = Twq_winograd.Transform
module Kernels = Twq_winograd.Kernels
module Microkernel = Twq_winograd.Microkernel
module Conv = Twq_winograd.Conv
module Gconv = Twq_winograd.Gconv
module Tapwise = Twq_quant.Tapwise
module Qconv = Twq_quant.Qconv
module Quantizer = Twq_quant.Quantizer

let with_domains n f =
  Parallel.set_num_domains n;
  Fun.protect ~finally:(fun () -> Parallel.clear_num_domains_override ()) f

let float_eq a b =
  Array.length a.Tensor.data = Array.length b.Tensor.data
  && Array.for_all2 (fun x y -> x = y) a.Tensor.data b.Tensor.data

let variant_gen =
  QCheck2.Gen.oneofl [ Transform.F2; Transform.F4; Transform.F6 ]

let seed_gen = QCheck2.Gen.int_range 0 1_000_000

let tensor_of_rng rng shape = Tensor.rand_gaussian rng shape ~mu:0.0 ~sigma:1.0

let itensor_of_rng rng shape =
  Itensor.init shape (fun _ -> Twq_util.Rng.int rng 255 - 127)

(* ----------------------- single-tile transform steps vs Rmat sandwich *)

let prop_float_tiles =
  QCheck2.Test.make ~count:100 ~name:"specialized f32 tile = Rmat sandwich"
    QCheck2.Gen.(pair variant_gen seed_gen)
    (fun (v, seed) ->
      let rng = Twq_util.Rng.create seed in
      let t = Transform.t v and m = Transform.m v in
      let k = Kernels.f32_specialized v in
      let tmp = Array.make (t * t) nan in
      let x = tensor_of_rng rng [| t; t |] in
      let got_in = Array.make (t * t) nan in
      k.Kernels.input x.Tensor.data 0 got_in 0 tmp;
      let f = tensor_of_rng rng [| 3; 3 |] in
      let got_w = Array.make (t * t) nan in
      k.Kernels.weight f.Tensor.data 0 got_w 0 tmp;
      let y = tensor_of_rng rng [| t; t |] in
      let got_out = Array.make (m * m) nan in
      k.Kernels.output y.Tensor.data 0 got_out 0 tmp;
      got_in = (Transform.input_tile v x).Tensor.data
      && got_w = (Transform.weight_tile v f).Tensor.data
      && got_out = (Transform.output_tile v y).Tensor.data)

let prop_int_tiles =
  QCheck2.Test.make ~count:100 ~name:"specialized i32 tile = int sandwich"
    QCheck2.Gen.(pair variant_gen seed_gen)
    (fun (v, seed) ->
      let rng = Twq_util.Rng.create seed in
      let t = Transform.t v and m = Transform.m v in
      let k = Kernels.i32_specialized v in
      let tmp = Array.make (t * t) 0 in
      let x = itensor_of_rng rng [| t; t |] in
      let got_in = Array.make (t * t) 0 in
      k.Kernels.input x.Itensor.data 0 got_in 0 tmp;
      let f = itensor_of_rng rng [| 3; 3 |] in
      let got_w = Array.make (t * t) 0 in
      k.Kernels.weight f.Itensor.data 0 got_w 0 tmp;
      let y = itensor_of_rng rng [| t; t |] in
      let got_out = Array.make (m * m) 0 in
      k.Kernels.output y.Itensor.data 0 got_out 0 tmp;
      got_in = (Transform.input_tile_int v x).Itensor.data
      && got_w = (Transform.weight_tile_int_scaled v f).Itensor.data
      && got_out = (Transform.output_tile_int v y).Itensor.data)

(* ------------------------------------- full convs, random NCHW shapes *)

let shape_gen =
  QCheck2.Gen.(
    tup6 variant_gen (int_range 1 2) (int_range 1 4) (int_range 1 4)
      (int_range 3 14) (int_range 0 1))

let prop_conv_f32 =
  QCheck2.Test.make ~count:40 ~name:"tap-major conv2d = tile-major ref"
    QCheck2.Gen.(pair shape_gen seed_gen)
    (fun ((v, n, cin, cout, hw, pad), seed) ->
      let rng = Twq_util.Rng.create seed in
      let h = hw and w = hw + Twq_util.Rng.int rng 4 in
      let x = tensor_of_rng rng [| n; cin; h; w |] in
      let wt = tensor_of_rng rng [| cout; cin; 3; 3 |] in
      let b = tensor_of_rng rng [| cout |] in
      let got = Conv.conv2d ~variant:v ~pad ~x ~w:wt ~b () in
      let want = Conv.conv2d_ref ~variant:v ~pad ~x ~w:wt ~b () in
      float_eq got want)

let prop_conv_int =
  QCheck2.Test.make ~count:40 ~name:"tap-major int conv = tile-major ref"
    QCheck2.Gen.(pair shape_gen seed_gen)
    (fun ((v, n, cin, cout, hw, pad), seed) ->
      let rng = Twq_util.Rng.create seed in
      let h = hw and w = hw + Twq_util.Rng.int rng 4 in
      let x = itensor_of_rng rng [| n; cin; h; w |] in
      let wt = itensor_of_rng rng [| cout; cin; 3; 3 |] in
      let got = Conv.conv2d_int_bit_true ~variant:v ~pad ~x ~w:wt () in
      let want = Conv.conv2d_int_bit_true_ref ~variant:v ~pad ~x ~w:wt () in
      Itensor.equal got want)

let prop_conv_f32_four_domains =
  QCheck2.Test.make ~count:20
    ~name:"tap-major conv2d = ref under TWQ_NUM_DOMAINS=4"
    QCheck2.Gen.(pair shape_gen seed_gen)
    (fun ((v, n, cin, cout, hw, pad), seed) ->
      let rng = Twq_util.Rng.create seed in
      let h = hw and w = hw + Twq_util.Rng.int rng 4 in
      let x = tensor_of_rng rng [| n; cin; h; w |] in
      let wt = tensor_of_rng rng [| cout; cin; 3; 3 |] in
      let got = with_domains 4 (fun () -> Conv.conv2d ~variant:v ~pad ~x ~w:wt ()) in
      let want = Conv.conv2d_ref ~variant:v ~pad ~x ~w:wt () in
      float_eq got want)

let prop_conv_int_four_domains =
  QCheck2.Test.make ~count:20
    ~name:"tap-major int conv = ref under TWQ_NUM_DOMAINS=4"
    QCheck2.Gen.(pair shape_gen seed_gen)
    (fun ((v, n, cin, cout, hw, pad), seed) ->
      let rng = Twq_util.Rng.create seed in
      let h = hw and w = hw + Twq_util.Rng.int rng 4 in
      let x = itensor_of_rng rng [| n; cin; h; w |] in
      let wt = itensor_of_rng rng [| cout; cin; 3; 3 |] in
      let got =
        with_domains 4 (fun () -> Conv.conv2d_int_bit_true ~variant:v ~pad ~x ~w:wt ())
      in
      let want = Conv.conv2d_int_bit_true_ref ~variant:v ~pad ~x ~w:wt () in
      Itensor.equal got want)

(* -------------------------------------- generated F(m,r) via Gconv *)

let prop_gconv =
  QCheck2.Test.make ~count:20 ~name:"gconv compiled plans = matmul sandwich"
    QCheck2.Gen.(tup4 (int_range 2 4) (oneofl [ 3; 5 ]) (int_range 1 4) seed_gen)
    (fun (m, r, nd, seed) ->
      let rng = Twq_util.Rng.create seed in
      let gc = Gconv.create ~m ~r () in
      let cin = 1 + Twq_util.Rng.int rng 3
      and cout = 1 + Twq_util.Rng.int rng 3 in
      let h = r + Twq_util.Rng.int rng 8 and w = r + Twq_util.Rng.int rng 8 in
      let pad = Twq_util.Rng.int rng ((r / 2) + 1) in
      let x = tensor_of_rng rng [| 1; cin; h; w |] in
      let wt = tensor_of_rng rng [| cout; cin; r; r |] in
      let got = with_domains nd (fun () -> Gconv.conv2d gc ~pad ~x ~w:wt ()) in
      let want = Gconv.conv2d_ref gc ~pad ~x ~w:wt () in
      float_eq got want)

(* ------------------------------------ quantized tap-wise forward_int *)

let prop_tapwise =
  QCheck2.Test.make ~count:15 ~name:"tap-major forward_int = tile-major ref"
    QCheck2.Gen.(
      tup4 variant_gen
        (oneofl [ Tapwise.Single_scale; Tapwise.Tap_wise; Tapwise.Channel_tap_wise ])
        (int_range 1 4) seed_gen)
    (fun (v, gran, nd, seed) ->
      let rng = Twq_util.Rng.create seed in
      let cin = 1 + Twq_util.Rng.int rng 3
      and cout = 1 + Twq_util.Rng.int rng 3 in
      let h = 6 + Twq_util.Rng.int rng 8 and wd = 6 + Twq_util.Rng.int rng 8 in
      let w = Tensor.rand_gaussian rng [| cout; cin; 3; 3 |] ~mu:0.0 ~sigma:0.5 in
      let bias = Tensor.rand_gaussian rng [| cout |] ~mu:0.0 ~sigma:0.1 in
      let samples = [ tensor_of_rng rng [| 1; cin; h; wd |] ] in
      let config = { (Tapwise.default_config v) with Tapwise.granularity = gran } in
      let l = Tapwise.calibrate ~config ~w ~bias ~sample_inputs:samples ~pad:1 () in
      let x = tensor_of_rng rng [| 1; cin; h; wd |] in
      let xi =
        Quantizer.quantize_tensor ~bits:config.Tapwise.act_bits ~scale:l.Tapwise.s_x x
      in
      let got = with_domains nd (fun () -> Tapwise.forward_int l xi) in
      let want = Tapwise.forward_int_ref l xi in
      Itensor.equal got want)

(* --------------- microkernel GEMM drivers vs naive [_ref] oracles *)

let with_mk_config ~mr ~nr ~kc f =
  Microkernel.set_config ~mr ~nr ~kc ();
  Fun.protect ~finally:Microkernel.reset_config f

let scale2_of v =
  let s = Transform.bt_scale v * Transform.g_scale v * Transform.at_scale v in
  s * s

(* Edge shapes for the register-tiled path: Cin/Cout deliberately
   straddle register-block multiples (1..9), images go down to a single
   tile (hw = 3), and the pool runs with 1 or 4 domains. *)
let micro_shape_gen =
  QCheck2.Gen.(
    tup6 variant_gen (int_range 1 9) (int_range 1 9) (int_range 3 10)
      (oneofl [ 1; 4 ]) seed_gen)

let prop_micro_f32_edge =
  QCheck2.Test.make ~count:60
    ~name:"microkernel conv2d_f32 = naive ref (edge shapes)" micro_shape_gen
    (fun (v, cin, cout, hw, nd, seed) ->
      let rng = Twq_util.Rng.create seed in
      let pad = Twq_util.Rng.int rng 2 in
      let k = Kernels.f32_specialized v in
      let x =
        tensor_of_rng rng [| 1; cin; hw; hw + Twq_util.Rng.int rng 3 |]
      in
      let wt = tensor_of_rng rng [| cout; cin; 3; 3 |] in
      let got = with_domains nd (fun () -> Kernels.conv2d_f32 k ~pad ~x ~w:wt) in
      let want = Kernels.conv2d_f32_ref k ~pad ~x ~w:wt in
      float_eq got want)

let prop_micro_int_edge =
  QCheck2.Test.make ~count:60
    ~name:"microkernel conv2d_i32_exact = naive ref (edge shapes)"
    micro_shape_gen
    (fun (v, cin, cout, hw, nd, seed) ->
      let rng = Twq_util.Rng.create seed in
      let pad = Twq_util.Rng.int rng 2 in
      let k = Kernels.i32_specialized v in
      let x =
        itensor_of_rng rng [| 1; cin; hw; hw + Twq_util.Rng.int rng 3 |]
      in
      let wt = itensor_of_rng rng [| cout; cin; 3; 3 |] in
      let scale2 = scale2_of v in
      let got =
        with_domains nd (fun () ->
            Kernels.conv2d_i32_exact k ~scale2 ~pad ~x ~w:wt)
      in
      let want = Kernels.conv2d_i32_exact_ref k ~scale2 ~pad ~x ~w:wt in
      Itensor.equal got want)

(* Every register-block configuration — the specialized MRx4 and MRx8
   kernels, the generic fallback, and KC smaller than Cin (17 channels
   over kc = 8 forces three k-panels per GEMM, crossing the accumulator
   load/store seam twice). *)
let mk_config_sweep =
  [ (4, 4, 256); (3, 4, 8); (2, 4, 16); (1, 4, 256); (4, 2, 8); (5, 5, 32);
    (1, 1, 8); (4, 8, 256); (3, 8, 8); (2, 8, 16); (1, 8, 256) ]

let test_micro_config_sweep_int () =
  let rng = Twq_util.Rng.create 99 in
  let x = itensor_of_rng rng [| 1; 17; 8; 9 |] in
  let wt = itensor_of_rng rng [| 7; 17; 3; 3 |] in
  let k = Kernels.i32_specialized Transform.F4 in
  let scale2 = scale2_of Transform.F4 in
  let want = Kernels.conv2d_i32_exact_ref k ~scale2 ~pad:1 ~x ~w:wt in
  List.iter
    (fun (mr, nr, kc) ->
      with_mk_config ~mr ~nr ~kc (fun () ->
          let got = Kernels.conv2d_i32_exact k ~scale2 ~pad:1 ~x ~w:wt in
          Alcotest.(check bool)
            (Printf.sprintf "mr=%d nr=%d kc=%d" mr nr kc)
            true (Itensor.equal got want)))
    mk_config_sweep

let test_micro_config_sweep_f32 () =
  let rng = Twq_util.Rng.create 100 in
  let x = tensor_of_rng rng [| 1; 17; 8; 9 |] in
  let wt = tensor_of_rng rng [| 7; 17; 3; 3 |] in
  let k = Kernels.f32_specialized Transform.F4 in
  let want = Kernels.conv2d_f32_ref k ~pad:1 ~x ~w:wt in
  List.iter
    (fun (mr, nr, kc) ->
      with_mk_config ~mr ~nr ~kc (fun () ->
          let got = Kernels.conv2d_f32 k ~pad:1 ~x ~w:wt in
          Alcotest.(check bool)
            (Printf.sprintf "mr=%d nr=%d kc=%d" mr nr kc)
            true (float_eq got want)))
    mk_config_sweep

(* [Tapwise.pack] captures the packing geometry at pack time; the packed
   forward must agree with the tile-major oracle under every block
   configuration (including packing under one config — the oracle does
   not depend on it). *)
let test_micro_config_sweep_tapwise () =
  let rng = Twq_util.Rng.create 101 in
  let w = Tensor.rand_gaussian rng [| 6; 5; 3; 3 |] ~mu:0.0 ~sigma:0.5 in
  let samples = [ tensor_of_rng rng [| 1; 5; 10; 10 |] ] in
  let config = Tapwise.default_config Transform.F4 in
  let l = Tapwise.calibrate ~config ~w ~sample_inputs:samples ~pad:1 () in
  let x = tensor_of_rng rng [| 1; 5; 10; 10 |] in
  let xi =
    Quantizer.quantize_tensor ~bits:config.Tapwise.act_bits ~scale:l.Tapwise.s_x
      x
  in
  let want = Tapwise.forward_int_ref l xi in
  List.iter
    (fun (mr, nr, kc) ->
      with_mk_config ~mr ~nr ~kc (fun () ->
          let got = Tapwise.forward_int l xi in
          Alcotest.(check bool)
            (Printf.sprintf "mr=%d nr=%d kc=%d" mr nr kc)
            true (Itensor.equal got want)))
    mk_config_sweep

(* -------------------- im2col spatial conv vs the direct-loop oracle *)

(* A calibrated spatial layer with its int8 input; [per_channel],
   [bias] and [pow2] vary the requant arithmetic the gather applies. *)
let qconv_case rng ~n ~cin ~cout ~k ~stride ~pad ~h ~w ~per_channel ~bias
    ~pow2 =
  let wt = Tensor.rand_gaussian rng [| cout; cin; k; k |] ~mu:0.0 ~sigma:0.5 in
  let bias =
    if bias then Some (Tensor.rand_gaussian rng [| cout |] ~mu:0.0 ~sigma:0.2)
    else None
  in
  let x = tensor_of_rng rng [| n; cin; h; w |] in
  let l =
    Qconv.calibrate ~pow2 ~per_channel ~w:wt ?bias ~sample_inputs:[ x ]
      ~stride ~pad ()
  in
  (l, Quantizer.quantize_tensor ~bits:l.Qconv.act_bits ~scale:l.Qconv.s_x x)

let qconv_out_shape l xi =
  let ho, wo =
    Twq_tensor.Shape.conv2d_out ~h:(Itensor.dim xi 2) ~w:(Itensor.dim xi 3)
      ~kh:(Itensor.dim l.Qconv.wq 2) ~kw:(Itensor.dim l.Qconv.wq 3)
      ~stride:l.Qconv.stride ~pad:l.Qconv.pad
  in
  [| Itensor.dim xi 0; Itensor.dim l.Qconv.wq 0; ho; wo |]

let qconv_packed_forward ?epilogue p l xi =
  let out = Itensor.zeros (qconv_out_shape l xi) in
  Qconv.forward_int_into ?epilogue p xi ~out;
  out

(* Random batch, channel counts straddling MR/NR multiples, kernel
   1/3/5 × stride 1/2/3 × pad 0/1/2, per-channel scales, bias and pow2
   on/off, every fused epilogue (none, ReLU, residual add, add + ReLU),
   and 1 or 4 domains. *)
let prop_qconv_im2col =
  QCheck2.Test.make ~count:80 ~name:"im2col qconv = direct-loop oracle"
    QCheck2.Gen.(pair (oneofl [ 1; 4 ]) seed_gen)
    (fun (nd, seed) ->
      let rng = Twq_util.Rng.create seed in
      let pick l = List.nth l (Twq_util.Rng.int rng (List.length l)) in
      let k = pick [ 1; 3; 5 ] in
      let l, xi =
        qconv_case rng
          ~n:(1 + Twq_util.Rng.int rng 3)
          ~cin:(1 + Twq_util.Rng.int rng 9)
          ~cout:(1 + Twq_util.Rng.int rng 9)
          ~k ~stride:(pick [ 1; 2; 3 ]) ~pad:(pick [ 0; 1; 2 ])
          ~h:(k + Twq_util.Rng.int rng 7)
          ~w:(k + Twq_util.Rng.int rng 7)
          ~per_channel:(Twq_util.Rng.bool rng) ~bias:(Twq_util.Rng.bool rng)
          ~pow2:(Twq_util.Rng.bool rng)
      in
      let shape = qconv_out_shape l xi in
      let add =
        if Twq_util.Rng.bool rng then
          Some
            {
              Kernels.other =
                (itensor_of_rng rng shape).Itensor.data;
              shift_self = Twq_util.Rng.int rng 3;
              shift_other = Twq_util.Rng.int rng 3;
              bits = 8;
            }
        else None
      in
      let epilogue = { Kernels.relu = Twq_util.Rng.bool rng; add } in
      let got =
        with_domains nd (fun () ->
            qconv_packed_forward ~epilogue (Qconv.pack l) l xi)
      in
      Itensor.equal got (Qconv.forward_int_ref ~epilogue l xi))

(* Every register-block configuration on a stride-2 3×3 layer with
   K = 33·9 = 297, above the default KC of 256 (like ResNet-20's
   c32→c64 downsampling layer, K = 288), so the GEMM splits K into
   several cache panels under every config. *)
let qconv_sweep_case () =
  qconv_case (Twq_util.Rng.create 102) ~n:2 ~cin:33 ~cout:7 ~k:3 ~stride:2
    ~pad:1 ~h:9 ~w:8 ~per_channel:true ~bias:true ~pow2:true

let test_micro_config_sweep_qconv () =
  let l, xi = qconv_sweep_case () in
  let want = Qconv.forward_int_ref l xi in
  List.iter
    (fun (mr, nr, kc) ->
      with_mk_config ~mr ~nr ~kc (fun () ->
          Alcotest.(check bool)
            (Printf.sprintf "mr=%d nr=%d kc=%d" mr nr kc)
            true
            (Itensor.equal (Qconv.forward_int l xi) want)))
    mk_config_sweep

(* [Qconv.pack] holds nothing that depends on the register-block config
   (the im2col panels follow the config current at execution time), so
   a layer packed under one config still runs correctly after another
   is set. *)
let test_qconv_pack_config_change () =
  let l, xi = qconv_sweep_case () in
  let want = Qconv.forward_int_ref l xi in
  List.iter
    (fun ((mr, nr, kc), (mr', nr', kc')) ->
      let p = with_mk_config ~mr ~nr ~kc (fun () -> Qconv.pack l) in
      with_mk_config ~mr:mr' ~nr:nr' ~kc:kc' (fun () ->
          Alcotest.(check bool)
            (Printf.sprintf "packed %d/%d/%d, run %d/%d/%d" mr nr kc mr' nr'
               kc')
            true
            (Itensor.equal (qconv_packed_forward p l xi) want)))
    [ ((4, 8, 256), (3, 4, 8)); ((1, 1, 8), (4, 8, 256)); ((5, 5, 32), (2, 4, 16)) ]

(* --------------------- compressed-panel sparse GEMM vs dense driver *)

module Pruning = Twq_quant.Pruning

let with_sparse_threshold t f =
  Microkernel.set_sparse_threshold t;
  Fun.protect ~finally:Microkernel.reset_config f

(* Driver-level bit-identity: a random NR-packed B panel at a random
   density, compressed, must accumulate exactly what the dense driver
   accumulates — including into a pre-seeded C with a row stride wider
   than the panel. *)
let sparse_gemm_gen =
  QCheck2.Gen.(
    tup6 (int_range 1 5)
      (oneofl [ 1; 2; 4; 8 ])
      (int_range 1 40) (int_range 1 24)
      (oneofl [ 0.0; 0.1; 0.3; 0.5; 0.9 ])
      seed_gen)

let prop_sparse_gemm =
  QCheck2.Test.make ~count:100
    ~name:"gemm_i32_sparse = gemm_i32 on the compressed panel"
    sparse_gemm_gen
    (fun (mr, nr, k, cols, density, seed) ->
      let rng = Twq_util.Rng.create seed in
      let rows = 1 + Twq_util.Rng.int rng 40 in
      let kc = 8 + Twq_util.Rng.int rng 64 in
      let rows_p = Microkernel.round_up rows mr in
      let cols_p = Microkernel.round_up cols nr in
      let vp =
        Array.init (rows_p * k) (fun _ -> Twq_util.Rng.int rng 255 - 127)
      in
      let up = Array.make (cols_p * k) 0 in
      for j = 0 to cols - 1 do
        let jb = j / nr and jr = j mod nr in
        for kk = 0 to k - 1 do
          if Twq_util.Rng.float rng 1.0 < density then
            up.((((jb * k) + kk) * nr) + jr) <-
              (let m = 1 + Twq_util.Rng.int rng 126 in
               if Twq_util.Rng.bool rng then m else -m)
        done
      done;
      let cstride = cols_p + 3 in
      let c0 =
        Array.init (rows_p * cstride) (fun _ -> Twq_util.Rng.int rng 1000 - 500)
      in
      let cd = Array.copy c0 and cs = Array.copy c0 in
      Microkernel.gemm_i32 ~mr ~nr ~kc ~rows_p ~cols_p ~k ~vp ~vo:0 ~up ~uo:0
        ~c:cd ~co:0 ~cstride;
      let sp = Microkernel.compress_panel ~nr ~k ~cols:cols_p up ~uo:0 in
      Microkernel.gemm_i32_sparse ~mr ~rows_p ~sp ~vp ~vo:0 ~c:cs ~co:0
        ~cstride;
      cd = cs)

(* Layer-level bit-identity: prune a calibrated layer in the Winograd
   domain, then the sparse-selected forward (any threshold, 1 or 4
   domains) must equal the all-dense forward of the same pruned
   weights. *)
let prop_tapwise_sparse =
  QCheck2.Test.make ~count:25
    ~name:"sparse tapwise forward = dense forward of pruned weights"
    QCheck2.Gen.(
      tup5 variant_gen
        (oneofl [ 0.1; 0.3; 0.5 ])
        (oneofl [ 0.25; 0.5; 1.0 ])
        (oneofl [ 1; 4 ])
        seed_gen)
    (fun (v, density, thresh, nd, seed) ->
      let rng = Twq_util.Rng.create seed in
      let cin = 1 + Twq_util.Rng.int rng 5
      and cout = 1 + Twq_util.Rng.int rng 6 in
      let h = 6 + Twq_util.Rng.int rng 6 and wd = 6 + Twq_util.Rng.int rng 6 in
      let w = Tensor.rand_gaussian rng [| cout; cin; 3; 3 |] ~mu:0.0 ~sigma:0.5 in
      let samples = [ tensor_of_rng rng [| 1; cin; h; wd |] ] in
      let config = Tapwise.default_config v in
      let l = Tapwise.calibrate ~config ~w ~sample_inputs:samples ~pad:1 () in
      let l = Pruning.prune_layer l ~density in
      let x = tensor_of_rng rng [| 1; cin; h; wd |] in
      let xi =
        Quantizer.quantize_tensor ~bits:config.Tapwise.act_bits
          ~scale:l.Tapwise.s_x x
      in
      let dense =
        with_sparse_threshold 0.0 (fun () -> Tapwise.forward_int l xi)
      in
      let got =
        with_sparse_threshold thresh (fun () ->
            with_domains nd (fun () -> Tapwise.forward_int l xi))
      in
      Itensor.equal got dense)

(* The selection itself: after pruning to a low density, packing under
   a permissive threshold must route taps through the compressed path,
   and the measured densities must average out near the request. *)
let test_sparse_taps_selected () =
  let rng = Twq_util.Rng.create 47 in
  let w = Tensor.rand_gaussian rng [| 8; 8; 3; 3 |] ~mu:0.0 ~sigma:0.5 in
  let samples = [ tensor_of_rng rng [| 1; 8; 12; 12 |] ] in
  let config = Tapwise.default_config Transform.F4 in
  let l = Tapwise.calibrate ~config ~w ~sample_inputs:samples ~pad:1 () in
  let l = Pruning.prune_layer l ~density:0.3 in
  with_sparse_threshold 0.5 (fun () ->
      let p = Tapwise.pack l in
      let d = Tapwise.tap_densities p in
      let mean = Array.fold_left ( +. ) 0.0 d /. float_of_int (Array.length d) in
      Alcotest.(check bool) "sparse taps engaged" true
        (Tapwise.sparse_tap_count p > 0);
      Alcotest.(check bool) "mean density near request" true
        (Float.abs (mean -. 0.3) < 0.05));
  with_sparse_threshold 0.0 (fun () ->
      let p = Tapwise.pack l in
      Alcotest.(check int) "threshold 0 disables sparse" 0
        (Tapwise.sparse_tap_count p))

let test_sparse_threshold_invalid () =
  Alcotest.check_raises "above 1"
    (Invalid_argument
       "Microkernel.set_sparse_threshold: 1.5 must be in [0, 1]") (fun () ->
      Microkernel.set_sparse_threshold 1.5);
  Alcotest.check_raises "negative"
    (Invalid_argument
       "Microkernel.set_sparse_threshold: -0.1 must be in [0, 1]") (fun () ->
      Microkernel.set_sparse_threshold (-0.1))

(* -------------------------------------------- scratch arena behaviour *)

let test_scratch_reuse () =
  let a = Parallel.Scratch.create_float () in
  let b1 = Parallel.Scratch.borrow a 16 in
  Alcotest.(check bool) "sized up" true (Array.length b1 >= 16);
  b1.(0) <- 42.0;
  let b2 = Parallel.Scratch.borrow a 8 in
  Alcotest.(check bool) "same buffer on re-borrow" true (b1 == b2);
  let b3 = Parallel.Scratch.borrow a 64 in
  Alcotest.(check bool) "grows" true (Array.length b3 >= 64)

let test_scratch_per_domain () =
  (* Each participating domain must see its own buffer: write a marker
     from every chunk and check no cross-domain interference occurred. *)
  let a = Parallel.Scratch.create_int () in
  let ok = Array.make 64 false in
  with_domains 4 (fun () ->
      Parallel.parallel_for ~chunk:1 ~lo:0 ~hi:64 (fun i ->
          let buf = Parallel.Scratch.borrow a 4 in
          buf.(0) <- i;
          (* If another domain shared this buffer concurrently, the
             read-back would race; DLS guarantees it cannot. *)
          ok.(i) <- buf.(0) = i));
  Alcotest.(check bool) "per-domain buffers" true (Array.for_all Fun.id ok)

(* ----------------------------------------------------------- registry *)

let () =
  let qsuite =
    List.map QCheck_alcotest.to_alcotest
      [
        prop_float_tiles;
        prop_int_tiles;
        prop_conv_f32;
        prop_conv_int;
        prop_conv_f32_four_domains;
        prop_conv_int_four_domains;
        prop_gconv;
        prop_tapwise;
        prop_micro_f32_edge;
        prop_micro_int_edge;
        prop_sparse_gemm;
        prop_tapwise_sparse;
        prop_qconv_im2col;
      ]
  in
  Alcotest.run "kernels"
    [
      ("qcheck", qsuite);
      ( "microkernel",
        [
          Alcotest.test_case "int config sweep = ref" `Quick
            test_micro_config_sweep_int;
          Alcotest.test_case "f32 config sweep = ref" `Quick
            test_micro_config_sweep_f32;
          Alcotest.test_case "tapwise config sweep = ref" `Quick
            test_micro_config_sweep_tapwise;
          Alcotest.test_case "qconv config sweep = ref" `Quick
            test_micro_config_sweep_qconv;
          Alcotest.test_case "qconv packed under another config" `Quick
            test_qconv_pack_config_change;
        ] );
      ( "sparse",
        [
          Alcotest.test_case "pack selects sparse taps" `Quick
            test_sparse_taps_selected;
          Alcotest.test_case "threshold bounds" `Quick
            test_sparse_threshold_invalid;
        ] );
      ( "scratch",
        [
          Alcotest.test_case "borrow reuses and grows" `Quick test_scratch_reuse;
          Alcotest.test_case "per-domain isolation" `Quick test_scratch_per_domain;
        ] );
    ]
