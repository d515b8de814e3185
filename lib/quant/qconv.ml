module Tensor = Twq_tensor.Tensor
module Itensor = Twq_tensor.Itensor
module Ops = Twq_tensor.Ops
module Shape = Twq_tensor.Shape
module Kernels = Twq_winograd.Kernels
module Microkernel = Twq_winograd.Microkernel
module P = Twq_util.Parallel

type layer = {
  act_bits : int;
  s_x : float;
  s_w : float;
  s_w_channel : float array option;  (* per-output-channel weight scales *)
  s_y : float;
  wq : Itensor.t;
  bias : Tensor.t option;
  stride : int;
  pad : int;
}

let weight_scale l co =
  match l.s_w_channel with Some s -> s.(co) | None -> l.s_w

let calibrate ?(act_bits = 8) ?(pow2 = false) ?(per_channel = false) ~w ?bias
    ?input_scale ~sample_inputs ~stride ~pad () =
  let snap s = if pow2 then Quantizer.pow2_round_up s else s in
  let s_x =
    match input_scale with
    | Some s -> s
    | None ->
        let x_max =
          List.fold_left (fun a x -> Float.max a (Tensor.max_abs x)) 0.0 sample_inputs
        in
        snap (Quantizer.scale_for ~bits:act_bits ~max_abs:x_max)
  in
  let s_w = snap (Quantizer.scale_for ~bits:act_bits ~max_abs:(Tensor.max_abs w)) in
  let cout = Tensor.dim w 0 and cin = Tensor.dim w 1 in
  let kh = Tensor.dim w 2 and kw = Tensor.dim w 3 in
  (* Channel-wise weight scales (Sec. V-A4's spatial-domain refinement):
     one scale per output channel, each snapped independently. *)
  let s_w_channel =
    if not per_channel then None
    else
      Some
        (Array.init cout (fun co ->
             let m = ref 0.0 in
             for ci = 0 to cin - 1 do
               for i = 0 to kh - 1 do
                 for j = 0 to kw - 1 do
                   m := Float.max !m (Float.abs (Tensor.get4 w co ci i j))
                 done
               done
             done;
             snap (Quantizer.scale_for ~bits:act_bits ~max_abs:!m)))
  in
  let scale_of co =
    match s_w_channel with Some s -> s.(co) | None -> s_w
  in
  let wq =
    Itensor.init [| cout; cin; kh; kw |] (fun idx ->
        Quantizer.quantize ~bits:act_bits ~scale:(scale_of idx.(0))
          (Tensor.get4 w idx.(0) idx.(1) idx.(2) idx.(3)))
  in
  let w_fq =
    Tensor.init [| cout; cin; kh; kw |] (fun idx ->
        Quantizer.dequantize ~scale:(scale_of idx.(0))
          (Itensor.get4 wq idx.(0) idx.(1) idx.(2) idx.(3)))
  in
  let y_max =
    List.fold_left
      (fun a x ->
        let y = Ops.conv2d ~stride ~pad ~x ~w:w_fq ?b:bias () in
        Float.max a (Tensor.max_abs y))
      0.0 sample_inputs
  in
  let s_y = snap (Quantizer.scale_for ~bits:act_bits ~max_abs:y_max) in
  { act_bits; s_x; s_w; s_w_channel; s_y; wq; bias; stride; pad }

(* Direct six-deep loop over (image, channel, pixel, cin, kh, kw) with a
   padding test per MAC — the oracle the im2col path below is tested
   against.  Output channels are independent (each owns its
   out[ni][co] plane and its own requant scale), so the (image,
   channel) loop is parallel, lock-free and bit-identical
   sequentially. *)
let forward_int_ref ?(epilogue = Kernels.no_epilogue) l x =
  let n = Itensor.dim x 0 and cin = Itensor.dim x 1 in
  let h = Itensor.dim x 2 and w = Itensor.dim x 3 in
  let cout = Itensor.dim l.wq 0 in
  let kh = Itensor.dim l.wq 2 and kw = Itensor.dim l.wq 3 in
  if Itensor.dim l.wq 1 <> cin then invalid_arg "Qconv.forward_int: channel mismatch";
  let ho, wo = Shape.conv2d_out ~h ~w ~kh ~kw ~stride:l.stride ~pad:l.pad in
  let out = Itensor.zeros [| n; cout; ho; wo |] in
  let od = out.Itensor.data in
  (* Hoisted so the inner store is unboxed arithmetic: a
     [Quantizer.quantize] call per element boxes its float arguments
     (no flambda). *)
  let a_hi = (1 lsl (l.act_bits - 1)) - 1 in
  let a_lo = -(a_hi + 1) in
  let s_y = l.s_y in
  P.parallel_for ~lo:0 ~hi:(n * cout) (fun idx ->
      let ni = idx / cout and co = idx mod cout in
      let bias_v = match l.bias with None -> 0.0 | Some b -> b.Tensor.data.(co) in
      let requant_scale = l.s_x *. weight_scale l co in
      for oh = 0 to ho - 1 do
        let orow = (((((ni * cout) + co) * ho) + oh) * wo) in
        for ow = 0 to wo - 1 do
          let acc = ref 0 in
          for ci = 0 to cin - 1 do
            for ki = 0 to kh - 1 do
              for kj = 0 to kw - 1 do
                let hi = (oh * l.stride) + ki - l.pad
                and wi = (ow * l.stride) + kj - l.pad in
                if hi >= 0 && hi < h && wi >= 0 && wi < w then
                  acc := !acc + (Itensor.get4 x ni ci hi wi * Itensor.get4 l.wq co ci ki kj)
              done
            done
          done;
          let real = (float_of_int !acc *. requant_scale) +. bias_v in
          (* Inlined [Quantizer.quantize ~bits:l.act_bits ~scale:s_y]. *)
          let r = int_of_float (Float.round (real /. s_y)) in
          let q = if r > a_hi then a_hi else if r < a_lo then a_lo else r in
          Kernels.epilogue_store epilogue od (orow + ow) q
        done
      done);
  out

(* Per-domain staging for the im2col forward: the NR-packed im2col
   panels of one output-pixel block and its C block. *)
let qa_b = P.Scratch.create_int ()
let qa_c = P.Scratch.create_int ()

(* Everything about the layer that does not depend on the input shape,
   staged once at plan time.  The weights need no copy: [wq] is stored
   row-major as [cout × K] with K = cin·kh·kw in (ci, ki, kj) order,
   which is already the microkernel's A operand in one-row panels
   (MR = 1).  A repacked copy would keep a second set of weights alive
   for as long as the program (see DESIGN.md §9 for what that cost). *)
type packed = {
  layer : layer;
  requant : float array;  (* per channel: s_x · weight_scale co *)
  bias_v : float array;  (* per channel, 0.0 without bias *)
}

let pack l =
  let cout = Itensor.dim l.wq 0 in
  {
    layer = l;
    requant = Array.init cout (fun co -> l.s_x *. weight_scale l co);
    bias_v =
      Array.init cout (fun co ->
          match l.bias with None -> 0.0 | Some b -> b.Tensor.data.(co));
  }

let packed_layer p = p.layer

(* Production path: im2col onto the same register-tiled int GEMM that
   runs the per-tap Winograd GEMMs.  Output pixels are cut into blocks;
   per block the receptive fields are gathered straight into NR-packed
   B panels (zeros for padding and for the pad lanes of a partial
   block), one [gemm_i32] multiplies the weight rows against them into
   a [cout × pixels] C block, and the store requantizes each sum
   exactly as the direct loop does, one contiguous output row per
   channel.  Integer sums are exact, so the result is bit-identical to
   [forward_int_ref]; blocks are independent and run in parallel. *)
let forward_int_into ?(epilogue = Kernels.no_epilogue) p x ~out =
  let l = p.layer in
  let n = Itensor.dim x 0 and cin = Itensor.dim x 1 in
  let h = Itensor.dim x 2 and w = Itensor.dim x 3 in
  let cout = Itensor.dim l.wq 0 in
  let kh = Itensor.dim l.wq 2 and kw = Itensor.dim l.wq 3 in
  if Itensor.dim l.wq 1 <> cin then invalid_arg "Qconv.forward_int: channel mismatch";
  let stride = l.stride and pad = l.pad in
  let ho, wo = Shape.conv2d_out ~h ~w ~kh ~kw ~stride ~pad in
  if
    Itensor.dim out 0 <> n || Itensor.dim out 1 <> cout
    || Itensor.dim out 2 <> ho || Itensor.dim out 3 <> wo
  then invalid_arg "Qconv.forward_int_into: out shape mismatch";
  let od = out.Itensor.data and xd = x.Itensor.data and wd = l.wq.Itensor.data in
  let requant = p.requant and bias_v = p.bias_v in
  let a_hi = (1 lsl (l.act_bits - 1)) - 1 in
  let a_lo = -(a_hi + 1) in
  let s_y = l.s_y in
  let kk = cin * kh * kw in
  let hw_o = ho * wo in
  let total = n * hw_o in
  let { Microkernel.nr; kc; _ } = Microkernel.config () in
  let tb =
    Microkernel.round_up
      (max 1 (min 64 (total / max 1 (4 * P.num_domains ()))))
      nr
  in
  let nblocks = (total + tb - 1) / tb in
  P.parallel_for ~chunk:1 ~lo:0 ~hi:nblocks (fun blk ->
      let b0 = blk * tb in
      let bs = min tb (total - b0) in
      let bs_p = Microkernel.round_up bs nr in
      let b = P.Scratch.borrow qa_b (bs_p * kk) in
      let c = P.Scratch.borrow qa_c (cout * bs_p) in
      (* im2col gather: pixel [pi]'s receptive field becomes column [pi]
         of the B operand, element k at (jb·K + k)·nr + jr. *)
      for pi = 0 to bs - 1 do
        let pix = b0 + pi in
        let ni = pix / hw_o and r = pix mod hw_o in
        let h0 = ((r / wo) * stride) - pad and w0 = ((r mod wo) * stride) - pad in
        let pb = ((pi / nr) * kk * nr) + (pi mod nr) in
        for ci = 0 to cin - 1 do
          let xbase = ((ni * cin) + ci) * h * w in
          for ki = 0 to kh - 1 do
            let hi = h0 + ki in
            let brow = pb + ((((ci * kh) + ki) * kw) * nr) in
            if hi < 0 || hi >= h then
              for kj = 0 to kw - 1 do
                b.(brow + (kj * nr)) <- 0
              done
            else begin
              let xrow = xbase + (hi * w) in
              for kj = 0 to kw - 1 do
                let wi = w0 + kj in
                b.(brow + (kj * nr)) <-
                  (if wi >= 0 && wi < w then xd.(xrow + wi) else 0)
              done
            end
          done
        done
      done;
      (* Zero the pad lanes of a trailing partial block. *)
      for pi = bs to bs_p - 1 do
        let pb = ((pi / nr) * kk * nr) + (pi mod nr) in
        for k = 0 to kk - 1 do
          b.(pb + (k * nr)) <- 0
        done
      done;
      Array.fill c 0 (cout * bs_p) 0;
      Microkernel.gemm_i32 ~mr:1 ~nr ~kc ~rows_p:cout ~cols_p:bs_p ~k:kk ~vp:wd
        ~vo:0 ~up:b ~uo:0 ~c ~co:0 ~cstride:bs_p;
      (* Requantize and store, with the fused epilogue. *)
      let ni0 = b0 / hw_o and r0 = b0 mod hw_o in
      for co = 0 to cout - 1 do
        let rq = requant.(co) and bv = bias_v.(co) in
        let ni = ref ni0 and r = ref r0 in
        for pi = 0 to bs - 1 do
          let real = (float_of_int c.((co * bs_p) + pi) *. rq) +. bv in
          (* Inlined [Quantizer.quantize ~bits:l.act_bits ~scale:s_y]. *)
          let q = int_of_float (Float.round (real /. s_y)) in
          let q = if q > a_hi then a_hi else if q < a_lo then a_lo else q in
          Kernels.epilogue_store epilogue od
            ((((!ni * cout) + co) * hw_o) + !r)
            q;
          incr r;
          if !r = hw_o then begin
            r := 0;
            incr ni
          end
        done
      done)

let forward_int l x =
  let n = Itensor.dim x 0 in
  let h = Itensor.dim x 2 and w = Itensor.dim x 3 in
  let cout = Itensor.dim l.wq 0 in
  let kh = Itensor.dim l.wq 2 and kw = Itensor.dim l.wq 3 in
  let ho, wo = Shape.conv2d_out ~h ~w ~kh ~kw ~stride:l.stride ~pad:l.pad in
  let out = Itensor.zeros [| n; cout; ho; wo |] in
  forward_int_into (pack l) x ~out;
  out

let forward l x =
  let x_int = Quantizer.quantize_tensor ~bits:l.act_bits ~scale:l.s_x x in
  Quantizer.dequantize_tensor ~scale:l.s_y (forward_int l x_int)
