(** Quantized standard (im2col) convolution — the int8 baseline operator.

    This is the non-Winograd datapath of the accelerator: int8 activations
    and weights, int32 accumulation, requantization on output.  It is the
    reference the paper's Table II "im2col int8" row corresponds to, and
    it runs the same way: receptive fields are gathered into im2col
    panels and multiplied against the weights on the register-tiled
    integer GEMM ({!Twq_winograd.Microkernel.gemm_i32}) that also runs
    the per-tap Winograd GEMMs of {!Tapwise}. *)

type layer = {
  act_bits : int;
  s_x : float;
  s_w : float;                       (** layer-wise weight scale *)
  s_w_channel : float array option;  (** per-output-channel scales if enabled *)
  s_y : float;
  wq : Twq_tensor.Itensor.t;  (** [cout; cin; kh; kw] int weights *)
  bias : Twq_tensor.Tensor.t option;
  stride : int;
  pad : int;
}

val weight_scale : layer -> int -> float
(** Effective weight scale of output channel [co]. *)

val calibrate :
  ?act_bits:int ->
  ?pow2:bool ->
  ?per_channel:bool ->
  w:Twq_tensor.Tensor.t ->
  ?bias:Twq_tensor.Tensor.t ->
  ?input_scale:float ->
  sample_inputs:Twq_tensor.Tensor.t list ->
  stride:int ->
  pad:int ->
  unit ->
  layer
(** [input_scale] pins [s_x] so layers can chain (see
    {!Tapwise.calibrate}); [per_channel] enables output-channel-wise weight
    scales (the spatial-domain refinement of Sec. V-A4, ~1.7× lower weight
    quantization error). *)

type packed
(** A layer staged for {!forward_int_into}: the per-channel requant
    factors and bias, computed once.  The weights are used in place —
    [wq]'s row-major [\[cout × cin·kh·kw\]] layout already is the
    GEMM's weight operand in one-row panels — so packing copies no
    weights and holds nothing that depends on the
    {!Twq_winograd.Microkernel} configuration. *)

val pack : layer -> packed
(** Stage [layer] for {!forward_int_into}.  The planner packs every
    spatial layer once when it lowers a graph; the staged layer belongs
    to the program and is freed with it. *)

val packed_layer : packed -> layer
(** The underlying layer (scales, bias, geometry). *)

val forward_int_into :
  ?epilogue:Twq_winograd.Kernels.epilogue ->
  packed ->
  Twq_tensor.Itensor.t ->
  out:Twq_tensor.Itensor.t ->
  unit
(** In-place im2col forward: writes the requantized int8 activations
    into [out] (shape [\[n; cout; ho; wo\]], typically a planner arena
    buffer), applying [epilogue] in the output store — requant to [s_y],
    then optional saturating residual add and ReLU, in one pass.  Output
    pixels are processed in blocks (sized from the shape and the domain
    count) whose im2col columns are gathered straight into NR-packed
    panels held in per-domain scratch arenas and multiplied against the
    weights by {!Twq_winograd.Microkernel.gemm_i32}, so a steady-state
    call allocates nothing.  Bit-identical to {!forward_int_ref}. *)

val forward_int : layer -> Twq_tensor.Itensor.t -> Twq_tensor.Itensor.t
(** int8 in → int8 out; int32 accumulation internally.  {!pack} followed
    by {!forward_int_into} with the identity epilogue. *)

val forward_int_ref :
  ?epilogue:Twq_winograd.Kernels.epilogue ->
  layer ->
  Twq_tensor.Itensor.t ->
  Twq_tensor.Itensor.t
(** Direct-loop oracle: one multiply-accumulate per (pixel, cin, kh, kw)
    with a padding test each, requantized and stored through [epilogue]
    exactly as {!forward_int_into}.  [Int_graph.run_ref] uses it, so the
    planner's bit-identity checks compare the GEMM path against an
    independent implementation. *)

val forward : layer -> Twq_tensor.Tensor.t -> Twq_tensor.Tensor.t
(** Float wrapper (quantize → {!forward_int} → dequantize). *)
