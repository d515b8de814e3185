(** Deployment: export a trained QAT model to an integer-only network.

    This is the end goal of the paper's flow — after Winograd-aware
    training, inference runs entirely on int8 tensors with Winograd-domain
    integers and shift-based rescaling:

    - batch-norm parameters are folded into the conv weights/biases using
      statistics gathered on a calibration batch;
    - each 3×3 convolution becomes a {!Twq_quant.Tapwise} layer; the
      inter-layer scales chain exactly ([s_x] of layer n+1 = [s_y] of
      layer n), so activations stay int8 end-to-end;
    - ReLU and 2×2 average pooling run directly on the int8 tensors
      (pooling divides by 4 with the hardware round-shift);
    - only the final global-average-pool + fully-connected head runs in
      float (its cost is negligible; the paper's accelerator handles it in
      the Vector Unit).

    Only the [Vgg_mini] architecture is currently exportable (residual
    blocks would additionally need requantized int8 skip-adds). *)

type t

val export :
  Qat_model.t ->
  calibration:Twq_tensor.Tensor.t ->
  ?variant:Twq_winograd.Transform.variant ->
  ?wino_bits:int ->
  unit ->
  t
(** Fold BN, calibrate and quantize every conv of the model.
    [calibration] is an NCHW batch of representative inputs.
    @raise Invalid_argument for non-[Vgg_mini] architectures. *)

val forward : t -> Twq_tensor.Tensor.t -> Twq_tensor.Tensor.t
(** Logits for a batch; everything up to the head runs on integers.
    [Int_graph.run] on {!graph}: the compiled {!Plan} for the batch
    shape (compiled once per shape, cached). *)

val graph : t -> Int_graph.t
(** The network as an integer graph ({!Int_graph.chain}): the one
    interpreter and plan cache behind {!forward}.  Its
    {!Int_graph.run_ref} is the oracle {!forward} is tested against. *)

val accuracy : t -> Twq_dataset.Synth_images.sample array -> float
(** Top-1 accuracy of the integer network on a dataset split. *)

val layers : t -> Twq_quant.Tapwise.layer list
(** The exported integer conv layers (inspection / further compression,
    e.g. {!Twq_quant.Pruning}). *)

val to_string : t -> string
val of_string : string -> t
(** Exact text round-trip: a reloaded network produces bit-identical
    integer activations. *)

val save : t -> string -> unit
val load : string -> t
