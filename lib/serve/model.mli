(** A servable model artifact: a {!Twq_nn.Deploy} net or a
    {!Twq_nn.Int_graph} integer graph.  A net keeps its own file format
    but runs as the integer graph it holds ({!Twq_nn.Deploy.graph}).

    Both run batched: a float NCHW input [n; c; h; w] yields float logits
    [n; classes], and each output row depends only on its own input row —
    batched execution is bit-identical to per-image execution, which the
    dynamic batcher relies on. *)

type t = Net of Twq_nn.Deploy.t | Graph of Twq_nn.Int_graph.t

val kind : t -> string
(** ["net"] or ["graph"] — the tag stored in registry artifact headers. *)

val to_string : t -> string

val of_string : string -> (t, string) result
(** Dispatches on the payload's magic line; never raises. *)

val run_batch : t -> Twq_tensor.Tensor.t -> Twq_tensor.Tensor.t
(** [run_batch m x] with [x : [n; c; h; w]] returns logits
    [[n; classes]]. *)

val warm : t -> input_dims:int array -> batch_sizes:int list -> unit
(** Pre-compile the execution plans for batches [n; c; h; w] with [n]
    drawn from [batch_sizes] and [input_dims = [| c; h; w |]], so no
    request pays for planning.  Cheap (pure scheduling); no-op for
    graphs without a plan cache. *)
