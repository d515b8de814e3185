(** Compiled execution plans for integer inference graphs.

    The interpreters in {!Int_graph} and {!Deploy} walk their node lists
    allocating a fresh activation tensor per node per forward and sweep
    the activations again for every elementwise epilogue.  A plan
    compiles the same computation, for one concrete input shape, into:

    - a topological schedule over the nodes reachable from the output;
    - fused epilogues: ReLU and the saturating residual add move into
      the producing convolution's output store (alongside the requant
      that already lives there), mirroring the paper's FixPipe, so each
      activation is written exactly once;
    - liveness-based buffer reuse: every intermediate activation gets a
      [def, last-read] interval on the fused schedule and a greedy
      best-fit assignment onto a small arena of reusable buffers, sized
      once at compile time;
    - per-domain execution state ({!Domain.DLS}): concurrent server
      workers share the plan but never a buffer, and a steady-state
      forward allocates only its returned logits.

    Planned execution is bit-identical to the reference interpreters
    ([Int_graph.run_ref] / [Deploy.forward_ref]); the test-suite checks
    this exhaustively over random graphs. *)

module Tensor = Twq_tensor.Tensor
module Itensor = Twq_tensor.Itensor
module Tapwise = Twq_quant.Tapwise
module Qconv = Twq_quant.Qconv

(** {1 Program IR}

    A lowered, execution-ready form of an integer graph: convolutions
    are pre-packed ({!Tapwise.pack}, {!Qconv.pack}), scales are resolved
    to shifts, and the float head carries its own dequantization
    scale. *)

type prim =
  | P_quantize of float  (** float NCHW input → int8 at the given scale *)
  | P_wino of Tapwise.packed
  | P_spatial of Qconv.packed
  | P_relu
  | P_leaky of int  (** negative slope = 2{^-k} *)
  | P_max_pool of { k : int; stride : int }
  | P_avg_pool2
  | P_upsample of int
  | P_add of { shift_a : int; shift_b : int }
  | P_concat of { shift_a : int; shift_b : int }
  | P_head of { w : Tensor.t; bias : Tensor.t option; in_scale : float }
      (** dequantize → global-average-pool → linear *)

type pnode = { prim : prim; args : int list }
(** [args] are indices of earlier nodes (strictly smaller than the
    node's own index). *)

type program = { pnodes : pnode array; out : int }
(** [out] must name a [P_head] node. *)

(** {1 Compiled plans} *)

type t
(** A plan for one concrete input shape. *)

val compile : program -> input_shape:int array -> t
(** Schedule, fuse, and assign buffers for inputs of [input_shape]
    ([| n; c; h; w |]).
    @raise Invalid_argument on malformed programs or shapes. *)

val execute : t -> Tensor.t -> Tensor.t
(** Run one forward.  The input must match the plan's shape exactly;
    returns the float logits.  Thread-safe: each domain lazily builds
    its own arena on first use. *)

val input_shape : t -> int array

(** {2 Introspection} — used by the tests and the bench harness. *)

type assignment = {
  node : int;  (** program node id *)
  slot : int;  (** arena buffer id *)
  birth : int;  (** schedule step defining the node *)
  death : int;  (** last schedule step reading it *)
  words : int;  (** activation size in ints *)
}

val assignments : t -> assignment list
val num_steps : t -> int
val num_buffers : t -> int

val arena_words : t -> int
(** Total arena size (ints) after reuse. *)

val naive_words : t -> int
(** Sum of all scheduled activation sizes — what the interpreter
    allocates per forward. *)

val fused_epilogues : t -> int
(** Number of elementwise nodes folded into conv output loops. *)

(** {1 Shape-keyed plan cache}

    Serving keys plans by batch shape: the cache compiles on first
    sight of a shape and reuses the plan afterwards (bounded LRU-ish,
    16 shapes). *)

type cache

val cache : program -> cache
(** @raise Invalid_argument if [out] is not a [P_head]. *)

val plan : cache -> input_shape:int array -> t
(** Find or compile the plan for [input_shape].  Thread-safe. *)

val run : cache -> Tensor.t -> Tensor.t
(** [plan] + [execute] for the input's own shape. *)

val cached_shapes : cache -> int array list

val wino_sparsity : cache -> int * int
(** [(sparse, total)] tap counts over the program's packed Winograd
    layers: how many taps will execute through the compressed-panel
    GEMM driver versus the total number of taps.  The split was decided
    per tap at lowering time against [Microkernel.sparse_threshold]. *)
