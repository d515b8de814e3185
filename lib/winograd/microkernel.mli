(** Register-tiled, cache-blocked GEMM microkernels for the per-tap
    Winograd GEMMs.

    Operands are *packed* panels, padded to full register blocks:

    - A (tiles): [ceil(rows/MR)] consecutive [K × MR] panels; element
      [(k, lane)] of panel [ib] lives at [ib·K·MR + k·MR + lane].
    - B (weights): [ceil(cols/NR)] consecutive [K × NR] panels; element
      [(k, lane)] of panel [jb] lives at [jb·K·NR + k·NR + lane].
    - C: row-major with row stride [cstride ≥ cols_p], updated in place.

    Pad lanes of A and B must be zero: the corresponding C elements then
    compute exact zeros and callers simply never read them.

    Numerical contract: each C element is a left fold over ascending [k]
    seeded from C's current value, so KC-panel splitting does not change
    the association. The integer kernels are bit-identical to the naive
    triple loop; the float kernels are IEEE-identical to it. *)

type cfg = { mr : int; nr : int; kc : int }

val default_cfg : cfg
(** Compiled defaults (MR=NR=4, KC=256), overridable at process start
    via [TWQ_GEMM_MR] / [TWQ_GEMM_NR] / [TWQ_GEMM_KC]. A malformed or
    non-positive override raises [Invalid_argument] naming the variable
    and the offending value (fail fast at module initialization);
    positive values outside the supported range are clamped. *)

val config : unit -> cfg
(** Current configuration. Drivers read it once per call, so a
    mid-call change cannot desync packing from consumption. *)

val set_config : ?mr:int -> ?nr:int -> ?kc:int -> unit -> unit
(** Override fields of the current configuration (clamped to sane
    ranges). Intended for tests and experiments; not thread-safe with
    respect to in-flight convolutions. *)

val reset_config : unit -> unit
(** Restore [default_cfg] and the default sparse threshold. *)

val sparse_threshold : unit -> float
(** Density cutoff for the compressed-panel path: a tap whose weight
    panel density is strictly below this is packed compressed (see
    {!compress_panel}) by [Tapwise.pack]. Default 0.5, overridable at
    process start via [TWQ_SPARSE_THRESHOLD]; malformed or
    out-of-[0, 1] values raise [Invalid_argument] naming the variable
    and value. 0.0 disables the sparse path entirely. *)

val set_sparse_threshold : float -> unit
(** Override the sparse/dense cutoff. Raises [Invalid_argument] outside
    [0, 1]. Only affects packs performed after the call. *)

val round_up : int -> int -> int
(** [round_up n b] is [n] rounded up to a multiple of [b]. *)

val gemm_f32 :
  mr:int ->
  nr:int ->
  kc:int ->
  rows_p:int ->
  cols_p:int ->
  k:int ->
  vp:float array ->
  vo:int ->
  up:float array ->
  uo:int ->
  c:float array ->
  co:int ->
  cstride:int ->
  unit
(** [gemm_f32 ~mr ~nr ~kc ~rows_p ~cols_p ~k ~vp ~vo ~up ~uo ~c ~co
    ~cstride] accumulates the [rows_p × cols_p] product of the packed
    panels at [vp+vo] / [up+uo] into [c] starting at [co]. [rows_p] and
    [cols_p] must be multiples of [mr] and [nr] respectively. *)

val gemm_i32 :
  mr:int ->
  nr:int ->
  kc:int ->
  rows_p:int ->
  cols_p:int ->
  k:int ->
  vp:int array ->
  vo:int ->
  up:int array ->
  uo:int ->
  c:int array ->
  co:int ->
  cstride:int ->
  unit
(** Integer variant of {!gemm_f32}; exact arithmetic, bit-identical to
    the naive ascending-[k] triple loop. *)

(** {1 Compressed panels for pruned taps}

    Block-compressed form of one tap's B panel at the measured-optimal
    granularity: per output column, the ascending list of nonzero k
    rows with their values (compressed sparse columns — the degenerate
    1×1 block of the block-compressed family; larger blocks are never
    all-zero under unstructured magnitude pruning at useful densities).
    Execution skips zero entries only, so the integer result is
    bit-identical to dense execution of the same weights. *)

type sparse = {
  sp_k : int;  (** logical panel depth (Cin) *)
  sp_cols : int;  (** packed column count (Cout rounded up to NR) *)
  sp_off : int array;  (** [cols+1] CSC offsets into [sp_idx]/[sp_val] *)
  sp_idx : int array;  (** nonzero k rows, ascending per column *)
  sp_val : int array;  (** matching weight values *)
}

val compress_panel : nr:int -> k:int -> cols:int -> int array -> uo:int -> sparse
(** [compress_panel ~nr ~k ~cols up ~uo] compresses the NR-packed
    [k × cols] B panel starting at [up.(uo)]. Padded columns (all-zero
    by the packing contract) come out empty. *)

val sparse_nnz : sparse -> int
(** Number of stored nonzero entries. *)

val gemm_i32_sparse :
  mr:int ->
  rows_p:int ->
  sp:sparse ->
  vp:int array ->
  vo:int ->
  c:int array ->
  co:int ->
  cstride:int ->
  unit
(** [gemm_i32_sparse ~mr ~rows_p ~sp ~vp ~vo ~c ~co ~cstride]
    accumulates the [rows_p × sp.sp_cols] product of the packed A
    panels at [vp+vo] and the compressed B panel into [c] at [co] (row
    stride [cstride]). [rows_p] must be a multiple of [mr]. Bit-identical
    to {!gemm_i32} on the panel [sp] was compressed from. *)
