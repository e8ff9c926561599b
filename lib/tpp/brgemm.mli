(** Batch-Reduce GEMM (BRGEMM) — the paper's main tensor-contraction TPP.

    BRGEMM materializes [C = beta*C + sum_{i=0}^{count-1} A_i x B_i] over
    [bm x bk] blocks of A and [bk x bn] blocks of B, reducing into one
    [bm x bn] block of C. Three addressing variants are supported, as in
    LIBXSMM: stride-based (A_i/B_i at fixed element strides from a base),
    offset-based (explicit per-i offsets; used to fold convolution R/S
    loops), and address-based (arbitrary block list).

    Inputs may be FP32 or BF16 (values already on the BF16 grid); products
    are accumulated in OCaml floats (FP64) and rounded once, when the store
    to C quantizes to C's datatype. The B operand may be in flat [bk x bn]
    layout or packed VNNI layout [bk/v][bn][v].

    The body is a register-blocked microkernel. For each row of the C
    block, eight consecutive columns are held in eight unboxed float
    locals for the whole K loop of a batch step and written back once;
    the [bn mod 8] leftover columns (all of them when [bn < 8]) get one
    local each. Between batch steps the tile rests in an accumulator
    array leased from the thread's {!Scratch} arena, so a warm call
    allocates nothing. The VNNI walk splits K as [p = q*v + r] and reads
    B at row [q], column [j*v + r], with no division per step.

    Tiling changes where the partial sums live, not the order they are
    formed in: every C element still receives its products in increasing
    p within a block and blocks in batch order, and p is skipped where
    A's element is 0 (so a zero in A never meets an infinity or NaN in
    B). The result is bit-identical to the plain i-p-j loop. *)

type b_layout = Flat | Vnni

type config = {
  m : int;
  n : int;
  k : int;  (** block extents bm, bn, bk *)
  dtype : Datatype.t;  (** input (A/B) datatype *)
  b_layout : b_layout;
  beta : float;  (** 0.0 (overwrite) or 1.0 (accumulate) *)
}

val make_config :
  ?dtype:Datatype.t ->
  ?b_layout:b_layout ->
  ?beta:float ->
  m:int ->
  n:int ->
  k:int ->
  unit ->
  config

val config_to_string : config -> string

(** A compiled kernel: given base views of A, B, C plus the batch
    description, performs the contraction. Obtain via {!Dispatch.brgemm}
    (cached) or {!compile} (uncached). *)
type kernel

(** Build a kernel for a configuration (the "JIT" step). *)
val compile : config -> kernel

val config_of : kernel -> config

(** Stride variant: [A_i] starts [i*stride_a] elements after [a]'s origin
    (same leading dimension), likewise for B.
    [a]: [m x k] view, [b]: [k x n] flat view (or the VNNI-packed
    equivalent: [k/v] rows of [n*v] elements), [c]: [m x n] view. *)
val exec_stride :
  kernel ->
  a:Tensor.View.t ->
  b:Tensor.View.t ->
  c:Tensor.View.t ->
  stride_a:int ->
  stride_b:int ->
  count:int ->
  unit

(** Stride variant addressed into whole tensors: A's block starts at
    element [a_off] of [a]'s buffer with leading dimension [lda] and
    [A_i] [i*stride_a] further on, likewise B; C's [m x n] block starts at
    [c_off] with leading dimension [ldc] and is stored in [c]'s dtype.
    Same arithmetic as {!exec_stride}, but no {!Tensor.View.t} is built,
    so a loop body issuing it allocates nothing. Raises
    [Invalid_argument] when a block (over all [count] steps) falls
    outside its tensor. *)
val exec_flat :
  kernel ->
  a:Tensor.t ->
  a_off:int ->
  lda:int ->
  b:Tensor.t ->
  b_off:int ->
  ldb:int ->
  c:Tensor.t ->
  c_off:int ->
  ldc:int ->
  stride_a:int ->
  stride_b:int ->
  count:int ->
  unit

(** Offset variant: per-batch element offsets from the A and B origins.
    Arrays must have equal length = batch count. *)
val exec_offsets :
  kernel ->
  a:Tensor.View.t ->
  b:Tensor.View.t ->
  c:Tensor.View.t ->
  offs_a:int array ->
  offs_b:int array ->
  unit

(** Address variant: explicit (A_i, B_i) views. *)
val exec_list :
  kernel -> ab:(Tensor.View.t * Tensor.View.t) list -> c:Tensor.View.t -> unit

(** Plain GEMM block (count = 1). *)
val exec :
  kernel -> a:Tensor.View.t -> b:Tensor.View.t -> c:Tensor.View.t -> unit

(** FLOPs of one kernel invocation with [count] batches: 2*m*n*k*count. *)
val flops : config -> count:int -> float
