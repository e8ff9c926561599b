(** Fully-connected layer on logical [tokens x features] activations, built
    on the PARLOOPER GEMM kernel, with a training-grade backward pass.

    Convention (matching BERT-style layers): activations are row-major
    [N x in_features]; weights are [out_features x in_features];
    [forward] computes Y = X W^T + b. Internally the GEMM runs with W as
    the A operand and X^T as the B operand, exactly the paper's
    fully-connected formulation O = W x I. The weights rest in their
    logical layout and the GEMM reads each block in place by stride;
    when the token count leaves one row per N block (always at N = 1),
    X and Y are the blocked B and C as they are, so a forward copies
    nothing but its output. *)

type activation = Linear | Relu_act | Gelu_act

type t = {
  in_features : int;
  out_features : int;
  weights : Tensor.t;  (** logical [out x in] *)
  bias : Tensor.t;  (** [out] *)
  act : activation;
  block : int;
  dtype : Datatype.t;
  spec : string;
}

val create :
  rng:Prng.t ->
  ?dtype:Datatype.t ->
  ?act:activation ->
  ?block:int ->
  ?spec:string ->
  in_features:int ->
  out_features:int ->
  unit ->
  t

(** [forward t x] with [x : N x in] returns [N x out], for any token
    count [N] (the N block is the largest divisor of [N] not above the
    block size). *)
val forward : ?nthreads:int -> t -> Tensor.t -> Tensor.t

(** Saved context from a forward pass used by backward. *)
type ctx

val forward_ctx : ?nthreads:int -> t -> Tensor.t -> Tensor.t * ctx

type grads = { d_input : Tensor.t; d_weights : Tensor.t; d_bias : Tensor.t }

(** [backward t ctx ~dy] — gradients for input, weights and bias given the
    upstream gradient [N x out]. *)
val backward : ?nthreads:int -> t -> ctx -> dy:Tensor.t -> grads

(** Apply SGD update in place: w -= lr * dw. *)
val sgd_update : t -> grads -> lr:float -> unit

(** Forward FLOPs for [n] tokens: 2 * n * in * out. *)
val flops : t -> n:int -> float
