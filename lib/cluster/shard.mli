(** Tensor-parallel shard layer: adapts {!Llm.tp_plan} to the
    scheduler's pluggable {!Serve.Scheduler.engine}, so a replica runs
    its GEMM/attention layers column-split across its slice of the
    persistent Team pool. Every plan runs the same decoder-layer body
    and unsharded execution is its 1-shard plan, so the engines are
    bit-identical — swapping one changes only where the FLOPs run. *)

(** Engine over an existing plan. *)
val engine : Llm.tp_plan -> Serve.Scheduler.engine

(** [engine_for ?nthreads llm ~shards] — [shards <= 1] yields the
    1-shard engine {!Llm.extend} (one team, kernels parallelized by
    [nthreads]); [shards > 1] builds a tensor-parallel plan, or returns
    [Error] with the shape constraint that failed. *)
val engine_for :
  ?nthreads:int -> Llm.t -> shards:int -> (Serve.Scheduler.engine, string) result
