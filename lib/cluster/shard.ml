(* Tensor-parallel shard layer: adapt an [Llm.tp_plan] to the scheduler's
   pluggable engine, so a replica runs its GEMM/attention layers split
   column-wise across its slice of the Team pool. The sharded entry
   point is bit-identical to the unsharded one (see Llm's tp notes), so
   swapping the engine changes only where the FLOPs run. *)

let engine plan =
  { Serve.Scheduler.extend = (fun cache emb -> Llm.extend_tp plan cache emb) }

(* [shards <= 1] is the 1-shard plan, run by [Llm.extend] so [nthreads]
   reaches the kernels; [shards > 1] builds a tp plan or explains why the
   model shape cannot be split that way. *)
let engine_for ?nthreads llm ~shards =
  if shards <= 1 then
    Ok
      { Serve.Scheduler.extend =
          (fun cache emb -> Llm.extend ?nthreads llm cache emb) }
  else Result.map engine (Llm.tp_plan llm ~shards)
