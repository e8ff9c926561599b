type config = {
  name : string;
  hidden : int;
  heads : int;
  intermediate : int;
  layers : int;
  vocab : int;
  gated_ffn : bool;
}

let gptj_6b =
  { name = "GPTJ-6B"; hidden = 4096; heads = 16; intermediate = 16384;
    layers = 28; vocab = 50400; gated_ffn = false }

let llama2_13b =
  { name = "Llama2-13B"; hidden = 5120; heads = 40; intermediate = 13824;
    layers = 40; vocab = 32000; gated_ffn = true }

let tiny =
  { name = "tiny"; hidden = 32; heads = 2; intermediate = 64; layers = 2;
    vocab = 64; gated_ffn = true }

type layer = {
  attention : Attention.t;
  ffn_up : Fc.t;
  ffn_gate : Fc.t option;  (** SwiGLU gate projection *)
  ffn_down : Fc.t;
  ln1_gamma : Tensor.t;
  ln1_beta : Tensor.t;
  ln2_gamma : Tensor.t;
  ln2_beta : Tensor.t;
}

type t = { cfg : config; decoder : layer array }

let ln_params rng hidden =
  ( Tensor.init Datatype.F32 [| 1; hidden |] (fun _ ->
        1.0 +. Prng.uniform rng ~scale:0.02),
    Tensor.init Datatype.F32 [| 1; hidden |] (fun _ ->
        Prng.uniform rng ~scale:0.02) )

let create ~rng ?(dtype = Datatype.F32) ?(block = 16) ?(spec = Gemm.default_spec)
    cfg =
  let mk_layer () =
    let attention =
      Attention.create ~rng ~dtype ~block ~spec ~hidden:cfg.hidden
        ~heads:cfg.heads ()
    in
    let ffn_up =
      Fc.create ~rng ~dtype ~block ~spec
        ~act:(if cfg.gated_ffn then Fc.Linear else Fc.Gelu_act)
        ~in_features:cfg.hidden ~out_features:cfg.intermediate ()
    in
    let ffn_gate =
      if cfg.gated_ffn then
        Some
          (Fc.create ~rng ~dtype ~block ~spec ~in_features:cfg.hidden
             ~out_features:cfg.intermediate ())
      else None
    in
    let ffn_down =
      Fc.create ~rng ~dtype ~block ~spec ~in_features:cfg.intermediate
        ~out_features:cfg.hidden ()
    in
    let ln1_gamma, ln1_beta = ln_params rng cfg.hidden in
    let ln2_gamma, ln2_beta = ln_params rng cfg.hidden in
    { attention; ffn_up; ffn_gate; ffn_down; ln1_gamma; ln1_beta; ln2_gamma;
      ln2_beta }
  in
  { cfg; decoder = Array.init cfg.layers (fun _ -> mk_layer ()) }

let config t = t.cfg

(* Per-layer K/V store over capacity-backed [cap x hidden] buffers: rows
   [0, used) are valid, appends write in place, capacity doubles when
   exhausted. This keeps the decode hot loop free of the O(cache_len)
   reallocate-and-copy per layer per step that a grow-by-rebuild cache
   pays, and it makes caches recyclable: [reset_cache] rewinds [used]
   without touching the allocator, so a serving layer can hand the same
   buffers to session after session (lib/serve's KV pool). *)
type kv_entry = {
  mutable k : Tensor.t;
  mutable v : Tensor.t;
  mutable used : int;
  mutable cap : int;
}

(* Paged storage: a per-request block table over a shared arena
   (lib/kv), plus gather scratch that the attention kernels read from.
   The scratch grows geometrically and survives [reset_cache], so pooled
   paged caches stop allocating at steady state just like contiguous
   ones. One scratch pair serves all layers — layers run sequentially
   and each gathers before its attention. *)
type paged_store = {
  seq : Kv.Seq.t;
  mutable gk : Tensor.t;
  mutable gv : Tensor.t;
  mutable gcap : int;
}

(* Storage policy: [Contig] = one private capacity-doubling buffer pair
   per layer; [Paged] = fixed-size token blocks from a shared refcounted
   arena (block table per request, copy-on-write on shared tails). Both
   feed the same dense attention kernels — paged gathers valid rows into
   contiguous scratch first — so the two policies are bit-identical by
   construction (the correctness gate the kv tests pin down). *)
type kv_store = Contig of kv_entry array | Paged of paged_store

type kv_cache = { store : kv_store; mutable len : int; hidden : int }

let new_cache ?(cap = 16) t =
  let cap = max 1 cap in
  { store =
      Contig
        (Array.init t.cfg.layers (fun _ ->
             { k = Tensor.create Datatype.F32 [| cap; t.cfg.hidden |];
               v = Tensor.create Datatype.F32 [| cap; t.cfg.hidden |];
               used = 0; cap }));
    len = 0;
    hidden = t.cfg.hidden }

let new_paged_cache t mgr =
  if
    Kv.Block_manager.layers mgr <> t.cfg.layers
    || Kv.Block_manager.hidden mgr <> t.cfg.hidden
  then invalid_arg "Llm.new_paged_cache: arena shape does not match model";
  let gcap = max 1 (Kv.Block_manager.block_size mgr) in
  { store =
      Paged
        { seq = Kv.Seq.create mgr;
          gk = Tensor.create Datatype.F32 [| gcap; t.cfg.hidden |];
          gv = Tensor.create Datatype.F32 [| gcap; t.cfg.hidden |];
          gcap };
    len = 0;
    hidden = t.cfg.hidden }

let cache_len c = c.len

let cache_seq c =
  match c.store with Contig _ -> None | Paged p -> Some p.seq

let cache_capacity c =
  match c.store with
  | Contig entries -> if Array.length entries = 0 then 0 else entries.(0).cap
  | Paged p -> Kv.Seq.capacity p.seq

let reset_cache c =
  (match c.store with
  | Contig entries -> Array.iter (fun e -> e.used <- 0) entries
  | Paged p -> Kv.Seq.release_all p.seq);
  c.len <- 0

(* rewind the cache to its state at [len] valid rows, discarding any rows
   a partially-completed (failed) prefill/decode step appended. Contig
   buffers keep their capacity; a paged table frees exactly the tail
   blocks past row [len-1]. Either way a retried step re-appends into
   writable storage and recovery is bit-identical to a run that never
   failed. *)
let truncate_cache c len =
  assert (len >= 0);
  (match c.store with
  | Contig entries -> Array.iter (fun e -> e.used <- min e.used len) entries
  | Paged p -> if len < Kv.Seq.capacity p.seq then Kv.Seq.truncate p.seq ~len);
  c.len <- min c.len len

(* seed an empty paged cache with shared prefix blocks covering [len]
   prompt tokens (a prefix-trie hit); the suffix is then computed with
   [extend]. [len] may land mid-block — the first append COWs the shared
   tail. *)
let attach_prefix c ~blocks ~len =
  match c.store with
  | Contig _ -> invalid_arg "Llm.attach_prefix: contiguous cache"
  | Paged p ->
    assert (c.len = 0 && len >= 0);
    Kv.Seq.attach p.seq ~blocks;
    c.len <- len

(* copy the first [rows] rows of [src] into [dst] starting at [dst_row];
   both are contiguous [_ x hidden] F32 buffers *)
let copy_rows ~hidden ~rows (src : Tensor.t) (dst : Tensor.t) ~dst_row =
  Bigarray.Array1.blit
    (Bigarray.Array1.sub src.Tensor.data 0 (rows * hidden))
    (Bigarray.Array1.sub dst.Tensor.data (dst_row * hidden) (rows * hidden))

let append_rows cache (e : kv_entry) ~k_new ~v_new =
  let hidden = cache.hidden in
  let n = (Tensor.dims k_new).(0) in
  if e.used + n > e.cap then begin
    let cap = max (e.used + n) (2 * e.cap) in
    let grow old =
      let t = Tensor.create Datatype.F32 [| cap; hidden |] in
      if e.used > 0 then copy_rows ~hidden ~rows:e.used old t ~dst_row:0;
      t
    in
    e.k <- grow e.k;
    e.v <- grow e.v;
    e.cap <- cap
  end;
  copy_rows ~hidden ~rows:n k_new e.k ~dst_row:e.used;
  copy_rows ~hidden ~rows:n v_new e.v ~dst_row:e.used;
  e.used <- e.used + n

(* ---- live-migration checkpoint/restore over the dense export ----

   [export_cache] snapshots the first [len] valid rows of every layer
   into an arena-independent dense export (a pure read — the cache stays
   the live copy); [import_cache] materializes such a snapshot into an
   EMPTY cache on any replica, either storage policy. Because both
   policies feed attention dense rows in token order, a resumed decode
   over an imported cache is bit-identical to the source continuing. *)
let export_cache c =
  match c.store with
  | Paged p -> Kv.Seq.export p.seq ~rows:c.len
  | Contig entries ->
    let layers = Array.length entries in
    let dense () =
      Array.init layers (fun _ ->
          Tensor.create Datatype.F32 [| max c.len 1; c.hidden |])
    in
    let xk = dense () and xv = dense () in
    Array.iteri
      (fun l e ->
        copy_rows ~hidden:c.hidden ~rows:c.len e.k xk.(l) ~dst_row:0;
        copy_rows ~hidden:c.hidden ~rows:c.len e.v xv.(l) ~dst_row:0)
      entries;
    { Kv.Block_manager.xrows = c.len; xlayers = layers; xhidden = c.hidden;
      xk; xv }

(* Restore a snapshot into an empty cache. Paged: [attach] re-shares the
   destination trie's blocks for the first [alen] (block-aligned) rows —
   bit-identical to the exported bytes since both replicas run the same
   deterministic engine over the same prefix — then the remainder is
   imported as private blocks; the freshly acquired blocks are adopted
   without an extra retain (ownership transfer). This is the commit
   point of a migration: on a [`Denied] arena the attached blocks are
   released and [Kv.Seq.Out_of_blocks] is raised with the destination
   left untouched, so the caller's export snapshot remains the one live
   copy. Contig: the dense rows are appended per layer. *)
let import_cache c ?attach:att (e : Kv.Block_manager.export) =
  assert (c.len = 0);
  if e.Kv.Block_manager.xhidden <> c.hidden then
    invalid_arg "Llm.import_cache: hidden mismatch";
  (match c.store with
  | Contig entries ->
    if e.Kv.Block_manager.xlayers <> Array.length entries then
      invalid_arg "Llm.import_cache: layer mismatch";
    if att <> None then invalid_arg "Llm.import_cache: attach on contiguous";
    if e.Kv.Block_manager.xrows > 0 then
      Array.iteri
        (fun l entry ->
          append_rows c entry
            ~k_new:(Tensor.sub_rows e.Kv.Block_manager.xk.(l)
                      e.Kv.Block_manager.xrows)
            ~v_new:(Tensor.sub_rows e.Kv.Block_manager.xv.(l)
                      e.Kv.Block_manager.xrows))
        entries
  | Paged p ->
    let from =
      match att with
      | None -> 0
      | Some (blocks, alen) ->
        assert (alen <= e.Kv.Block_manager.xrows);
        Kv.Seq.attach p.seq ~blocks;
        alen
    in
    (match Kv.Block_manager.import (Kv.Seq.manager p.seq) e ~from with
    | `Blocks fresh -> Kv.Seq.adopt p.seq ~blocks:fresh
    | `Denied ->
      Kv.Seq.release_all p.seq;
      raise Kv.Seq.Out_of_blocks
    | exception exn ->
      Kv.Seq.release_all p.seq;
      raise exn));
  c.len <- e.Kv.Block_manager.xrows

(* storage-agnostic append: write this layer's fresh K/V rows at token
   positions [cache.len, cache.len + n). Layer 0 reserves the block-table
   capacity for the whole forward pass (allocation is per token position,
   shared by all layers); later layers write into the same slots. *)
let append_layer cache ~layer ~k_new ~v_new =
  match cache.store with
  | Contig entries -> append_rows cache entries.(layer) ~k_new ~v_new
  | Paged p ->
    let n = (Tensor.dims k_new).(0) in
    if layer = 0 then Kv.Seq.ensure p.seq ~len:cache.len ~extra:n;
    Kv.Seq.append p.seq ~layer ~at:cache.len ~rows:n ~k_src:k_new ~v_src:v_new

(* storage-agnostic view of this layer's first [rows] K/V rows as
   contiguous [rows x hidden] tensors. Contig returns shared-storage
   views; paged gathers the block rows into the cache's scratch (grown
   geometrically, reused across layers and steps) — after which the
   dense attention path is byte-for-byte the same computation, which is
   what makes paged decode bit-identical to contiguous decode. *)
let layer_kv cache ~layer ~rows =
  match cache.store with
  | Contig entries ->
    let e = entries.(layer) in
    (Tensor.sub_rows e.k rows, Tensor.sub_rows e.v rows)
  | Paged p ->
    if p.gcap < rows then begin
      let cap = max rows (2 * p.gcap) in
      p.gk <- Tensor.create Datatype.F32 [| cap; cache.hidden |];
      p.gv <- Tensor.create Datatype.F32 [| cap; cache.hidden |];
      p.gcap <- cap
    end;
    Kv.Seq.gather p.seq ~layer ~rows ~k_dst:p.gk ~v_dst:p.gv;
    (Tensor.sub_rows p.gk rows, Tensor.sub_rows p.gv rows)

let layernorm gamma beta x =
  let y = Tensor.create Datatype.F32 (Tensor.dims x) in
  Blocks.layernorm_rows_nostats ~eps:1e-5 ~inp:(Tensor.view2d x)
    ~gamma:(Tensor.view2d gamma) ~beta:(Tensor.view2d beta)
    ~out:(Tensor.view2d y);
  y

let add_inplace a b =
  Tpp_binary.exec Tpp_binary.Add ~bcast:Tpp_binary.Full ~a:(Tensor.view2d a)
    ~b:(Tensor.view2d b) ~out:(Tensor.view2d a)

(* ---------- the decoder layer, run over a tensor-parallel plan ----------

   A plan runs every decoder layer across [shards] team workers. Every
   projection is column-split (split along its OUTPUT features): shard s
   owns a contiguous, block-aligned slice of the output dimension and
   computes it with the full input. [slices.(s).(i)] is shard s's slice of
   layer i — a [layer] record whose projections keep only the owned
   output rows, so an attention slice owns whole heads. The "all-reduce"
   of Megatron-style row splits never happens — each float of every
   intermediate tensor is produced by exactly one shard with the same
   k-reduction order as the full GEMM, and shards only concatenate
   (disjoint column writes), so every plan computes bit-identical outputs.
   The price is that every shard reads the full input of each projection;
   for the bandwidth-bound decode step the weights dominate traffic, and
   those really are split 1/shards per shard.

   The 1-shard plan's only slice of each layer is the layer itself: it
   shares the model's weights, its regions run inline and its one slice
   output is the whole output — unsharded execution is that plan. *)
type tp_plan = { tpl : t; shards : int; slices : layer array array }

let unsharded t = { tpl = t; shards = 1; slices = [| t.decoder |] }

(* write [src : n x w] into columns [col0, col0+w) of [dst : n x W] —
   the concat step; shards write disjoint slices, so no synchronization
   beyond the enclosing region's join/barrier is needed. *)
let scatter_cols ~dst ~col0 src =
  let d = Tensor.dims src in
  let n = d.(0) and w = d.(1) in
  let wd = (Tensor.dims dst).(1) in
  for r = 0 to n - 1 do
    for c = 0 to w - 1 do
      Tensor.set_flat dst ((r * wd) + col0 + c)
        (Tensor.get_flat src ((r * w) + c))
    done
  done

(* join the shards' [n x w] column slices, [parts.(s)] owning columns
   [s*w, (s+1)*w); a single slice already is the whole output *)
let concat_cols parts =
  if Array.length parts = 1 then parts.(0)
  else begin
    let d = Tensor.dims parts.(0) in
    let w = d.(1) in
    let out = Tensor.create Datatype.F32 [| d.(0); Array.length parts * w |] in
    Array.iteri (fun s p -> scatter_cols ~dst:out ~col0:(s * w) p) parts;
    out
  end

(* the first FFN projection of [x] — up, or silu(gate) * up for SwiGLU *)
let ffn_in ?nthreads (l : layer) x =
  let up = Fc.forward ?nthreads l.ffn_up x in
  (match l.ffn_gate with
  | Some gate_fc ->
    let gate = Fc.forward ?nthreads gate_fc x in
    let s = Tensor.create Datatype.F32 (Tensor.dims gate) in
    Tpp_unary.exec Tpp_unary.Sigmoid ~inp:(Tensor.view2d gate)
      ~out:(Tensor.view2d s);
    Tpp_binary.exec Tpp_binary.Mul ~bcast:Tpp_binary.Full
      ~a:(Tensor.view2d gate) ~b:(Tensor.view2d s) ~out:(Tensor.view2d gate);
    Tpp_binary.exec Tpp_binary.Mul ~bcast:Tpp_binary.Full
      ~a:(Tensor.view2d up) ~b:(Tensor.view2d gate) ~out:(Tensor.view2d up)
  | None -> ());
  up

(* Pre-norm decoder block i with a cache: x += Attn(LN1(x)); x +=
   FFN(LN2(x)), as three shard regions:
   A) q/k/v column slices; (join) cache append + gather by the caller;
   B) owned heads' attention into a shared ctx, barrier, wo column slice
      over the full ctx;
   C) up/gate column slices (+SwiGLU on the slice), barrier, down column
      slice over the full intermediate.
   LN, residuals and the cache run on the caller between regions. With
   more than one shard the inner kernels run single-threaded — the
   parallelism lives at the shard level, and nesting teams would fall
   back to spawn-per-call; the 1-shard plan passes [nthreads] through. *)
let decoder_block ?nthreads plan cache i x =
  let shards = plan.shards in
  let nthreads = if shards > 1 then Some 1 else nthreads in
  let layer = plan.tpl.decoder.(i) in
  let n = (Tensor.dims x).(0) in
  let slice (ctx : Team.ctx) = plan.slices.(ctx.Team.tid).(i) in
  (* one output slot per shard; [x] only holds the place until the
     region stores the shard's slice *)
  let slots () = Array.make shards x in
  let normed = layernorm layer.ln1_gamma layer.ln1_beta x in
  let qs = slots () and ks = slots () and vs = slots () in
  Team.run ~nthreads:shards (fun ctx ->
      let tid = ctx.Team.tid in
      let q, k, v = Attention.project ?nthreads (slice ctx).attention normed in
      qs.(tid) <- q;
      ks.(tid) <- k;
      vs.(tid) <- v);
  let q = concat_cols qs in
  (* cache append + gather run on the caller between regions — the block
     table (or contig buffer) is storage the shards only ever read *)
  append_layer cache ~layer:i ~k_new:(concat_cols ks) ~v_new:(concat_cols vs);
  let k_all, v_all = layer_kv cache ~layer:i ~rows:(cache.len + n) in
  let heads = layer.attention.Attention.heads in
  let head_dim = layer.attention.Attention.head_dim in
  let ctx_t = Tensor.create Datatype.F32 [| n; plan.tpl.cfg.hidden |] in
  let atts = slots () in
  Team.run ~nthreads:shards (fun ctx ->
      let tid = ctx.Team.tid in
      let a = (slice ctx).attention in
      let per = a.Attention.wq.Fc.out_features / head_dim in
      Attention.attend_range ~causal:true ~heads ~h0:(tid * per)
        ~h1:((tid + 1) * per) ~out:ctx_t q k_all v_all;
      ctx.Team.barrier ();
      atts.(tid) <- Fc.forward ?nthreads a.Attention.wo ctx_t);
  let att = concat_cols atts in
  add_inplace att x;
  (* att now holds x + attention *)
  let normed2 = layernorm layer.ln2_gamma layer.ln2_beta att in
  let up_all =
    if shards = 1 then None
    else
      Some (Tensor.create Datatype.F32 [| n; plan.tpl.cfg.intermediate |])
  in
  let downs = slots () in
  Team.run ~nthreads:shards (fun ctx ->
      let tid = ctx.Team.tid in
      let s = slice ctx in
      let u = ffn_in ?nthreads s normed2 in
      let up =
        match up_all with
        | None -> u
        | Some up ->
          scatter_cols ~dst:up ~col0:(tid * (Tensor.dims u).(1)) u;
          ctx.Team.barrier ();
          up
      in
      downs.(tid) <- Fc.forward ?nthreads s.ffn_down up);
  let down = concat_cols downs in
  add_inplace down att;
  down

let run_tokens ?nthreads plan cache x =
  let out = ref x in
  for i = 0 to Array.length plan.tpl.decoder - 1 do
    out := decoder_block ?nthreads plan cache i !out
  done;
  cache.len <- cache.len + (Tensor.dims x).(0);
  !out

let last_row x =
  let d = Tensor.dims x in
  Tensor.init Datatype.F32 [| 1; d.(1) |] (fun i ->
      Tensor.get x [| d.(0) - 1; i.(1) |])

(* batched extension over an already-filled cache: append [n] token rows
   and return all [n] output rows. Per-row outputs are bit-identical to
   feeding the same tokens one decode step at a time (the k-reduction
   order of every kernel is independent of the batch row count) — the
   property that makes prefix-hit suffix prefills and speculative
   verification exact, not approximate. *)
let extend ?nthreads t cache x = run_tokens ?nthreads (unsharded t) cache x

let prefill ?nthreads t cache x =
  assert (cache.len = 0);
  last_row (extend ?nthreads t cache x)

let decode_step ?nthreads t cache x =
  assert ((Tensor.dims x).(0) = 1);
  extend ?nthreads t cache x

let forward_full ?nthreads t x = extend ?nthreads t (new_cache t) x

(* a draft model sharing the target's first [layers] decoder layers (and
   weights) — the proposer half of speculative decoding. No copy: slices
   reference the same layer records. *)
let draft t ~layers =
  let layers = max 1 (min layers t.cfg.layers) in
  { cfg = { t.cfg with layers; name = t.cfg.name ^ "-draft" };
    decoder = Array.sub t.decoder 0 layers }

(* rows [r0, r1) of an [out x in] projection: same block/spec/act/dtype,
   so the sliced GEMM tiles and reduces exactly like the full one. *)
let slice_fc (fc : Fc.t) r0 r1 =
  let rows = r1 - r0 in
  let weights =
    Tensor.init fc.Fc.dtype [| rows; fc.Fc.in_features |] (fun i ->
        Tensor.get fc.Fc.weights [| r0 + i.(0); i.(1) |])
  in
  let bias =
    Tensor.init fc.Fc.dtype [| rows |] (fun i ->
        Tensor.get fc.Fc.bias [| r0 + i.(0) |])
  in
  { fc with Fc.out_features = rows; weights; bias }

let tp_plan t ~shards =
  let cfg = t.cfg in
  if shards < 1 then Error "tp_plan: shards must be >= 1"
  else if shards = 1 then Ok (unsharded t)
  else if cfg.heads mod shards <> 0 then
    Error
      (Printf.sprintf "tp_plan: heads (%d) not divisible by shards (%d)"
         cfg.heads shards)
  else if cfg.intermediate mod shards <> 0 then
    Error
      (Printf.sprintf
         "tp_plan: intermediate (%d) not divisible by shards (%d)"
         cfg.intermediate shards)
  else begin
    let head_dim = cfg.hidden / cfg.heads in
    let hchunk = cfg.heads / shards * head_dim in
    let ichunk = cfg.intermediate / shards in
    let l0 = t.decoder.(0) in
    let ablock = l0.attention.Attention.wq.Fc.block in
    let ublock = l0.ffn_up.Fc.block in
    let oblock = l0.ffn_down.Fc.block in
    if hchunk mod ablock <> 0 || hchunk mod oblock <> 0 then
      Error
        (Printf.sprintf
           "tp_plan: hidden slice (%d) not a multiple of the GEMM block \
            (%d/%d)"
           hchunk ablock oblock)
    else if ichunk mod ublock <> 0 then
      Error
        (Printf.sprintf
           "tp_plan: intermediate slice (%d) not a multiple of the GEMM \
            block (%d)"
           ichunk ublock)
    else begin
      let slice_layer s (layer : layer) =
        let h0 = s * hchunk and h1 = (s + 1) * hchunk in
        let i0 = s * ichunk and i1 = (s + 1) * ichunk in
        let a = layer.attention in
        { layer with
          attention =
            { a with
              Attention.wq = slice_fc a.Attention.wq h0 h1;
              wk = slice_fc a.Attention.wk h0 h1;
              wv = slice_fc a.Attention.wv h0 h1;
              wo = slice_fc a.Attention.wo h0 h1 };
          ffn_up = slice_fc layer.ffn_up i0 i1;
          ffn_gate = Option.map (fun g -> slice_fc g i0 i1) layer.ffn_gate;
          ffn_down = slice_fc layer.ffn_down h0 h1 }
      in
      Ok
        { tpl = t;
          shards;
          slices =
            Array.init shards (fun s -> Array.map (slice_layer s) t.decoder)
        }
    end
  end

let tp_shards p = p.shards

(* sharded batched extension — same contract (and bit-identity) as
   {!extend}, with the FLOPs split across the shard team *)
let extend_tp plan cache x = run_tokens plan cache x

let embed t ids =
  (* deterministic per-token-id synthetic embedding *)
  Tensor.init Datatype.F32
    [| Array.length ids; t.cfg.hidden |]
    (fun i ->
      let r = Prng.create ((ids.(i.(0)) * 7919) + i.(1)) in
      Prng.uniform r ~scale:0.5)

let layer_params (cfg : config) =
  (* 4 attention mats + 2 (or 3 gated) FFN mats *)
  let ffn_mats = if cfg.gated_ffn then 3.0 else 2.0 in
  (4.0 *. float_of_int cfg.hidden *. float_of_int cfg.hidden)
  +. (ffn_mats *. float_of_int cfg.hidden *. float_of_int cfg.intermediate)

let prefill_flops (cfg : config) ~n_in =
  let n = float_of_int n_in in
  let h = float_of_int cfg.hidden in
  float_of_int cfg.layers
  *. ((2.0 *. n *. layer_params cfg) (* dense contractions *)
     +. (2.0 *. 2.0 *. n *. n *. h) (* attention scores + context *))

let decode_flops (cfg : config) ~past =
  let h = float_of_int cfg.hidden in
  float_of_int cfg.layers
  *. ((2.0 *. layer_params cfg)
     +. (2.0 *. 2.0 *. float_of_int (past + 1) *. h))

let param_bytes (cfg : config) dtype =
  (float_of_int cfg.layers *. layer_params cfg
  +. (float_of_int cfg.vocab *. float_of_int cfg.hidden))
  *. float_of_int (Datatype.bytes dtype)
