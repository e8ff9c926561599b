(** Paged KV arena: per-layer K/V tensors carved into fixed-size token
    blocks with a free-list allocator and per-block refcounts, so several
    sequences (and the prefix trie) can share one physical copy of a
    block. Block [b] of layer [l] occupies rows
    [b*block_size, (b+1)*block_size) of [k_arena l] / [v_arena l]; one
    refcount per physical block covers all layers.

    The arena is committed lazily: [create] does not zero-fill it, and a
    block is zeroed when it leaves the free list ({!acquire}, {!cow},
    {!import}), so a handed-out block reads zeros until written and the
    pages of blocks never handed out are never touched.

    Telemetry: [kv.pages.{allocated,freed,cow_copies}] counters plus the
    [kv.pages.{in_use,total}] occupancy gauges. Fault sites
    [kv.page.acquire] (arena pressure) and [kv.cow.copy] (failing COW)
    let the chaos harnesses drive the shed/retry paths. *)

val pages_allocated_name : string
val pages_freed_name : string
val cow_copies_name : string
val prefix_hits_name : string
val pages_in_use_name : string
val pages_total_name : string

type t

val create :
  ?block_size:int -> num_blocks:int -> layers:int -> hidden:int -> unit -> t

val block_size : t -> int
val num_blocks : t -> int
val layers : t -> int
val hidden : t -> int

(** Blocks currently on the free list. *)
val free_blocks : t -> int

(** Allocated (referenced) blocks; [free_blocks + live_blocks = num_blocks]
    always — the conservation identity the chaos harnesses check. *)
val live_blocks : t -> int

val k_arena : t -> int -> Tensor.t
val v_arena : t -> int -> Tensor.t

(** Re-publish the occupancy gauges (callers holding the arena at a
    quiescent point, e.g. Expose snapshots). *)
val publish : t -> unit

(** Pop a free block with refcount 1 and all rows zeroed, or [`Denied] when the arena is
    exhausted (or the [kv.page.acquire] fault fires [`Deny]; an [Exn]
    rule raises instead — the retryable mid-flight path). *)
val acquire : t -> [ `Block of int | `Denied ]

(** Add a reference to a live block (sharing). Raises [Invalid_argument]
    on a free block. *)
val retain : t -> int -> unit

(** Drop a reference; the block returns to the free list at zero. Raises
    [Invalid_argument] on refcount underflow — a refcount can never go
    negative. *)
val release : t -> int -> unit

val refcount : t -> int -> int

(** [cow t b ~rows] — copy-on-write: allocate a fresh (zeroed) block,
    copy the first [rows] valid rows of [b] in every layer, drop the caller's
    reference on [b] and return the private copy. [`Denied] when the
    arena is exhausted or the [kv.cow.copy] fault fires [`Deny]; the
    shared source is left untouched either way. *)
val cow : t -> int -> rows:int -> [ `Block of int | `Denied ]

(** Arena-independent checkpoint of a sequence's valid K/V rows: per
    layer, token rows [0, xrows) packed densely. Carries no block ids,
    so it can be materialized into a different replica's arena with the
    exact row layout preserved — the property that keeps [Seq.gather]-fed
    attention bit-identical across a live migration. *)
type export = {
  xrows : int;
  xlayers : int;
  xhidden : int;
  xk : Tensor.t array;  (** layer -> [xrows x hidden], dense *)
  xv : Tensor.t array;
}

(** [import t e ~from] materializes export rows [from, xrows) into this
    arena: acquires the covering blocks (each refcount 1, governed by the
    [kv.page.acquire] fault site) and blits every layer's rows into their
    slots. All-or-nothing: on [`Denied] or an exception mid-import the
    partially acquired blocks are released first, leaving the destination
    arena untouched — the source snapshot stays the one live copy.
    [from] must be block-aligned (prefix re-attach covers only full trie
    chunks). Raises [Invalid_argument] on a shape/alignment mismatch. *)
val import : t -> export -> from:int -> [ `Blocks of int array | `Denied ]

(** [blit_rows ~hidden ~rows src ~src_row dst ~dst_row] — row copy
    between contiguous [_ x hidden] F32 buffers (exposed for {!Seq}). *)
val blit_rows :
  hidden:int ->
  rows:int ->
  Tensor.t ->
  src_row:int ->
  Tensor.t ->
  dst_row:int ->
  unit
