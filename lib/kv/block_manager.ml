(* Paged KV arena: per-layer K/V tensors carved into fixed-size token
   blocks, a free-list allocator, and per-block refcounts so several
   sequences (and the prefix trie) can share one physical copy of a
   block. A shared block is never written in place — writers that need
   to extend a partially-filled shared block go through [cow], which
   copies the valid rows into a fresh block first (copy-on-write).

   Layout: block [b] of layer [l] is rows [b*block_size, (b+1)*block_size)
   of [k_arena l] / [v_arena l]. One refcount per *physical* block covers
   all layers — a token slot exists in every layer at the same offset, so
   allocation is per token position, not per (layer, position).

   Occupancy is published under the [kv.pages.*] telemetry names; the
   [kv.page.acquire] fault site models arena exhaustion ([`Denied]) and
   [kv.cow.copy] models a failing copy, so the chaos harnesses can drive
   the shed/retry paths deterministically. *)

let pages_allocated_name = "kv.pages.allocated"
let pages_freed_name = "kv.pages.freed"
let cow_copies_name = "kv.pages.cow_copies"
let prefix_hits_name = "kv.pages.prefix_hits"

(* gauges: pool occupancy (live blocks) and arena size *)
let pages_in_use_name = "kv.pages.in_use"
let pages_total_name = "kv.pages.total"

(* [`Deny] = arena pressure at allocation; Exn = transient allocator
   failure. Fired per block acquire, so periodic plans exercise both the
   admission (`Denied -> shed) and mid-flight (raise -> retry) paths. *)
let acquire_site = Fault.site "kv.page.acquire"

(* governs the copy half of copy-on-write: [`Deny] refuses the fresh
   block, Exn aborts the copy — either way the shared source block is
   left untouched and correctly refcounted *)
let cow_site = Fault.site "kv.cow.copy"

type t = {
  block_size : int;
  num_blocks : int;
  layers : int;
  hidden : int;
  k : Tensor.t array;  (* layer -> [num_blocks*block_size x hidden] *)
  v : Tensor.t array;
  refc : int array;
  mutable free : int list;
  mutable free_n : int;
  lock : Mutex.t;
  alloc_c : Telemetry.Counter.t;
  freed_c : Telemetry.Counter.t;
  cow_c : Telemetry.Counter.t;
  in_use_g : Telemetry.Gauge.t;
  total_g : Telemetry.Gauge.t;
}

let publish t =
  Telemetry.Gauge.set t.in_use_g (t.num_blocks - t.free_n);
  Telemetry.Gauge.set t.total_g t.num_blocks

let create ?(block_size = 16) ~num_blocks ~layers ~hidden () =
  assert (block_size > 0 && num_blocks > 0 && layers > 0 && hidden > 0);
  let rows = num_blocks * block_size in
  (* not zero-filled: a block is zeroed when it leaves the free list, so
     pages of blocks never handed out are never touched *)
  let arena () =
    Array.init layers (fun _ ->
        Tensor.create_uninit Datatype.F32 [| rows; hidden |])
  in
  let t =
    { block_size; num_blocks; layers; hidden; k = arena (); v = arena ();
      refc = Array.make num_blocks 0;
      free = List.init num_blocks Fun.id;
      free_n = num_blocks;
      lock = Mutex.create ();
      alloc_c = Telemetry.Counter.find_or_create pages_allocated_name;
      freed_c = Telemetry.Counter.find_or_create pages_freed_name;
      cow_c = Telemetry.Counter.find_or_create cow_copies_name;
      in_use_g = Telemetry.Gauge.find_or_create pages_in_use_name;
      total_g = Telemetry.Gauge.find_or_create pages_total_name }
  in
  publish t;
  t

let block_size t = t.block_size
let num_blocks t = t.num_blocks
let layers t = t.layers
let hidden t = t.hidden
let free_blocks t = t.free_n
let live_blocks t = t.num_blocks - t.free_n
let k_arena t l = t.k.(l)
let v_arena t l = t.v.(l)

let refcount t b =
  Mutex.lock t.lock;
  let r = t.refc.(b) in
  Mutex.unlock t.lock;
  r

(* zero block [b]'s rows in every layer *)
let zero_block t b =
  let n = t.block_size * t.hidden in
  let clear (a : Tensor.t) =
    Bigarray.Array1.fill (Bigarray.Array1.sub a.Tensor.data (b * n) n) 0.0
  in
  Array.iter clear t.k;
  Array.iter clear t.v

(* allocation without the fault site — shared by [acquire] and [cow]
   (each path is governed by its own site). Caller holds no lock. The
   block is zeroed once it is off the free list (so outside the lock):
   every handed-out block reads zeros until written, whether fresh or
   reused. *)
let alloc t =
  Mutex.lock t.lock;
  match t.free with
  | [] ->
    Mutex.unlock t.lock;
    `Denied
  | b :: rest ->
    t.free <- rest;
    t.free_n <- t.free_n - 1;
    t.refc.(b) <- 1;
    Telemetry.Counter.incr t.alloc_c;
    publish t;
    Mutex.unlock t.lock;
    zero_block t b;
    `Block b

let acquire t =
  match Fault.fire acquire_site with
  | `Deny -> `Denied
  | `None | `Nan -> alloc t

let retain t b =
  Mutex.lock t.lock;
  if t.refc.(b) <= 0 then begin
    Mutex.unlock t.lock;
    invalid_arg "Block_manager.retain: block is free"
  end;
  t.refc.(b) <- t.refc.(b) + 1;
  Mutex.unlock t.lock

let release t b =
  Mutex.lock t.lock;
  if t.refc.(b) <= 0 then begin
    Mutex.unlock t.lock;
    invalid_arg "Block_manager.release: refcount underflow"
  end;
  t.refc.(b) <- t.refc.(b) - 1;
  if t.refc.(b) = 0 then begin
    t.free <- b :: t.free;
    t.free_n <- t.free_n + 1;
    Telemetry.Counter.incr t.freed_c
  end;
  publish t;
  Mutex.unlock t.lock

(* copy [rows] rows between contiguous [_ x hidden] F32 buffers *)
let blit_rows ~hidden ~rows (src : Tensor.t) ~src_row (dst : Tensor.t)
    ~dst_row =
  if rows > 0 then
    Bigarray.Array1.blit
      (Bigarray.Array1.sub src.Tensor.data (src_row * hidden) (rows * hidden))
      (Bigarray.Array1.sub dst.Tensor.data (dst_row * hidden) (rows * hidden))

(* ---- live-migration snapshot: dense export / arena import ----

   An [export] is an arena-independent checkpoint of a sequence's valid
   K/V rows: per layer, token rows [0, xrows) packed contiguously. It
   carries no block ids, so it can be materialized into a *different*
   replica's arena; because import writes row j of the export at token
   position j, a [Seq.gather] over the imported table reproduces exactly
   the dense K/V the source replica's attention saw — the row-layout
   preservation that keeps gather-fed attention bit-identical across a
   migration. *)
type export = {
  xrows : int;
  xlayers : int;
  xhidden : int;
  xk : Tensor.t array;  (* layer -> [xrows x hidden], dense *)
  xv : Tensor.t array;
}

(* Materialize export rows [from, xrows) into this arena: acquire the
   covering blocks (refcount 1 each, fault-governed like any acquire)
   and blit every layer's rows into their slots. All-or-nothing: a
   denial or an exception mid-import releases the partially acquired
   blocks before reporting, so a failed import leaves the destination
   arena untouched — the source snapshot stays the one live copy.
   [from] must be block-aligned (the caller's prefix re-attach covers
   only full trie chunks). *)
let import t (e : export) ~from =
  if e.xlayers <> t.layers || e.xhidden <> t.hidden then
    invalid_arg "Block_manager.import: export shape does not match arena";
  if from < 0 || from > e.xrows || from mod t.block_size <> 0 then
    invalid_arg "Block_manager.import: bad block-aligned offset";
  let rows = e.xrows - from in
  let nblocks = (rows + t.block_size - 1) / t.block_size in
  let acquired = ref [] in
  let cleanup () = List.iter (release t) !acquired in
  let rec grab n =
    if n = 0 then `Ok
    else
      match acquire t with
      | `Denied -> `Denied
      | `Block b ->
        acquired := b :: !acquired;
        grab (n - 1)
  in
  match grab nblocks with
  | `Denied ->
    cleanup ();
    `Denied
  | exception e ->
    cleanup ();
    raise e
  | `Ok ->
    let blocks = Array.of_list (List.rev !acquired) in
    Array.iteri
      (fun j b ->
        let n = min t.block_size (rows - (j * t.block_size)) in
        let src_row = from + (j * t.block_size) in
        for l = 0 to t.layers - 1 do
          blit_rows ~hidden:t.hidden ~rows:n e.xk.(l) ~src_row t.k.(l)
            ~dst_row:(b * t.block_size);
          blit_rows ~hidden:t.hidden ~rows:n e.xv.(l) ~src_row t.v.(l)
            ~dst_row:(b * t.block_size)
        done)
      blocks;
    `Blocks blocks

(* Copy-on-write: allocate a fresh block, copy the first [rows] valid
   rows of shared block [b] across every layer, drop this caller's
   reference on [b]. The source keeps its other references — readers of
   the shared copy never observe the write that motivated the COW. *)
let cow t b ~rows =
  assert (rows >= 0 && rows <= t.block_size);
  match Fault.fire cow_site with
  | `Deny -> `Denied
  | `None | `Nan -> (
    match alloc t with
    | `Denied -> `Denied
    | `Block nb ->
      for l = 0 to t.layers - 1 do
        blit_rows ~hidden:t.hidden ~rows t.k.(l)
          ~src_row:(b * t.block_size)
          t.k.(l)
          ~dst_row:(nb * t.block_size);
        blit_rows ~hidden:t.hidden ~rows t.v.(l)
          ~src_row:(b * t.block_size)
          t.v.(l)
          ~dst_row:(nb * t.block_size)
      done;
      Telemetry.Counter.incr t.cow_c;
      release t b;
      `Block nb)
