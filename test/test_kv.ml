(* Tests for lib/kv and its integration: free-list exhaustion denies
   instead of growing, refcounts can never go negative, copy-on-write
   isolates writers from shared blocks, truncation frees exactly the
   tail blocks, a prefix-trie hit produces bit-identical attention
   output to a cold prefill, paged storage is bit-identical to
   contiguous through the whole scheduler, speculative decoding is
   token-identical to greedy, and the chaos harnesses hold the arena
   conservation invariant under paged configs. *)

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let clean () =
  Telemetry.Registry.reset ();
  Telemetry.Registry.disable ()

let make_llm () =
  let rng = Prng.create 7 in
  Llm.create ~rng ~block:8 Llm.tiny

(* tol 0.0 = bit-identical for non-NaN values *)
let bits_equal = Tensor.approx_equal ~tol:0.0

let frozen_now () = 0.0

let mk_mgr ?(block_size = 4) ?(num_blocks = 8) ?(layers = 1) ?(hidden = 4) ()
    =
  Kv.Block_manager.create ~block_size ~num_blocks ~layers ~hidden ()

(* ---- block manager: allocation, refcounts, COW ---- *)

let test_exhaustion_denies () =
  clean ();
  let m = mk_mgr ~num_blocks:3 () in
  let got = ref [] in
  for _ = 1 to 3 do
    match Kv.Block_manager.acquire m with
    | `Block b -> got := b :: !got
    | `Denied -> Alcotest.fail "denied with free blocks available"
  done;
  checki "arena drained" 0 (Kv.Block_manager.free_blocks m);
  (match Kv.Block_manager.acquire m with
  | `Block _ -> Alcotest.fail "acquired from an empty free list"
  | `Denied -> ());
  (* distinct physical blocks *)
  checki "3 distinct blocks" 3
    (List.length (List.sort_uniq compare !got));
  List.iter (Kv.Block_manager.release m) !got;
  checki "all returned" 3 (Kv.Block_manager.free_blocks m)

let test_refcount_never_negative () =
  clean ();
  let m = mk_mgr () in
  let b =
    match Kv.Block_manager.acquire m with
    | `Block b -> b
    | `Denied -> Alcotest.fail "empty arena"
  in
  checki "fresh block refcount" 1 (Kv.Block_manager.refcount m b);
  Kv.Block_manager.retain m b;
  checki "retained" 2 (Kv.Block_manager.refcount m b);
  Kv.Block_manager.release m b;
  Kv.Block_manager.release m b;
  checki "freed at zero" 0 (Kv.Block_manager.refcount m b);
  Alcotest.check_raises "underflow rejected"
    (Invalid_argument "Block_manager.release: refcount underflow") (fun () ->
      Kv.Block_manager.release m b);
  Alcotest.check_raises "retain on free block rejected"
    (Invalid_argument "Block_manager.retain: block is free") (fun () ->
      Kv.Block_manager.retain m b)

let test_cow_isolates_writers () =
  clean ();
  let hidden = 4 in
  let m = mk_mgr ~hidden () in
  let s1 = Kv.Seq.create m in
  (* two committed rows in the first block of s1 *)
  let mk_rows base rows =
    Tensor.init Datatype.F32 [| rows; hidden |] (fun i ->
        base +. float_of_int ((i.(0) * hidden) + i.(1)))
  in
  Kv.Seq.ensure s1 ~len:0 ~extra:2;
  Kv.Seq.append s1 ~layer:0 ~at:0 ~rows:2 ~k_src:(mk_rows 10.0 2)
    ~v_src:(mk_rows 20.0 2);
  let b0 = (Kv.Seq.blocks s1).(0) in
  (* s2 shares that block (a prefix hit), then appends at row 2: the
     mid-block write must copy, not scribble over the shared rows *)
  let s2 = Kv.Seq.create m in
  Kv.Seq.attach s2 ~blocks:[| b0 |];
  checki "shared refcount" 2 (Kv.Block_manager.refcount m b0);
  Kv.Seq.ensure s2 ~len:2 ~extra:1;
  checkb "COW swapped the shared block" true ((Kv.Seq.blocks s2).(0) <> b0);
  checki "source back to one owner" 1 (Kv.Block_manager.refcount m b0);
  Kv.Seq.append s2 ~layer:0 ~at:2 ~rows:1 ~k_src:(mk_rows 90.0 1)
    ~v_src:(mk_rows 95.0 1);
  (* the copy carried the shared rows; the source never saw the write *)
  let k1 = Tensor.create Datatype.F32 [| 4; hidden |] in
  let v1 = Tensor.create Datatype.F32 [| 4; hidden |] in
  Kv.Seq.gather s2 ~layer:0 ~rows:3 ~k_dst:k1 ~v_dst:v1;
  for j = 0 to hidden - 1 do
    Alcotest.(check (float 0.0))
      "copied row 0" (10.0 +. float_of_int j)
      (Tensor.get k1 [| 0; j |]);
    Alcotest.(check (float 0.0))
      "appended row 2" (90.0 +. float_of_int j)
      (Tensor.get k1 [| 2; j |])
  done;
  let k0 = Tensor.create Datatype.F32 [| 2; hidden |] in
  let v0 = Tensor.create Datatype.F32 [| 2; hidden |] in
  Kv.Seq.gather s1 ~layer:0 ~rows:2 ~k_dst:k0 ~v_dst:v0;
  for j = 0 to hidden - 1 do
    Alcotest.(check (float 0.0))
      "source row 1 untouched"
      (10.0 +. float_of_int (hidden + j))
      (Tensor.get k0 [| 1; j |])
  done;
  Kv.Seq.release_all s1;
  Kv.Seq.release_all s2;
  checki "no leak after release" 8 (Kv.Block_manager.free_blocks m)

(* The arena is not zero-filled at create; a block is zeroed when it
   leaves the free list, so a reused block never shows its last owner's
   rows, and a COW copy is its source's valid rows followed by zeros *)
let test_handed_out_blocks_read_zero () =
  clean ();
  let bs = 4 and hidden = 4 and layers = 2 in
  let m = mk_mgr ~block_size:bs ~layers ~hidden () in
  let module B = Kv.Block_manager in
  let acquire () =
    match B.acquire m with `Block b -> b | `Denied -> Alcotest.fail "empty arena"
  in
  (* every layer's K and V arena; block [b] is elements
     [b*span, (b+1)*span) of each *)
  let arenas =
    List.concat_map
      (fun l -> [ B.k_arena m l; B.v_arena m l ])
      (List.init layers Fun.id)
  in
  let span = bs * hidden in
  let fill b =
    List.iteri
      (fun a t ->
        for i = 0 to span - 1 do
          Tensor.set_flat t ((b * span) + i) (float_of_int ((100 * a) + i + 1))
        done)
      arenas
  in
  let rows_zero b ~from =
    List.for_all
      (fun t ->
        List.for_all
          (fun i -> Tensor.get_flat t ((b * span) + i) = 0.0)
          (List.init (span - (from * hidden)) (fun i -> (from * hidden) + i)))
      arenas
  in
  let b = acquire () in
  fill b;
  B.release m b;
  let b' = acquire () in
  checki "the released block is handed out again" b b';
  checkb "re-acquired block reads zero" true (rows_zero b' ~from:0);
  (* a dirty block at the head of the free list becomes the COW target *)
  fill b';
  let dirty = acquire () in
  fill dirty;
  B.release m dirty;
  B.retain m b';
  (match B.cow m b' ~rows:2 with
  | `Denied -> Alcotest.fail "cow denied"
  | `Block nb ->
    checki "cow reuses the dirty block" dirty nb;
    checkb "copied rows equal the source" true
      (List.for_all
         (fun t ->
           List.for_all
             (fun i ->
               Tensor.get_flat t ((nb * span) + i)
               = Tensor.get_flat t ((b' * span) + i))
             (List.init (2 * hidden) Fun.id))
         arenas);
    checkb "rows past the copy read zero" true (rows_zero nb ~from:2);
    B.release m nb);
  B.release m b';
  checki "no leak" 8 (B.free_blocks m)

let test_seq_out_of_blocks () =
  clean ();
  let m = mk_mgr ~num_blocks:2 () in
  let s = Kv.Seq.create m in
  Kv.Seq.ensure s ~len:0 ~extra:8;  (* exactly the whole arena *)
  checkb "mid-flight exhaustion raises" true
    (try
       Kv.Seq.ensure s ~len:8 ~extra:1;
       false
     with Kv.Seq.Out_of_blocks -> true);
  (* the failed ensure must not have leaked a partial extension *)
  checki "table unchanged" 2 (Kv.Seq.block_count s);
  Kv.Seq.release_all s;
  checki "arena whole" 2 (Kv.Block_manager.free_blocks m)

let test_truncate_frees_exact_tail () =
  clean ();
  let m = mk_mgr ~num_blocks:8 () in
  let s = Kv.Seq.create m in
  Kv.Seq.ensure s ~len:0 ~extra:10;  (* 3 blocks of 4 *)
  checki "blocks for 10 rows" 3 (Kv.Seq.block_count s);
  checki "free after grow" 5 (Kv.Block_manager.free_blocks m);
  Kv.Seq.truncate s ~len:5;  (* rows 0..4 still span 2 blocks *)
  checki "tail block freed" 2 (Kv.Seq.block_count s);
  checki "exactly one returned" 6 (Kv.Block_manager.free_blocks m);
  Kv.Seq.truncate s ~len:4;  (* row 3 is the last row of block 0 *)
  checki "second block freed" 1 (Kv.Seq.block_count s);
  Kv.Seq.truncate s ~len:4;  (* idempotent at a block boundary *)
  checki "truncate idempotent" 1 (Kv.Seq.block_count s);
  Kv.Seq.truncate s ~len:0;
  checki "empty table" 0 (Kv.Seq.block_count s);
  checki "everything back" 8 (Kv.Block_manager.free_blocks m)

(* ---- retry rewind landing inside a pinned shared-prefix block ----
   a truncate to a row inside a trie-pinned block must not free or
   scribble the shared block: the re-extension COWs it, the trie keeps
   serving the prefix, refcounts never underflow, and the replayed
   decode is bit-identical to a cold contiguous run *)

let test_truncate_cow_inside_pinned_prefix () =
  clean ();
  Telemetry.Registry.enable ();
  let llm = make_llm () in
  let vocab = (Llm.config llm).Llm.vocab in
  let shared = Array.init 8 (fun i -> (3 + (7 * i)) mod vocab) in
  let prompt =
    Array.append shared (Array.init 2 (fun i -> (29 + (13 * i)) mod vocab))
  in
  let pool =
    Serve.Kv_pool.create
      ~policy:
        (Serve.Kv_pool.Paged
           { block_size = 4; num_blocks = 32; prefix = true })
      llm
  in
  let m =
    match Serve.Kv_pool.manager pool with
    | Some m -> m
    | None -> Alcotest.fail "paged pool has a manager"
  in
  let trie =
    match Serve.Kv_pool.prefix_cache pool with
    | Some p -> p
    | None -> Alcotest.fail "paged pool has a prefix trie"
  in
  (* warm the trie: the 8-token prefix pins two full blocks *)
  (match Serve.Kv_pool.acquire_for pool ~prompt:shared ~total_rows:12 () with
  | `Denied -> Alcotest.fail "cold acquire denied"
  | `Cache (c, _) ->
    ignore (Llm.extend llm c (Llm.embed llm shared));
    Serve.Kv_pool.register pool ~prompt:shared c;
    Serve.Kv_pool.release pool c);
  let pins = Kv.Prefix.pinned trie in
  checkb "trie pinned the prefix" true (pins > 0);
  (* the retry victim shares both pinned blocks *)
  let cache, matched =
    match Serve.Kv_pool.acquire_for pool ~prompt ~total_rows:16 () with
    | `Denied -> Alcotest.fail "prefix-hit acquire denied"
    | `Cache (c, matched) -> (c, matched)
  in
  checki "both pinned blocks shared" 8 matched;
  let suffix = Array.sub prompt matched (Array.length prompt - matched) in
  ignore (Llm.extend llm cache (Llm.embed llm suffix));
  let gen = [| 5; 17; 23 |] in
  Array.iter
    (fun tok -> ignore (Llm.decode_step llm cache (Llm.embed llm [| tok |])))
    gen;
  checki "session decoded to 13 rows" 13 (Llm.cache_len cache);
  (* retry rewind to row 6 — inside pinned block 1 (rows 4..7) *)
  let cows_before = Telemetry.Counter.value Kv.Block_manager.cow_copies_name in
  Llm.truncate_cache cache 6;
  checki "rewound" 6 (Llm.cache_len cache);
  checki "pins survived the truncate" pins (Kv.Prefix.pinned trie);
  (* cold contiguous reference for the replay *)
  let rc = Llm.new_cache llm in
  let all = Llm.extend llm rc (Llm.embed llm prompt) in
  let hidden = (Llm.config llm).Llm.hidden in
  (* re-extend rows 6..9: the row-6 write lands in the shared block, so
     COW must copy it rather than scribble over the trie's rows *)
  let tail = Array.sub prompt 6 (Array.length prompt - 6) in
  let re = Llm.extend llm cache (Llm.embed llm tail) in
  checkb "COW fired on the pinned block" true
    (Telemetry.Counter.value Kv.Block_manager.cow_copies_name > cows_before);
  for r = 0 to Array.length tail - 1 do
    for j = 0 to hidden - 1 do
      Alcotest.(check (float 0.0))
        (Printf.sprintf "replayed row %d col %d" (6 + r) j)
        (Tensor.get all [| 6 + r; j |])
        (Tensor.get re [| r; j |])
    done
  done;
  Array.iteri
    (fun i tok ->
      let e = Llm.embed llm [| tok |] in
      checkb
        (Printf.sprintf "post-rewind decode %d bit-identical" i)
        true
        (bits_equal (Llm.decode_step llm rc e) (Llm.decode_step llm cache e)))
    gen;
  (* the trie still serves the prefix after the rewind *)
  (match Serve.Kv_pool.acquire_for pool ~prompt ~total_rows:16 () with
  | `Denied -> Alcotest.fail "trie hit denied after rewind"
  | `Cache (c, matched2) ->
    checki "trie intact after COW" 8 matched2;
    Serve.Kv_pool.release pool c);
  Serve.Kv_pool.release pool cache;
  checki "arena conserved (free + pins)" 32
    (Kv.Block_manager.free_blocks m + Kv.Prefix.pinned trie)

(* ---- paged storage is bit-identical to contiguous ---- *)

let test_paged_bit_identical_to_contiguous () =
  clean ();
  let llm = make_llm () in
  let cfg = Llm.config llm in
  let m =
    Kv.Block_manager.create ~block_size:4 ~num_blocks:32
      ~layers:cfg.Llm.layers ~hidden:cfg.Llm.hidden ()
  in
  let cc = Llm.new_cache llm in
  let pc = Llm.new_paged_cache llm m in
  let vocab = cfg.Llm.vocab in
  let prompt = Array.init 7 (fun i -> (5 + (3 * i)) mod vocab) in
  let a = Llm.prefill llm cc (Llm.embed llm prompt) in
  let b = Llm.prefill llm pc (Llm.embed llm prompt) in
  checkb "prefill bit-identical" true (bits_equal a b);
  for k = 0 to 9 do
    let e = Llm.embed llm [| (11 + (5 * k)) mod vocab |] in
    let x = Llm.decode_step llm cc e in
    let y = Llm.decode_step llm pc e in
    checkb
      (Printf.sprintf "decode step %d bit-identical" k)
      true (bits_equal x y)
  done;
  (* rewind mid-generation: both policies must replay identically *)
  Llm.truncate_cache cc 9;
  Llm.truncate_cache pc 9;
  let e = Llm.embed llm [| 3 |] in
  checkb "post-truncate step bit-identical" true
    (bits_equal (Llm.decode_step llm cc e) (Llm.decode_step llm pc e));
  Llm.reset_cache pc;
  checki "reset returns every block" 32 (Kv.Block_manager.free_blocks m)

let test_prefix_hit_bit_identical () =
  clean ();
  let llm = make_llm () in
  let vocab = (Llm.config llm).Llm.vocab in
  let shared = Array.init 8 (fun i -> (3 + (7 * i)) mod vocab) in
  let mk_prompt id =
    Array.append shared
      (Array.init 5 (fun i -> (13 + (11 * id) + i) mod vocab))
  in
  let pool =
    Serve.Kv_pool.create
      ~policy:
        (Serve.Kv_pool.Paged
           { block_size = 4; num_blocks = 32; prefix = true })
      llm
  in
  (* warm the trie with request 0's prompt *)
  let p0 = mk_prompt 0 in
  (match Serve.Kv_pool.acquire_for pool ~prompt:p0 ~total_rows:16 () with
  | `Denied -> Alcotest.fail "cold acquire denied"
  | `Cache (c, matched) ->
    checki "cold lookup matches nothing" 0 matched;
    ignore (Llm.extend llm c (Llm.embed llm p0));
    Serve.Kv_pool.register pool ~prompt:p0 c);
  (* request 1 shares the 8-token prefix (2 full blocks) *)
  let p1 = mk_prompt 1 in
  let cache, matched =
    match Serve.Kv_pool.acquire_for pool ~prompt:p1 ~total_rows:16 () with
    | `Denied -> Alcotest.fail "prefix-hit acquire denied"
    | `Cache (c, matched) -> (c, matched)
  in
  checki "two full blocks shared" 8 matched;
  checki "cache pre-seeded to the match" 8 (Llm.cache_len cache);
  let suffix = Array.sub p1 matched (Array.length p1 - matched) in
  let hit = Llm.extend llm cache (Llm.embed llm suffix) in
  (* reference: the same prompt prefilled cold into a contiguous cache *)
  let ref_cache = Llm.new_cache llm in
  let all = Llm.extend llm ref_cache (Llm.embed llm p1) in
  let hidden = (Llm.config llm).Llm.hidden in
  for r = 0 to Array.length suffix - 1 do
    for j = 0 to hidden - 1 do
      Alcotest.(check (float 0.0))
        (Printf.sprintf "suffix row %d col %d" r j)
        (Tensor.get all [| matched + r; j |])
        (Tensor.get hit [| r; j |])
    done
  done;
  (* and the generation that follows stays bit-identical *)
  for k = 0 to 3 do
    let e = Llm.embed llm [| (17 + k) mod vocab |] in
    checkb
      (Printf.sprintf "post-hit decode %d" k)
      true
      (bits_equal (Llm.decode_step llm ref_cache e)
         (Llm.decode_step llm cache e))
  done

(* ---- pool admission over the arena ---- *)

let test_pool_denies_on_exhausted_arena () =
  clean ();
  let llm = make_llm () in
  let pool =
    Serve.Kv_pool.create
      ~policy:
        (Serve.Kv_pool.Paged { block_size = 4; num_blocks = 4; prefix = false })
      llm
  in
  let prompt = Array.init 6 (fun i -> i + 1) in
  (* 16 arena rows: a 12-row request fits, the next one must be refused
     at admission (not fail mid-decode) *)
  (match Serve.Kv_pool.acquire_for pool ~prompt ~total_rows:12 () with
  | `Denied -> Alcotest.fail "first request denied"
  | `Cache (c, _) -> ignore (Llm.extend llm c (Llm.embed llm prompt)));
  (match Serve.Kv_pool.acquire_for pool ~prompt ~total_rows:12 () with
  | `Denied -> ()
  | `Cache _ -> Alcotest.fail "admitted past the arena");
  checki "denial counted" 1 (Serve.Kv_pool.denied pool)

(* ---- speculative decoding ---- *)

let mk_req ?(deadline_s = Float.infinity) ~prompt_len ~new_tokens id =
  let vocab = Llm.tiny.Llm.vocab in
  let prompt = Array.init prompt_len (fun i -> (7 + (3 * id) + i) mod vocab) in
  let gen = Array.init new_tokens (fun i -> (11 + (5 * id) + i) mod vocab) in
  Serve.Request.make ~id ~prompt ~gen ~deadline_s ()

let drain_outputs config reqs =
  let llm = make_llm () in
  let sched = Serve.Scheduler.create ~config llm in
  List.iter
    (fun r -> checkb "accepted" true (Serve.Scheduler.submit sched ~now:0.0 r))
    reqs;
  Serve.Scheduler.drain sched ~now:frozen_now;
  List.map
    (fun (r : Serve.Request.t) ->
      checkb "finished" true (r.Serve.Request.state = Serve.Request.Finished);
      (r.Serve.Request.id, Serve.Request.outputs r))
    (Serve.Scheduler.finished sched)

let test_spec_decode_matches_greedy () =
  clean ();
  let mk () =
    [ mk_req ~prompt_len:5 ~new_tokens:6 0;
      mk_req ~prompt_len:3 ~new_tokens:1 1;  (* prefill-only *)
      mk_req ~prompt_len:8 ~new_tokens:2 2;  (* shorter than one round *)
      mk_req ~prompt_len:4 ~new_tokens:9 3 ]
  in
  let greedy = drain_outputs Serve.Scheduler.default_config (mk ()) in
  List.iter
    (fun (spec_k, accuracy) ->
      clean ();
      let config =
        { Serve.Scheduler.default_config with
          Serve.Scheduler.spec_k; spec_accuracy = accuracy }
      in
      let spec = drain_outputs config (mk ()) in
      checki "same request count" (List.length greedy) (List.length spec);
      List.iter
        (fun (id, outs) ->
          let souts = List.assoc id spec in
          checki
            (Printf.sprintf "req %d token count (k=%d)" id spec_k)
            (List.length outs) (List.length souts);
          List.iteri
            (fun i (a, b) ->
              checkb
                (Printf.sprintf "req %d token %d (k=%d, acc %.2f)" id i
                   spec_k accuracy)
                true (bits_equal a b))
            (List.combine outs souts))
        greedy;
      let proposed =
        Telemetry.Counter.value Serve.Metrics.spec_proposed_name
      in
      let accepted =
        Telemetry.Counter.value Serve.Metrics.spec_accepted_name
      in
      let rejected =
        Telemetry.Counter.value Serve.Metrics.spec_rejected_name
      in
      checkb "proposals made" true (proposed > 0);
      checki "proposals conserved" proposed (accepted + rejected);
      if accuracy >= 1.0 then checki "perfect draft never rejected" 0 rejected)
    [ (3, 0.75); (4, 0.0); (2, 1.0) ]

let test_spec_decode_paged_matches_greedy () =
  clean ();
  let mk () =
    [ mk_req ~prompt_len:6 ~new_tokens:5 0; mk_req ~prompt_len:9 ~new_tokens:7 1 ]
  in
  let greedy = drain_outputs Serve.Scheduler.default_config (mk ()) in
  clean ();
  let config =
    { Serve.Scheduler.default_config with
      Serve.Scheduler.paged = true; block_size = 4; num_blocks = 32;
      spec_k = 3 }
  in
  let spec = drain_outputs config (mk ()) in
  List.iter
    (fun (id, outs) ->
      let souts = List.assoc id spec in
      checki "token count" (List.length outs) (List.length souts);
      List.iteri
        (fun i (a, b) ->
          checkb
            (Printf.sprintf "req %d token %d paged+spec" id i)
            true (bits_equal a b))
        (List.combine outs souts))
    greedy

(* ---- chaos: arena conservation under faults ---- *)

let test_serve_chaos_paged_no_leaks () =
  clean ();
  let scheduler =
    { Serve.Chaos.default.Serve.Chaos.scheduler with
      Serve.Scheduler.paged = true; block_size = 8; num_blocks = 64;
      spec_k = 3 }
  in
  let config =
    { Serve.Chaos.default with
      Serve.Chaos.requests = 12; scheduler; shared_prefix = 8 }
  in
  let r = Serve.Chaos.run ~config () in
  Alcotest.(check (list string)) "no violations" [] r.Serve.Chaos.violations;
  checkb "faults fired" true (r.Serve.Chaos.injected > 0);
  checkb "arena was used" true (r.Serve.Chaos.pages_allocated > 0);
  checkb "prefix sharing happened" true (r.Serve.Chaos.prefix_hits > 0);
  checki "bit-identity held" 0 r.Serve.Chaos.mismatched

let test_cluster_chaos_paged_no_leaks () =
  clean ();
  let scheduler =
    { Cluster.Chaos.default.Cluster.Chaos.scheduler with
      Serve.Scheduler.paged = true; block_size = 8; num_blocks = 64;
      spec_k = 3 }
  in
  let config =
    { Cluster.Chaos.default with
      Cluster.Chaos.requests = 12; replicas = 2; scheduler;
      shared_prefix = 8 }
  in
  let r = Cluster.Chaos.run ~config () in
  Alcotest.(check (list string)) "no violations" [] r.Cluster.Chaos.violations;
  checkb "faults fired" true (r.Cluster.Chaos.injected > 0);
  checki "fleet bit-identity held" 0 r.Cluster.Chaos.mismatched

(* disaggregation hands block tables over the prefiller's own arena to
   the decode tier, which appends into them until the exactly-once
   release returns the blocks *)
let test_cluster_chaos_paged_disaggregated () =
  clean ();
  let scheduler =
    { Cluster.Chaos.default.Cluster.Chaos.scheduler with
      Serve.Scheduler.paged = true; block_size = 8; num_blocks = 64 }
  in
  let config =
    { Cluster.Chaos.default with
      Cluster.Chaos.requests = 12; replicas = 2; disaggregate = true;
      scheduler; shared_prefix = 8 }
  in
  let r = Cluster.Chaos.run ~config () in
  Alcotest.(check (list string)) "no violations" [] r.Cluster.Chaos.violations;
  checkb "sessions adopted over the handoff" true (r.Cluster.Chaos.adopted > 0);
  checki "no double release" 0 r.Cluster.Chaos.double_released;
  checki "fleet bit-identity held" 0 r.Cluster.Chaos.mismatched

let () =
  Alcotest.run "kv"
    [
      ( "block-manager",
        [
          Alcotest.test_case "exhaustion denies" `Quick test_exhaustion_denies;
          Alcotest.test_case "refcount never negative" `Quick
            test_refcount_never_negative;
          Alcotest.test_case "COW isolates writers" `Quick
            test_cow_isolates_writers;
          Alcotest.test_case "handed-out blocks read zero" `Quick
            test_handed_out_blocks_read_zero;
        ] );
      ( "seq",
        [
          Alcotest.test_case "mid-flight exhaustion raises" `Quick
            test_seq_out_of_blocks;
          Alcotest.test_case "truncate frees exact tail" `Quick
            test_truncate_frees_exact_tail;
          Alcotest.test_case "rewind inside pinned prefix COWs" `Quick
            test_truncate_cow_inside_pinned_prefix;
        ] );
      ( "identity",
        [
          Alcotest.test_case "paged = contiguous (bit-identical)" `Quick
            test_paged_bit_identical_to_contiguous;
          Alcotest.test_case "prefix hit = cold prefill" `Quick
            test_prefix_hit_bit_identical;
        ] );
      ( "admission",
        [
          Alcotest.test_case "arena exhaustion denies at admission" `Quick
            test_pool_denies_on_exhausted_arena;
        ] );
      ( "speculative",
        [
          Alcotest.test_case "spec = greedy (token-identical)" `Quick
            test_spec_decode_matches_greedy;
          Alcotest.test_case "paged+spec = greedy" `Quick
            test_spec_decode_paged_matches_greedy;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "paged serve chaos conserves arena" `Quick
            test_serve_chaos_paged_no_leaks;
          Alcotest.test_case "paged cluster chaos conserves arena" `Quick
            test_cluster_chaos_paged_no_leaks;
          Alcotest.test_case "paged disaggregated handoff" `Quick
            test_cluster_chaos_paged_disaggregated;
        ] );
    ]
