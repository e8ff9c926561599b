(* Repository benchmark: closed-loop serving ([decode], whose traced run
   also carries a shared-prefix round) and pre-packed PARLOOPER kernels
   ([kernels]).

     bench.exe --workload NAME --seed N --seconds S --trace 0|1

   With [--trace 0] the run sets up several times (median = setup_s),
   then measures the workload for [S] seconds with nothing wrapped and
   prints the end-to-end metrics. With [--trace 1] it runs one
   fixed-work round plain and once more with every engine/kernel call
   wrapped in timers, and prints the per-layer metrics. Either way the
   outputs are checked against the naive references outside the timed
   region, and the last stdout line is one JSON object:

     {"correct": .., "attempted": .., "failed": .., "metrics": {..}}

   The benchmark talks to the program only through public entry points:
   [Serve.Scheduler.submit]/[step] (the closed-loop clients live here),
   [Llm.create]/[extend]/[forward_full], the [Kv_pool]/[Block_manager]
   accessors, [Gemm]/[Conv] [pack_*]/[run], [Fc.forward] and
   [Attention.attend]. *)

module Scheduler = Serve.Scheduler
module Request = Serve.Request
module Kv_pool = Serve.Kv_pool

(* ---------- clock and statistics ---------- *)

let now_ns = Telemetry.Clock.now_int_ns
let secs_between a b = float_of_int (b - a) *. 1e-9
let ms_between a b = float_of_int (b - a) *. 1e-6

(* linear-interpolated percentile, [p] in [0, 100] *)
let percentile xs p =
  let a = Array.of_list xs in
  let n = Array.length a in
  if n = 0 then nan
  else begin
    Array.sort compare a;
    let r = p /. 100.0 *. float_of_int (n - 1) in
    let i = int_of_float r in
    let f = r -. float_of_int i in
    if i + 1 >= n then a.(n - 1) else a.(i) +. (f *. (a.(i + 1) -. a.(i)))
  end

let median xs = percentile xs 50.0

let mean xs =
  match xs with
  | [] -> 0.0
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let share num den = if den > 0.0 then num /. den else 0.0

(* Timed set-ups: the last set-up and the median time. Each earlier one
   is dropped and collected first, so peak memory holds only one. *)
let setups = 5

let timed_setups f =
  let last = ref None and times = ref [] in
  for _ = 1 to setups do
    last := None;
    Gc.full_major ();
    let t0 = now_ns () in
    last := Some (f ());
    times := secs_between t0 (now_ns ()) :: !times
  done;
  (Option.get !last, median !times)

(* ---------- output ---------- *)

type metric = { name : string; value : float; unit_ : string; samples : int }

let metric ?(samples = 1) name unit_ value = { name; value; unit_; samples }

let print_report title ms =
  Printf.printf "== %s ==\n" title;
  List.iter
    (fun m ->
      Printf.printf "  %-30s %16.6f %-8s n=%d\n" m.name m.value m.unit_
        m.samples)
    ms

(* What an untraced run gates on: the median set-up time, the latency
   samples whose minimum is [lat_min_ms], and [peak_gflops].

   Interference from other tenants of a shared host only ever adds time.
   On a 2-vCPU VM it came in episodes of one to tens of seconds that
   slowed every kernel by up to 2.6x: over ten runs the 1-thread GEMM's
   per-run median spread 0.28 IQR/median and its minimum 0.10. So the
   gated figures are built from each run's fastest samples; the medians,
   tails and mean throughputs a user sees are printed in the report
   lines. Slow drift of the whole host over minutes moves minima too. *)
type window = { setup_s : float; lat_ms : float list; peak_gflops : float }

let minimum xs = List.fold_left Float.min infinity xs

let gated w =
  [ metric "setup_s" "s" w.setup_s ~samples:setups;
    metric "lat_min_ms" "ms" (minimum w.lat_ms) ~samples:(List.length w.lat_ms);
    metric "peak_gflops" "GFLOP/s" w.peak_gflops ]

(* A report line for the tail of latency samples [xs]: the highest
   percentile with >= 10 samples beyond it; none below 20 samples, where
   that percentile would not lie above the median. *)
let tail_of name xs =
  let k = List.length xs in
  if k < 20 then []
  else
    let p = 100.0 *. float_of_int (k - 10) /. float_of_int k in
    [ metric (Printf.sprintf "%s_tail_ms(p%.1f)" name p) "ms" (percentile xs p)
        ~samples:k ]

let print_result ~correct ~attempted ~failed ms =
  let body =
    List.map
      (fun m ->
        if not (Float.is_finite m.value) then
          failwith (Printf.sprintf "metric %s is not finite" m.name);
        Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" m.name m.value
          m.unit_)
      ms
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " body)

(* ---------- host calibration ---------- *)

(* Scalar multiply-add throughput of one core: 8 independent chains, so
   the loop is bound by the FP pipes, not by one chain's latency. *)
let fma_gflops () =
  let iters = 20_000_000 in
  let run () =
    let a0 = ref 1.0 and a1 = ref 1.1 and a2 = ref 1.2 and a3 = ref 1.3 in
    let a4 = ref 1.4 and a5 = ref 1.5 and a6 = ref 1.6 and a7 = ref 1.7 in
    let m = 0.999999 and c = 1e-7 in
    let t0 = now_ns () in
    for _ = 1 to iters do
      a0 := (!a0 *. m) +. c;
      a1 := (!a1 *. m) +. c;
      a2 := (!a2 *. m) +. c;
      a3 := (!a3 *. m) +. c;
      a4 := (!a4 *. m) +. c;
      a5 := (!a5 *. m) +. c;
      a6 := (!a6 *. m) +. c;
      a7 := (!a7 *. m) +. c
    done;
    let dt = secs_between t0 (now_ns ()) in
    ignore (Sys.opaque_identity (!a0 +. !a1 +. !a2 +. !a3 +. !a4 +. !a5 +. !a6 +. !a7));
    16.0 *. float_of_int iters /. dt /. 1e9
  in
  median (List.init 3 (fun _ -> run ()))

(* Streaming copy between two float64 arrays of [copy_mib] MiB each;
   counts the bytes read plus the bytes written. *)
let copy_mib = 64

let copy_gbs () =
  let n = copy_mib * 1024 * 1024 / 8 in
  let src = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n in
  let dst = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n in
  Bigarray.Array1.fill src 1.0;
  Bigarray.Array1.fill dst 0.0;
  let run () =
    let t0 = now_ns () in
    Bigarray.Array1.blit src dst;
    let dt = secs_between t0 (now_ns ()) in
    2.0 *. float_of_int (n * 8) /. dt /. 1e9
  in
  median (List.init 5 (fun _ -> run ()))

(* ---------- serving workloads ---------- *)

let bench_128 =
  { Llm.name = "bench-128"; hidden = 128; heads = 4; intermediate = 512;
    layers = 4; vocab = 256; gated_ffn = true }

type load = {
  clients : int;  (* closed-loop clients, one request in flight each *)
  shared : int;  (* shared system-prompt tokens leading every prompt *)
  uniq : int * int;  (* unique prompt tokens, inclusive range *)
  out : int * int;  (* output tokens, inclusive range *)
  per_client : int;  (* requests per client in the traced fixed-work round *)
}

let decode_load =
  { clients = 4; shared = 0; uniq = (8, 16); out = (32, 64); per_client = 1 }

(* p90 of the ~150 decode calls of the traced round keeps >= 10 beyond *)
let traced_decode_tail_pct = 90.0

(* The shared-prefix load: a 96-token system prompt leads every prompt.
   Its timings spread too widely on a small shared host to gate (TTFT
   p50 IQR/median 0.12-0.39 over ten-run sets), so it is not a workload
   of its own: its traced round runs inside the traced decode run and
   reports these per-layer metrics under a "shared_prefix." prefix. *)
let shared_prefix_layers =
  [ "sched.steps"; "serve.tokens"; "llm.decode_calls"; "llm.prefill_calls";
    "llm.prefill_rows"; "llm.prefill_ms_per_row";
    "llm.prefill_minor_words_per_row"; "llm.engine_share"; "kv.prefix_hits";
    "kv.prefix_token_share"; "kv.pages_allocated"; "kv.cow_copies";
    "kv.arena_peak_blocks"; "kv.denied"; "trace.overhead_share" ]

let shared_prefix_load =
  { clients = 2; shared = 96; uniq = (16, 32); out = (2, 4); per_client = 6 }

(* Request shapes are a fixed schedule, independent of the seed: the
   [j]-th request walks each range with a stride coprime to its width,
   so a run covers the range evenly and two seeds run the same shapes
   with different token ids. *)
let pick (lo, hi) ~stride j = lo + (j * stride mod (hi - lo + 1))

let system_prompt ~seed n =
  let rng = Prng.create ((seed * 7919) + 13) in
  Array.init n (fun _ -> Prng.int rng bench_128.Llm.vocab)

let make_request load ~seed ~sys j =
  let rng = Prng.create ((seed * 1_000_003) + j) in
  let ids n = Array.init n (fun _ -> Prng.int rng bench_128.Llm.vocab) in
  let uniq = ids (pick load.uniq ~stride:7 j) in
  let gen = ids (pick load.out ~stride:5 j) in
  Request.make ~id:j ~prompt:(Array.append sys uniq) ~gen ()

let serve_config load =
  { Scheduler.default_config with
    max_queue = 64;
    max_batch = load.clients;
    nthreads = Some 1;
    paged = true;
    block_size = 16;
    num_blocks = 256;
    prefix_share = true }

let clock () = Telemetry.Clock.now_s ()

let plain_engine llm =
  { Scheduler.extend = (fun cache emb -> Llm.extend ~nthreads:1 llm cache emb) }

(* One set-up: model creation, scheduler and KV arena, and a warm-up
   request (its prompt shares nothing with the workload's) run to
   completion so nests are compiled and a KV cache is pooled. *)
let warm_up load ~seed sched =
  let req =
    make_request { load with uniq = (16, 16); out = (4, 4) }
      ~seed:(seed + 104_729) ~sys:[||] 0
  in
  ignore (Scheduler.submit sched ~now:(clock ()) req);
  Scheduler.drain sched ~now:clock

let serve_setup load ~seed =
  let llm = Llm.create ~rng:(Prng.create seed) ~block:8 bench_128 in
  let sched =
    Scheduler.create ~config:(serve_config load) ~engine:(plain_engine llm) llm
  in
  warm_up load ~seed sched;
  (llm, sched)

type client = {
  mutable req : Request.t option;
  mutable sent : int;  (* requests this client has submitted *)
  mutable submit_ns : int;
  mutable last_ns : int;  (* when its previous token was delivered *)
  mutable seen : int;  (* outputs already delivered *)
}

type serve_obs = {
  mutable ttft : float list;  (* ms, one per request *)
  mutable tpot : float list;  (* ms, one per later token-bearing step *)
  mutable tokens : int;
  mutable flops : float;  (* logical model FLOPs delivered *)
  mutable peak_gflops : float;  (* best decode-only step *)
  mutable submitted : int;
  mutable failed : int;
  mutable prompt_tokens : int;
  mutable started : Request.t list;  (* delivered at least one token *)
  mutable inputs : int array list;  (* every submitted prompt and gen *)
  mutable wall_s : float;
}

type budget = Window of float | Round of int  (* requests per client *)

(* The closed loop: every client keeps one request in flight and submits
   its next one as soon as the previous is terminal. TTFT and TPOT come
   from timestamps taken around [step]: a token is delivered when the
   step that produced it returns, so a decode token produced in the same
   step as the first token arrives with it and adds no TPOT sample.
   [peak_gflops] is the best decode FLOP rate of a step that ran no
   prefill. [step] runs one [Scheduler.step] (the traced run wraps it). *)
let closed_loop load ~seed ~sched ~budget ~step =
  let cfg = bench_128 in
  let sys = system_prompt ~seed load.shared in
  let next = ref 0 in
  let o =
    { ttft = []; tpot = []; tokens = 0; flops = 0.0; peak_gflops = 0.0; submitted = 0;
      failed = 0; prompt_tokens = 0; started = []; inputs = []; wall_s = 0.0 }
  in
  let clients =
    Array.init load.clients (fun _ ->
        { req = None; sent = 0; submit_ns = 0; last_ns = 0; seen = 0 })
  in
  let t0 = now_ns () in
  let last = ref t0 in
  let open_ () =
    match budget with
    | Window s -> secs_between t0 !last < s
    | Round _ -> true
  in
  let wants c =
    open_ ()
    && match budget with Window _ -> true | Round k -> c.sent < k
  in
  let submit c =
    let r = make_request load ~seed ~sys !next in
    incr next;
    c.sent <- c.sent + 1;
    o.submitted <- o.submitted + 1;
    o.prompt_tokens <- o.prompt_tokens + Array.length r.Request.prompt;
    o.inputs <- r.Request.gen :: r.Request.prompt :: o.inputs;
    c.req <- Some r;
    c.seen <- 0;
    c.submit_ns <- now_ns ();
    if not (Scheduler.submit sched ~now:(clock ()) r) then begin
      o.failed <- o.failed + 1;
      c.req <- None
    end
  in
  (* every delivered token carries an equal share of its request's
     logical model FLOPs (whole-prompt prefill plus each decode step),
     so a window cut mid-request counts the work done so far smoothly *)
  let flops_per_token (r : Request.t) =
    let plen = Array.length r.Request.prompt in
    let total = ref (Llm.prefill_flops cfg ~n_in:plen) in
    for i = 1 to r.Request.new_tokens - 1 do
      total := !total +. Llm.decode_flops cfg ~past:(plen + i - 1)
    done;
    !total /. float_of_int r.Request.new_tokens
  in
  (* a step's logical decode FLOPs, and whether it ran a prefill *)
  let step_flops = ref 0.0 and step_prefill = ref false in
  let deliver c (r : Request.t) t1 =
    let n = List.length r.Request.outputs in
    if n > c.seen then begin
      if c.seen = 0 then begin
        o.ttft <- ms_between c.submit_ns t1 :: o.ttft;
        o.started <- r :: o.started;
        step_prefill := true
      end
      else begin
        o.tpot <- (ms_between c.last_ns t1 /. float_of_int (n - c.seen)) :: o.tpot;
        let plen = Array.length r.Request.prompt in
        for i = c.seen to n - 1 do
          step_flops := !step_flops +. Llm.decode_flops cfg ~past:(plen + i - 1)
        done
      end;
      o.flops <- o.flops +. (float_of_int (n - c.seen) *. flops_per_token r);
      o.tokens <- o.tokens + (n - c.seen);
      c.seen <- n;
      c.last_ns <- t1
    end
  in
  Array.iter (fun c -> if wants c then submit c) clients;
  while open_ () && Array.exists (fun c -> c.req <> None) clients do
    let ts = now_ns () in
    step ();
    let t1 = now_ns () in
    last := t1;
    step_flops := 0.0;
    step_prefill := false;
    Array.iter
      (fun c ->
        match c.req with
        | None -> ()
        | Some r ->
          deliver c r t1;
          if Request.terminal r.Request.state then begin
            if r.Request.state <> Request.Finished then o.failed <- o.failed + 1;
            c.req <- None;
            if wants c then submit c
          end)
      clients;
    if not !step_prefill then
      o.peak_gflops <- Float.max o.peak_gflops (!step_flops /. secs_between ts t1 /. 1e9)
  done;
  o.wall_s <- secs_between t0 !last;
  o

let plain_step sched () = ignore (Scheduler.step sched ~now:clock)

(* Bit-for-bit check of a seeded sample of requests that delivered
   tokens: every delivered hidden state must equal the matching row of a
   cache-free [forward_full] over the prompt plus the generated ids fed
   back, and a finished request must have delivered all its tokens. *)
let check_requests llm ~seed ~sample (started : Request.t list) =
  let check (r : Request.t) =
    let plen = Array.length r.Request.prompt in
    let outs = Request.outputs r in
    let n_out = List.length outs in
    let ids = Array.append r.Request.prompt (Array.sub r.Request.gen 0 (n_out - 1)) in
    let full = Llm.forward_full ~nthreads:1 llm (Llm.embed llm ids) in
    let row_ok k out =
      Seq.for_all
        (fun c -> Tensor.get out [| 0; c |] = Tensor.get full [| plen - 1 + k; c |])
        (Seq.init bench_128.Llm.hidden Fun.id)
    in
    (r.Request.state <> Request.Finished || n_out = r.Request.new_tokens)
    && List.for_all Fun.id (List.mapi row_ok outs)
  in
  let arr = Array.of_list started in
  let n = Array.length arr in
  let rng = Prng.create (seed + 99) in
  n > 0 && List.for_all (fun _ -> check arr.(Prng.int rng n)) (List.init (min sample n) Fun.id)

let digest arrays =
  arrays
  |> List.rev_map (fun a ->
         String.concat "," (Array.to_list (Array.map string_of_int a)))
  |> String.concat ";" |> Digest.string |> Digest.to_hex

let decode_untraced ~seed ~seconds =
  let load = decode_load in
  let (llm, sched), setup_s = timed_setups (fun () -> serve_setup load ~seed) in
  let o =
    closed_loop load ~seed ~sched ~budget:(Window seconds)
      ~step:(plain_step sched)
  in
  let denied = Kv_pool.denied (Scheduler.pool sched) in
  let correct = check_requests llm ~seed ~sample:2 o.started in
  let n = List.length in
  print_report
    (Printf.sprintf "end to end, %.1f s window" o.wall_s)
    ([ metric "tokens_per_s" "tok/s" (float_of_int o.tokens /. o.wall_s)
         ~samples:o.tokens;
       metric "ttft_p50_ms" "ms" (median o.ttft) ~samples:(n o.ttft) ]
    @ tail_of "ttft" o.ttft
    @ [ metric "tpot_p50_ms" "ms" (median o.tpot) ~samples:(n o.tpot) ]
    @ tail_of "tpot" o.tpot
    @ [ metric "gflops" "GFLOP/s" (o.flops /. o.wall_s /. 1e9) ~samples:o.tokens;
        metric "failed_share" "share"
          (share (float_of_int (o.failed + denied)) (float_of_int o.submitted))
          ~samples:o.submitted ]);
  let w = { setup_s; lat_ms = o.tpot; peak_gflops = o.peak_gflops } in
  (correct, o.submitted, o.failed + denied, w)

(* ---------- traced serving round ---------- *)

type engine_trace = {
  mutable on : bool;
  mutable step_engine_ns : int;
  mutable step_decodes : int;
  mutable decode_ms : float list;
  mutable decode_words : float;
  mutable decode_ctx : int;  (* summed context length of decode calls *)
  mutable prefill_calls : int;
  mutable prefill_rows : int;
  mutable prefill_ms : float;
  mutable prefill_words : float;
  mutable prefix_hits : int;
  mutable peak_blocks : int;
}

(* [Llm.extend] wrapped in a timer and a minor-word counter. A call of
   more than one row is a prefill; a prefill over a non-empty cache
   started from shared prefix blocks. *)
let traced_engine llm tr mgr =
  { Scheduler.extend =
      (fun cache emb ->
        if not tr.on then Llm.extend ~nthreads:1 llm cache emb
        else begin
          let rows = (Tensor.dims emb).(0) in
          let past = Llm.cache_len cache in
          let w0 = Gc.minor_words () in
          let t0 = now_ns () in
          let out = Llm.extend ~nthreads:1 llm cache emb in
          let t1 = now_ns () in
          let w = Gc.minor_words () -. w0 in
          tr.step_engine_ns <- tr.step_engine_ns + (t1 - t0);
          (match !mgr with
          | Some m ->
            tr.peak_blocks <- max tr.peak_blocks (Kv.Block_manager.live_blocks m)
          | None -> ());
          if rows = 1 then begin
            tr.step_decodes <- tr.step_decodes + 1;
            tr.decode_ms <- ms_between t0 t1 :: tr.decode_ms;
            tr.decode_words <- tr.decode_words +. w;
            tr.decode_ctx <- tr.decode_ctx + past + 1
          end
          else begin
            tr.prefill_calls <- tr.prefill_calls + 1;
            tr.prefill_rows <- tr.prefill_rows + rows;
            tr.prefill_ms <- tr.prefill_ms +. ms_between t0 t1;
            tr.prefill_words <- tr.prefill_words +. w;
            if past > 0 then tr.prefix_hits <- tr.prefix_hits + 1
          end;
          out
        end) }

(* Decode-shape replay: the ops of one decoder layer at N = 1, each timed
   alone (median of [reps]), against the traced decode step. *)
let replay ~seed ~ctx ~decode_ms_p50 =
  let rng = Prng.create (seed + 5) in
  let reps = 25 in
  let time_us f =
    median
      (List.init reps (fun _ ->
           let t0 = now_ns () in
           ignore (Sys.opaque_identity (f ()));
           float_of_int (now_ns () - t0) *. 1e-3))
  in
  let random dims =
    let t = Tensor.create Datatype.F32 dims in
    Tensor.fill_random t rng ~scale:0.5;
    t
  in
  (* (name, in, out, uses per layer): Q/K/V/O, FFN up and gate, down *)
  let shapes = [ ("qkvo", 128, 128, 4.0); ("up", 128, 512, 2.0); ("down", 512, 128, 1.0) ] in
  let timed =
    List.map
      (fun (name, i, o, uses) ->
        let fc = Fc.create ~rng ~block:8 ~in_features:i ~out_features:o () in
        let x = random [| 1; i |] in
        let fc_us = time_us (fun () -> Fc.forward ~nthreads:1 fc x) in
        let cfg = Gemm.make_config ~bm:8 ~bn:1 ~bk:8 ~m:o ~n:1 ~k:i () in
        let pack_us = time_us (fun () -> Gemm.pack_a cfg fc.Fc.weights) in
        (name, fc_us, pack_us, uses))
      shapes
  in
  let h = bench_128.Llm.hidden in
  let q = random [| 1; h |] and k = random [| ctx; h |] and v = random [| ctx; h |] in
  let attend_us =
    time_us (fun () ->
        Attention.attend ~causal:true ~heads:bench_128.Llm.heads q k v)
  in
  let sum f = List.fold_left (fun acc x -> acc +. f x) 0.0 timed in
  let fc_layer_us = sum (fun (_, fc, _, u) -> u *. fc) in
  let pack_layer_us = sum (fun (_, _, p, u) -> u *. p) in
  let us name = List.find (fun (n, _, _, _) -> n = name) timed |> fun (_, f, _, _) -> f in
  let layers = float_of_int bench_128.Llm.layers in
  [ metric "op.fc_qkvo_us" "us" (us "qkvo") ~samples:reps;
    metric "op.fc_up_us" "us" (us "up") ~samples:reps;
    metric "op.fc_down_us" "us" (us "down") ~samples:reps;
    metric "op.pack_a_share" "share" (share pack_layer_us fc_layer_us) ~samples:reps;
    metric "op.attend_us" "us" attend_us ~samples:reps;
    metric "op.coverage" "share"
      (share (layers *. (fc_layer_us +. attend_us) *. 1e-3) decode_ms_p50)
      ~samples:reps ]

let counter name = Telemetry.Counter.value name

(* One traced fixed-work round of [load]: its per-layer metrics, and the
   mean decode context and decode-call p50 the replay is measured against. *)
let serve_traced load ~seed =
  let llm, sched = serve_setup load ~seed in
  let round = Round load.per_client in
  let plain = closed_loop load ~seed ~sched ~budget:round ~step:(plain_step sched) in
  let tr =
    { on = false; step_engine_ns = 0; step_decodes = 0; decode_ms = [];
      decode_words = 0.0; decode_ctx = 0; prefill_calls = 0; prefill_rows = 0;
      prefill_ms = 0.0; prefill_words = 0.0; prefix_hits = 0; peak_blocks = 0 }
  in
  let mgr = ref None in
  let sched =
    Scheduler.create ~config:(serve_config load) ~engine:(traced_engine llm tr mgr)
      llm
  in
  let pool = Scheduler.pool sched in
  mgr := Kv_pool.manager pool;
  warm_up load ~seed sched;
  let alloc0 = counter Kv.Block_manager.pages_allocated_name in
  let cow0 = counter Kv.Block_manager.cow_copies_name in
  let denied0 = Kv_pool.denied pool in
  let steps = ref 0 and step_ms = ref 0.0 and self_ms = ref 0.0 in
  let queue = ref [] and batch = ref [] in
  let step () =
    queue := float_of_int (Scheduler.queue_depth sched) :: !queue;
    tr.step_engine_ns <- 0;
    tr.step_decodes <- 0;
    let t0 = now_ns () in
    ignore (Scheduler.step sched ~now:clock);
    let t1 = now_ns () in
    incr steps;
    step_ms := !step_ms +. ms_between t0 t1;
    self_ms := !self_ms +. (float_of_int (t1 - t0 - tr.step_engine_ns) *. 1e-6);
    if tr.step_decodes > 0 then batch := float_of_int tr.step_decodes :: !batch;
    Option.iter
      (fun m -> tr.peak_blocks <- max tr.peak_blocks (Kv.Block_manager.live_blocks m))
      !mgr
  in
  tr.on <- true;
  let o = closed_loop load ~seed ~sched ~budget:round ~step in
  tr.on <- false;
  let correct = check_requests llm ~seed ~sample:1 o.started in
  Printf.printf "inputs_digest=%s\n" (digest o.inputs);
  let decode_calls = List.length tr.decode_ms in
  let decode_p50 = median tr.decode_ms in
  let rows = float_of_int tr.prefill_rows in
  let engine_ms =
    List.fold_left ( +. ) 0.0 tr.decode_ms +. tr.prefill_ms
  in
  let f = float_of_int in
  let ms =
    [ metric "sched.steps" "count" (f !steps);
      metric "sched.self_ms" "ms" (share !self_ms (f !steps)) ~samples:!steps;
      metric "sched.self_share" "share" (share !self_ms !step_ms) ~samples:!steps;
      metric "sched.batch_mean" "count" (mean !batch) ~samples:(List.length !batch);
      metric "sched.queue_depth_mean" "count" (mean !queue) ~samples:!steps;
      metric "serve.tokens" "count" (f o.tokens);
      metric "llm.decode_calls" "count" (f decode_calls);
      metric "llm.decode_ms_p50" "ms" decode_p50 ~samples:decode_calls;
      metric "llm.decode_ms_tail" "ms" (percentile tr.decode_ms traced_decode_tail_pct)
        ~samples:decode_calls;
      metric "llm.decode_minor_words" "words"
        (share tr.decode_words (f decode_calls)) ~samples:decode_calls;
      metric "llm.prefill_calls" "count" (f tr.prefill_calls);
      metric "llm.prefill_rows" "count" rows;
      metric "llm.prefill_ms_per_row" "ms" (share tr.prefill_ms rows)
        ~samples:tr.prefill_calls;
      metric "llm.prefill_minor_words_per_row" "words"
        (share tr.prefill_words rows) ~samples:tr.prefill_calls;
      metric "llm.engine_share" "share" (share engine_ms !step_ms) ~samples:!steps;
      metric "kv.prefix_hits" "count" (f tr.prefix_hits);
      metric "kv.prefix_token_share" "share"
        (1.0 -. share rows (f o.prompt_tokens)) ~samples:o.submitted;
      metric "kv.pages_allocated" "count"
        (f (counter Kv.Block_manager.pages_allocated_name - alloc0));
      metric "kv.cow_copies" "count"
        (f (counter Kv.Block_manager.cow_copies_name - cow0));
      metric "kv.arena_peak_blocks" "count" (f tr.peak_blocks);
      metric "kv.denied" "count" (f (Kv_pool.denied pool - denied0));
      metric "trace.overhead_share" "share" ((o.wall_s /. plain.wall_s) -. 1.0) ]
  in
  let failed = o.failed + Kv_pool.denied pool - denied0 in
  ((correct, o.submitted, failed, ms), tr.decode_ctx / max 1 decode_calls, decode_p50)

(* The traced decode round with its decode-shape replay, then the
   shared-prefix round, so the prefix trie and multi-row prefill are
   measured on a gated workload (see [shared_prefix_layers]). *)
let decode_traced ~seed =
  let (c, a, f, ms), ctx, decode_ms_p50 = serve_traced decode_load ~seed in
  let ops = replay ~seed ~ctx ~decode_ms_p50 in
  let (c', a', f', sp), _, _ = serve_traced shared_prefix_load ~seed in
  let sp =
    List.filter_map
      (fun m ->
        if List.mem m.name shared_prefix_layers then
          Some { m with name = "shared_prefix." ^ m.name }
        else None)
      sp
  in
  let host =
    [ metric "host.fma_gflops" "GFLOP/s" (fma_gflops ()) ~samples:3;
      metric "host.copy_gbs" "GB/s" (copy_gbs ()) ~samples:5 ]
  in
  (c && c', a + a', f + f', ms @ ops @ sp @ host)

(* ---------- kernels ---------- *)

type kernels = {
  g32cfg : Gemm.config;
  g32 : Gemm.t;
  a32 : Tensor.t;
  b32 : Tensor.t;
  pa32 : Tensor.t;
  pb32 : Tensor.t;
  c2 : Tensor.t;  (* 2-thread result *)
  c1 : Tensor.t;  (* 1-thread result *)
  g16cfg : Gemm.config;
  g16 : Gemm.t;
  a16 : Tensor.t;
  b16 : Tensor.t;
  pa16 : Tensor.t;
  pb16 : Tensor.t;
  c16 : Tensor.t;
  cvcfg : Conv.config;
  cv : Conv.t;
  inp : Tensor.t;
  wts : Tensor.t;
  pinp : Tensor.t;
  pwts : Tensor.t;
  out : Tensor.t;
}

let team = 2

let kernels_setup ~seed =
  let rng = Prng.create seed in
  let random dt dims =
    let t = Tensor.create dt dims in
    Tensor.fill_random t rng ~scale:1.0;
    t
  in
  (* the paper's Listing-1 GEMM: BCa (M and N blocks collapsed-parallel,
     K innermost), 32-blocks, a batch-reduce of 4 K blocks per call *)
  let g32cfg = Gemm.make_config ~bm:32 ~bn:32 ~bk:32 ~k_step:4 ~m:512 ~n:512 ~k:512 () in
  let a32 = random Datatype.F32 [| 512; 512 |] and b32 = random Datatype.F32 [| 512; 512 |] in
  let g16cfg =
    Gemm.make_config ~bm:32 ~bn:32 ~bk:32 ~k_step:4 ~dtype:Datatype.BF16
      ~vnni_b:true ~m:256 ~n:256 ~k:256 ()
  in
  let a16 = random Datatype.BF16 [| 256; 256 |] and b16 = random Datatype.BF16 [| 256; 256 |] in
  (* ResNet-style 3x3 conv; the spec puts the output-feature-block loop
     (c) outermost-parallel instead of the minibatch loop (a), which has
     one iteration here *)
  let cvcfg =
    Conv.make_config ~pad:1 ~bc:32 ~bk:32 ~n:1 ~c:64 ~k:64 ~h:28 ~w:28 ~r:3 ~s:3 ()
  in
  let inp = random Datatype.F32 [| 1; 64; 28; 28 |] in
  let wts = random Datatype.F32 [| 64; 64; 3; 3 |] in
  { g32cfg; g32 = Gemm.create g32cfg "BCa"; a32; b32;
    pa32 = Gemm.pack_a g32cfg a32; pb32 = Gemm.pack_b g32cfg b32;
    c2 = Gemm.alloc_c g32cfg; c1 = Gemm.alloc_c g32cfg;
    g16cfg; g16 = Gemm.create g16cfg "BCa"; a16; b16;
    pa16 = Gemm.pack_a g16cfg a16; pb16 = Gemm.pack_b g16cfg b16;
    c16 = Gemm.alloc_c g16cfg;
    cvcfg; cv = Conv.create cvcfg "aCdebfg"; inp; wts;
    pinp = Conv.pack_input cvcfg inp; pwts = Conv.pack_weights cvcfg wts;
    out = Conv.alloc_output cvcfg }

(* the mix, in run order: (name, threads, FLOPs, call). Only the first
   GEMM uses the team; on a 2-vCPU shared host a 2-thread call is at the
   mercy of whatever else runs on the second vCPU (its per-run median
   spreads 25-35% run to run, single-thread calls about 5%), so the gated
   figures come from the single-thread calls and the team shows in the
   report and the traced run. *)
let mix k =
  [ ("gemm_f32_2t", team, Gemm.flops k.g32cfg,
     fun () -> Gemm.run ~nthreads:team k.g32 ~a:k.pa32 ~b:k.pb32 ~c:k.c2);
    ("gemm_f32_1t", 1, Gemm.flops k.g32cfg,
     fun () -> Gemm.run ~nthreads:1 k.g32 ~a:k.pa32 ~b:k.pb32 ~c:k.c1);
    ("gemm_bf16_1t", 1, Gemm.flops k.g16cfg,
     fun () -> Gemm.run ~nthreads:1 k.g16 ~a:k.pa16 ~b:k.pb16 ~c:k.c16);
    ("conv_1t", 1, Conv.flops k.cvcfg,
     fun () -> Conv.run ~nthreads:1 k.cv ~input:k.pinp ~weights:k.pwts ~output:k.out) ]

(* Warm-up, in two parts. [warm_calls] runs every single-thread call of
   the mix once and belongs to the timed set-up (nests are compiled at
   [create], so this touches the packed operands and kernels once).
   [warm_team] runs the 2-thread GEMM three times, as the first team
   regions of a process run slow while the worker pool spins up; it is
   not timed, since a 2-thread call's time spreads 25-35% run to run on
   a 2-vCPU shared host and would leak into setup_s. *)
let warm_calls k =
  List.iter (fun (_, threads, _, run) -> if threads = 1 then run ()) (mix k)

let warm_team k =
  List.iter
    (fun (_, threads, _, run) ->
      if threads > 1 then
        for _ = 1 to 3 do
          run ()
        done)
    (mix k)

(* Outputs against lib/tensor/reference.ml: the 2- and 1-thread FP32
   results must be bit-identical (same K order), a seeded sample of 64
   rows must match the naive matmul, and the BF16 GEMM and the conv must
   match their references in full. *)
let check_kernels k ~seed =
  let tol = 1e-4 in
  let c2 = Gemm.unpack_c k.g32cfg k.c2 and c1 = Gemm.unpack_c k.g32cfg k.c1 in
  let same = Tensor.max_abs_diff c2 c1 = 0.0 in
  let rng = Prng.create (seed + 77) in
  let rows = Array.init 64 (fun _ -> Prng.int rng 512) in
  let pick t = Tensor.init Datatype.F32 [| 64; 512 |] (fun i -> Tensor.get t [| rows.(i.(0)); i.(1) |]) in
  let f32_ok = Tensor.approx_equal ~tol (pick c2) (Reference.matmul (pick k.a32) k.b32) in
  let bf16_ok =
    Tensor.approx_equal ~tol (Gemm.unpack_c k.g16cfg k.c16) (Reference.matmul k.a16 k.b16)
  in
  let conv_ok =
    Tensor.approx_equal ~tol
      (Conv.unpack_output k.cvcfg k.out)
      (Reference.conv2d ~stride:1 ~pad:1 k.inp k.wts)
  in
  Printf.printf "check: f32 1t=2t %b, f32 rows %b, bf16 %b, conv %b\n" same f32_ok bf16_ok conv_ok;
  same && f32_ok && bf16_ok && conv_ok

let time_ms f =
  let t0 = now_ns () in
  f ();
  ms_between t0 (now_ns ())

let kernels_untraced ~seed ~seconds =
  let k, setup_s =
    timed_setups (fun () ->
        let k = kernels_setup ~seed in
        warm_calls k;
        k)
  in
  warm_team k;
  let calls = mix k in
  let times = Hashtbl.create 4 in
  let pass_flops = List.fold_left (fun acc (_, _, fl, _) -> acc +. fl) 0.0 calls in
  let passes = ref 0 in
  let t0 = now_ns () in
  while secs_between t0 (now_ns ()) < seconds do
    List.iter (fun (name, _, _, run) -> Hashtbl.add times name (time_ms run)) calls;
    incr passes
  done;
  let wall = secs_between t0 (now_ns ()) in
  let correct = check_kernels k ~seed in
  let t name = Hashtbl.find_all times name in
  let gflops fl ms = fl /. (ms *. 1e-3) /. 1e9 in
  (* the single-thread calls: FLOPs of one of each over the sum of each
     one's fastest call *)
  let single = List.filter (fun (_, threads, _, _) -> threads = 1) calls in
  let sum f = List.fold_left (fun acc c -> acc +. f c) 0.0 single in
  let peak_gflops =
    gflops (sum (fun (_, _, fl, _) -> fl)) (sum (fun (name, _, _, _) -> minimum (t name)))
  in
  print_report
    (Printf.sprintf "end to end, %.1f s window, %d passes" wall !passes)
    (metric "gemm_gflops" "GFLOP/s"
       (gflops (Gemm.flops k.g32cfg) (median (t "gemm_f32_2t")))
       ~samples:!passes
     :: metric "kernel_gflops" "GFLOP/s" (pass_flops *. float_of_int !passes /. wall /. 1e9)
          ~samples:!passes
     :: List.concat_map
          (fun (name, _, _, _) ->
            metric (name ^ "_ms_p50") "ms" (median (t name)) ~samples:!passes
            :: tail_of name (t name))
          calls);
  let w = { setup_s; lat_ms = t "gemm_f32_1t"; peak_gflops } in
  (correct, !passes * List.length calls, (if correct then 0 else 1), w)

let kernels_traced ~seed =
  let k = kernels_setup ~seed in
  warm_calls k;
  warm_team k;
  let calls = mix k in
  let passes = 5 in
  let plain_ms =
    time_ms (fun () ->
        for _ = 1 to passes do
          List.iter (fun (_, _, _, run) -> run ()) calls
        done)
  in
  let times = Hashtbl.create 4 and words = Hashtbl.create 4 in
  let t0 = now_ns () in
  for _ = 1 to passes do
    List.iter
      (fun (name, _, _, run) ->
        let w0 = Gc.minor_words () in
        let t1 = now_ns () in
        run ();
        let t2 = now_ns () in
        let w = Gc.minor_words () -. w0 in
        Hashtbl.add times name (ms_between t1 t2);
        Hashtbl.add words name w)
      calls
  done;
  let traced_ms = ms_between t0 (now_ns ()) in
  let p50 name = median (Hashtbl.find_all times name) in
  let pack f = median (List.init 5 (fun _ -> time_ms (fun () -> ignore (Sys.opaque_identity (f ()))))) in
  let pack_a_ms = pack (fun () -> Gemm.pack_a k.g32cfg k.a32) in
  let pack_b_ms = pack (fun () -> Gemm.pack_b k.g32cfg k.b32) in
  let fma = fma_gflops () and copy = copy_gbs () in
  let correct = check_kernels k ~seed in
  let t2 = p50 "gemm_f32_2t" and t1 = p50 "gemm_f32_1t" in
  let intensity = Gemm.flops k.g32cfg /. Gemm.traffic_bytes k.g32cfg in
  let achieved = Gemm.flops k.g32cfg /. (t2 *. 1e-3) /. 1e9 in
  let roof = Float.min (float_of_int team *. fma) (intensity *. copy) in
  Printf.printf "inputs_digest=%s\n"
    (Digest.to_hex (Digest.string (string_of_float (Tensor.get k.a32 [| 0; 0 |]))));
  Printf.printf "host: fma over %d x 8 scalar chains, copy over 2 x %d MiB; gemm.intensity from Gemm.traffic_bytes (computed, not measured)\n"
    20_000_000 copy_mib;
  let ms =
    [ metric "gemm.f32_ms_p50" "ms" t2 ~samples:passes;
      metric "gemm.f32_1t_ms_p50" "ms" t1 ~samples:passes;
      metric "gemm.bf16_ms_p50" "ms" (p50 "gemm_bf16_1t") ~samples:passes;
      metric "gemm.minor_words" "words" (median (Hashtbl.find_all words "gemm_f32_2t")) ~samples:passes;
      metric "gemm.pack_a_ms" "ms" pack_a_ms ~samples:5;
      metric "gemm.pack_b_ms" "ms" pack_b_ms ~samples:5;
      metric "gemm.intensity" "flop/B" intensity;
      metric "gemm.roofline_share" "share" (share achieved roof) ~samples:passes;
      metric "conv.ms_p50" "ms" (p50 "conv_1t") ~samples:passes;
      metric "team.par_efficiency" "share" (share t1 (float_of_int team *. t2)) ~samples:passes;
      metric "host.fma_gflops" "GFLOP/s" fma ~samples:3;
      metric "host.copy_gbs" "GB/s" copy ~samples:5;
      metric "trace.overhead_share" "share" ((traced_ms /. plain_ms) -. 1.0) ]
  in
  (correct, passes * List.length calls, (if correct then 0 else 1), ms)

(* ---------- main ---------- *)

let usage () =
  prerr_endline
    "usage: bench.exe --workload decode|kernels --seed N \
     --seconds S --trace 0|1";
  exit 2

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0.0 and trace = ref (-1) in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := int_of_string v; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if !seed < 0 || !seconds <= 0.0 || (!trace <> 0 && !trace <> 1) then usage ();
  let seed = !seed and seconds = !seconds in
  let correct, attempted, failed, ms =
    match (!workload, !trace) with
    | "decode", 0 ->
      let c, a, f, w = decode_untraced ~seed ~seconds in
      (c, a, f, gated w)
    | "kernels", 0 ->
      let c, a, f, w = kernels_untraced ~seed ~seconds in
      (c, a, f, gated w)
    | "decode", _ -> decode_traced ~seed
    | "kernels", _ -> kernels_traced ~seed
    | _ -> usage ()
  in
  print_report (Printf.sprintf "%s seed=%d trace=%d" !workload seed !trace) ms;
  Printf.printf "attempted=%d failed=%d correct=%b\n" attempted failed correct;
  print_result ~correct ~attempted ~failed ms;
  if not correct then exit 1
