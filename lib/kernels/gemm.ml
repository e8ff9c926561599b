type config = {
  m : int;
  n : int;
  k : int;
  bm : int;
  bn : int;
  bk : int;
  dtype : Datatype.t;
  vnni_b : bool;
  k_step : int;
  mk_blocks : int list;
  nk_blocks : int list;
  kk_blocks : int list;
}

let make_config ?(bm = 32) ?(bn = 32) ?(bk = 32) ?(dtype = Datatype.F32)
    ?(vnni_b = false) ?(k_step = 1) ?(mk_blocks = []) ?(nk_blocks = [])
    ?(kk_blocks = []) ~m ~n ~k () =
  let bm = min bm m and bn = min bn n and bk = min bk k in
  if m mod bm <> 0 || n mod bn <> 0 || k mod bk <> 0 then
    invalid_arg "Gemm.make_config: block sizes must divide M, N, K";
  if vnni_b && bk mod Datatype.vnni_factor dtype <> 0 then
    invalid_arg "Gemm.make_config: bk must be divisible by the VNNI factor";
  { m; n; k; bm; bn; bk; dtype; vnni_b; k_step; mk_blocks; nk_blocks; kk_blocks }

let mb c = c.m / c.bm
let nb c = c.n / c.bn
let kb c = c.k / c.bk

let flops c = 2.0 *. float_of_int c.m *. float_of_int c.n *. float_of_int c.k

let loop_specs c =
  [
    Loop_spec.make ~bound:(kb c) ~step:c.k_step ~block_steps:c.kk_blocks ();
    Loop_spec.make ~bound:(mb c) ~step:1 ~block_steps:c.mk_blocks ();
    Loop_spec.make ~bound:(nb c) ~step:1 ~block_steps:c.nk_blocks ();
  ]

let default_spec = "BCa"

type t = {
  cfg : config;
  loop : Threaded_loop.t;
  ker_first : Brgemm.kernel;  (** beta = 0: zeroing fold of the first visit *)
  ker_acc : Brgemm.kernel;  (** beta = 1 *)
}

let create cfg spec_string =
  let b_layout = if cfg.vnni_b then Brgemm.Vnni else Brgemm.Flat in
  let mk beta =
    Dispatch.brgemm
      (Brgemm.make_config ~dtype:cfg.dtype ~b_layout ~beta ~m:cfg.bm ~n:cfg.bn
         ~k:cfg.bk ())
  in
  {
    cfg;
    loop = Threaded_loop.create (loop_specs cfg) spec_string;
    ker_first = mk 0.0;
    ker_acc = mk 1.0;
  }

(* ---- spec resolver hook ----
   An installed resolver may substitute the instantiation of a GEMM at
   nest-compile time: it returns a replacement (config, spec) — same
   m/n/k/block/dtype, possibly different blocking lists — or None to keep
   the caller's choice. The online tuner (lib/tuner Spec_cache) installs
   one so serve-path layers pick up tuned specs without any layer code
   change; the tuner itself always calls [create] directly, so resolution
   cannot recurse. The hook is an atomic ref: install/clear are safe from
   any domain. *)

let spec_resolver :
    (config -> string -> (config * string) option) option Atomic.t =
  Atomic.make None

let set_spec_resolver f = Atomic.set spec_resolver (Some f)
let clear_spec_resolver () = Atomic.set spec_resolver None

let create_resolved cfg spec_string =
  match Atomic.get spec_resolver with
  | None -> create cfg spec_string
  | Some resolve -> (
    match resolve cfg spec_string with
    | Some (cfg', spec') -> create cfg' spec'
    | None -> create cfg spec_string)

let config t = t.cfg
let spec t = Threaded_loop.spec_string t.loop

(* ---- layout helpers ----
   Each helper copies whole [rows x cols] windows between a logical
   row-major tensor and blocked storage by flat offset; stores quantize
   to the destination's dtype. *)

let copy_window ~(src : Tensor.t) ~soff ~sld ~(dst : Tensor.t) ~doff ~dld ~rows
    ~cols =
  let sdata = src.Tensor.data and ddata = dst.Tensor.data in
  (* only a BF16 store of off-grid values rounds; the test is hoisted so
     the plain copy stays free of boxing *)
  let rounding =
    Datatype.equal dst.Tensor.dtype Datatype.BF16
    && not (Datatype.equal src.Tensor.dtype Datatype.BF16)
  in
  for i = 0 to rows - 1 do
    let s = soff + (i * sld) and d = doff + (i * dld) in
    if rounding then
      for j = 0 to cols - 1 do
        Bigarray.Array1.unsafe_set ddata (d + j)
          (Bf16.round (Bigarray.Array1.unsafe_get sdata (s + j)))
      done
    else
      for j = 0 to cols - 1 do
        Bigarray.Array1.unsafe_set ddata (d + j)
          (Bigarray.Array1.unsafe_get sdata (s + j))
      done
  done

let pack_a c a =
  assert (Tensor.dims a = [| c.m; c.k |]);
  let p = Tensor.create c.dtype [| mb c; kb c; c.bm; c.bk |] in
  for im = 0 to mb c - 1 do
    for ik = 0 to kb c - 1 do
      copy_window ~src:a
        ~soff:((im * c.bm * c.k) + (ik * c.bk))
        ~sld:c.k ~dst:p
        ~doff:(((im * kb c) + ik) * c.bm * c.bk)
        ~dld:c.bk ~rows:c.bm ~cols:c.bk
    done
  done;
  p

let pack_b c b =
  assert (Tensor.dims b = [| c.k; c.n |]);
  if c.vnni_b then begin
    let v = Datatype.vnni_factor c.dtype in
    (* [Nb][Kb][bk/v][bn][v]: element (p, j) of a block sits at row p/v,
       column j*v + p mod v *)
    let p = Tensor.create c.dtype [| nb c; kb c; c.bk / v; c.bn; v |] in
    for in_ = 0 to nb c - 1 do
      for ik = 0 to kb c - 1 do
        let blk = ((in_ * kb c) + ik) * c.bk * c.bn in
        for q = 0 to c.bk - 1 do
          copy_window ~src:b
            ~soff:((((ik * c.bk) + q) * c.n) + (in_ * c.bn))
            ~sld:1 ~dst:p
            ~doff:(blk + (q / v * c.bn * v) + (q mod v))
            ~dld:v ~rows:c.bn ~cols:1
        done
      done
    done;
    p
  end
  else begin
    let p = Tensor.create c.dtype [| nb c; kb c; c.bk; c.bn |] in
    for in_ = 0 to nb c - 1 do
      for ik = 0 to kb c - 1 do
        copy_window ~src:b
          ~soff:((ik * c.bk * c.n) + (in_ * c.bn))
          ~sld:c.n ~dst:p
          ~doff:(((in_ * kb c) + ik) * c.bk * c.bn)
          ~dld:c.bn ~rows:c.bk ~cols:c.bn
      done
    done;
    p
  end

(* C blocks [Nb][Mb][bm][bn] <-> logical [M][N] *)
let iter_c_blocks c f =
  for in_ = 0 to nb c - 1 do
    for im = 0 to mb c - 1 do
      f ~logical:((im * c.bm * c.n) + (in_ * c.bn))
        ~blocked:(((in_ * mb c) + im) * c.bm * c.bn)
    done
  done

let pack_c c t =
  assert (Tensor.dims t = [| c.m; c.n |]);
  let p = Tensor.create Datatype.F32 [| nb c; mb c; c.bm; c.bn |] in
  iter_c_blocks c (fun ~logical ~blocked ->
      copy_window ~src:t ~soff:logical ~sld:c.n ~dst:p ~doff:blocked ~dld:c.bn
        ~rows:c.bm ~cols:c.bn);
  p

let unpack_c c t =
  let u = Tensor.create Datatype.F32 [| c.m; c.n |] in
  iter_c_blocks c (fun ~logical ~blocked ->
      copy_window ~src:t ~soff:blocked ~sld:c.bn ~dst:u ~doff:logical ~dld:c.n
        ~rows:c.bm ~cols:c.bn);
  u

let alloc_c ?(dtype = Datatype.F32) c =
  Tensor.create dtype [| nb c; mb c; c.bm; c.bn |]

(* ---- execution (the paper's Listing 1 body) ---- *)

let block_elems_b c =
  (* elements per [ik] step of B, both layouts *)
  c.bk * c.bn

(* logical data moved once per run: A + B in dtype, C in f32 *)
let traffic_bytes c =
  let dt = Datatype.bytes c.dtype in
  float_of_int (((c.m * c.k) + (c.k * c.n)) * dt)
  +. float_of_int (c.m * c.n * 4)

let instance_of t =
  let c = t.cfg in
  Printf.sprintf "%dx%dx%d %s %s" c.m c.n c.k (Datatype.to_string c.dtype)
    (Threaded_loop.spec_string t.loop)

let run ?nthreads ?post t ~a ~b ~c =
  let cfg = t.cfg in
  let v = Datatype.vnni_factor cfg.dtype in
  (* A blocked [Mb][Kb][bm][bk] (blocks bk apart in a row, [bm*bk] between
     batch steps) or logical [M][K] read in place (leading dimension K,
     [bk] between batch steps); either way an [im] block row spans
     [bm*K] elements *)
  let lda, stride_a =
    match Tensor.dims a with
    | [| m; k |] when m = cfg.m && k = cfg.k -> (cfg.k, cfg.bk)
    | [| mb'; kb'; bm; bk |]
      when mb' = mb cfg && kb' = kb cfg && bm = cfg.bm && bk = cfg.bk ->
      (cfg.bk, cfg.bm * cfg.bk)
    | _ -> invalid_arg "Gemm.run: A must be logical [M][K] or blocked [Mb][Kb][bm][bk]"
  in
  if Tensor.numel b <> cfg.k * cfg.n || Tensor.numel c <> cfg.m * cfg.n then
    invalid_arg "Gemm.run: B or C does not match the config";
  let a_row = cfg.k * cfg.bm in
  let ldb = if cfg.vnni_b then cfg.bn * v else cfg.bn in
  let stride_b = block_elems_b cfg in
  let b_row = cfg.k * cfg.bn in
  let c_row = cfg.m * cfg.bn and c_blk = cfg.bm * cfg.bn in
  let body ind =
    let ik = ind.(0) and im = ind.(1) and in_ = ind.(2) in
    let brcount = min cfg.k_step (kb cfg - ik) in
    let c_off = (in_ * c_row) + (im * c_blk) in
    let ker = if ik = 0 then t.ker_first else t.ker_acc in
    Brgemm.exec_flat ker ~a
      ~a_off:((im * a_row) + (ik * stride_a))
      ~lda ~b
      ~b_off:((in_ * b_row) + (ik * stride_b))
      ~ldb ~c ~c_off ~ldc:cfg.bn ~stride_a ~stride_b ~count:brcount;
    (* fused post-op on the finished C block (bias, activation, ...) *)
    match post with
    | Some f when ik + brcount >= kb cfg ->
      f ~im ~in_
        ~c_block:
          (Tensor.view_flat c ~off:c_off ~rows:cfg.bm ~cols:cfg.bn ~ld:cfg.bn)
    | _ -> ()
  in
  if not (Telemetry.Registry.enabled ()) then
    Threaded_loop.run ?nthreads t.loop body
  else begin
    let t0 = Telemetry.Clock.now_ns () in
    Threaded_loop.run ?nthreads t.loop body;
    Telemetry.Registry.record_kernel ~kind:"gemm" ~instance:(instance_of t)
      ~flops:(flops cfg) ~bytes:(traffic_bytes cfg)
      ~seconds:(Telemetry.Clock.elapsed_s ~since:t0)
  end

let run_logical ?nthreads t ~a ~b =
  let cfg = t.cfg in
  let c = alloc_c cfg in
  run ?nthreads t ~a:(Tensor.on_grid a cfg.dtype) ~b:(pack_b cfg b) ~c;
  unpack_c cfg c
