module View = Tensor.View

type b_layout = Flat | Vnni

type config = {
  m : int;
  n : int;
  k : int;
  dtype : Datatype.t;
  b_layout : b_layout;
  beta : float;
}

let make_config ?(dtype = Datatype.F32) ?(b_layout = Flat) ?(beta = 1.0) ~m ~n
    ~k () =
  assert (m > 0 && n > 0 && k > 0);
  assert (beta = 0.0 || beta = 1.0);
  (match b_layout with
  | Vnni -> assert (k mod Datatype.vnni_factor dtype = 0)
  | Flat -> ());
  { m; n; k; dtype; b_layout; beta }

let config_to_string c =
  Printf.sprintf "brgemm_%dx%dx%d_%s_%s_beta%g" c.m c.n c.k
    (Datatype.to_string c.dtype)
    (match c.b_layout with Flat -> "flat" | Vnni -> "vnni")
    c.beta

(* Kernels are stateless (safe to share across threads from the dispatch
   cache); the accumulator array, which holds the C tile between batch
   steps, is leased from the calling thread's scratch arena per
   invocation, so after warm-up the hot path allocates nothing.
   [rlabel] is the kernel's flight-recorder label, interned once at
   compile so the begin/end events in the exec paths stay
   allocation-free. *)
type kernel = { cfg : config; rlabel : int }

let compile cfg =
  { cfg; rlabel = Telemetry.Recorder.intern (config_to_string cfg) }

let config_of k = k.cfg

(* The kernel body works on raw operands — a buffer, the element offset
   of the block's origin and its leading dimension — so [exec_flat]
   builds no [View] record per call. *)

let load_acc ker acc (cdata : Tensor.buffer) coff cld =
  let { m; n; beta; _ } = ker.cfg in
  if beta = 0.0 then Array.fill acc 0 (m * n) 0.0
  else
    for i = 0 to m - 1 do
      let crow = coff + (i * cld) and arow = i * n in
      for j = 0 to n - 1 do
        Array.unsafe_set acc (arow + j)
          (Bigarray.Array1.unsafe_get cdata (crow + j))
      done
    done

(* the store quantizes to C's dtype; the dtype dispatch is hoisted out of
   the loop so the F32 path stays free of boxing *)
let store_acc ker acc (cdata : Tensor.buffer) coff cld cdtype =
  let { m; n; _ } = ker.cfg in
  match cdtype with
  | Datatype.F32 ->
    for i = 0 to m - 1 do
      let crow = coff + (i * cld) and arow = i * n in
      for j = 0 to n - 1 do
        Bigarray.Array1.unsafe_set cdata (crow + j)
          (Array.unsafe_get acc (arow + j))
      done
    done
  | _ ->
    for i = 0 to m - 1 do
      let crow = coff + (i * cld) and arow = i * n in
      for j = 0 to n - 1 do
        Bigarray.Array1.unsafe_set cdata (crow + j)
          (Datatype.quantize cdtype (Array.unsafe_get acc (arow + j)))
      done
    done

(* One batch step: acc += A x B with A's block at element [abase] of
   [adata] (leading dimension [lda]) and B's at [bbase] of [bdata].

   The register tile described in brgemm.mli: a row's 8-column tile
   stays in float refs for the whole K loop; ocamlopt keeps them unboxed
   as long as they do not escape. Each element still gets its products
   in increasing p, so the sums equal the i-p-j loop's bit for bit.
   Flat is the v = 1 case of the VNNI walk, but it keeps its own body:
   the one-trip r loop makes the F32 kernel ~1.5x slower. *)
let accumulate ker acc (adata : Tensor.buffer) abase lda
    (bdata : Tensor.buffer) bbase ldb =
  let { m; n; k; b_layout; dtype; _ } = ker.cfg in
  let tiles = n / 8 in
  match b_layout with
  | Flat ->
    for i = 0 to m - 1 do
      let arow = abase + (i * lda) and crow = i * n in
      for t = 0 to tiles - 1 do
        let j0 = t * 8 in
        let cj = crow + j0 and bcol = bbase + j0 in
        let c0 = ref (Array.unsafe_get acc cj)
        and c1 = ref (Array.unsafe_get acc (cj + 1))
        and c2 = ref (Array.unsafe_get acc (cj + 2))
        and c3 = ref (Array.unsafe_get acc (cj + 3))
        and c4 = ref (Array.unsafe_get acc (cj + 4))
        and c5 = ref (Array.unsafe_get acc (cj + 5))
        and c6 = ref (Array.unsafe_get acc (cj + 6))
        and c7 = ref (Array.unsafe_get acc (cj + 7)) in
        for p = 0 to k - 1 do
          let av = Bigarray.Array1.unsafe_get adata (arow + p) in
          if av <> 0.0 then begin
            let b = bcol + (p * ldb) in
            c0 := !c0 +. (av *. Bigarray.Array1.unsafe_get bdata b);
            c1 := !c1 +. (av *. Bigarray.Array1.unsafe_get bdata (b + 1));
            c2 := !c2 +. (av *. Bigarray.Array1.unsafe_get bdata (b + 2));
            c3 := !c3 +. (av *. Bigarray.Array1.unsafe_get bdata (b + 3));
            c4 := !c4 +. (av *. Bigarray.Array1.unsafe_get bdata (b + 4));
            c5 := !c5 +. (av *. Bigarray.Array1.unsafe_get bdata (b + 5));
            c6 := !c6 +. (av *. Bigarray.Array1.unsafe_get bdata (b + 6));
            c7 := !c7 +. (av *. Bigarray.Array1.unsafe_get bdata (b + 7))
          end
        done;
        Array.unsafe_set acc cj !c0;
        Array.unsafe_set acc (cj + 1) !c1;
        Array.unsafe_set acc (cj + 2) !c2;
        Array.unsafe_set acc (cj + 3) !c3;
        Array.unsafe_set acc (cj + 4) !c4;
        Array.unsafe_set acc (cj + 5) !c5;
        Array.unsafe_set acc (cj + 6) !c6;
        Array.unsafe_set acc (cj + 7) !c7
      done;
      for j = tiles * 8 to n - 1 do
        let c = ref (Array.unsafe_get acc (crow + j)) and bcol = bbase + j in
        for p = 0 to k - 1 do
          let av = Bigarray.Array1.unsafe_get adata (arow + p) in
          if av <> 0.0 then
            c :=
              !c +. (av *. Bigarray.Array1.unsafe_get bdata (bcol + (p * ldb)))
        done;
        Array.unsafe_set acc (crow + j) !c
      done
    done
  | Vnni ->
    (* B stored as [k/v] rows of [n*v] elements: with p = q*v + r,
       element (p, j) lives at row q, column j*v + r *)
    let v = Datatype.vnni_factor dtype in
    let kq = k / v in
    for i = 0 to m - 1 do
      let arow = abase + (i * lda) and crow = i * n in
      for t = 0 to tiles - 1 do
        let j0 = t * 8 in
        let cj = crow + j0 and bcol = bbase + (j0 * v) in
        let c0 = ref (Array.unsafe_get acc cj)
        and c1 = ref (Array.unsafe_get acc (cj + 1))
        and c2 = ref (Array.unsafe_get acc (cj + 2))
        and c3 = ref (Array.unsafe_get acc (cj + 3))
        and c4 = ref (Array.unsafe_get acc (cj + 4))
        and c5 = ref (Array.unsafe_get acc (cj + 5))
        and c6 = ref (Array.unsafe_get acc (cj + 6))
        and c7 = ref (Array.unsafe_get acc (cj + 7)) in
        for q = 0 to kq - 1 do
          let aq = arow + (q * v) and bq = bcol + (q * ldb) in
          for r = 0 to v - 1 do
            let av = Bigarray.Array1.unsafe_get adata (aq + r) in
            if av <> 0.0 then begin
              let b = bq + r in
              c0 := !c0 +. (av *. Bigarray.Array1.unsafe_get bdata b);
              c1 := !c1 +. (av *. Bigarray.Array1.unsafe_get bdata (b + v));
              c2 :=
                !c2 +. (av *. Bigarray.Array1.unsafe_get bdata (b + (2 * v)));
              c3 :=
                !c3 +. (av *. Bigarray.Array1.unsafe_get bdata (b + (3 * v)));
              c4 :=
                !c4 +. (av *. Bigarray.Array1.unsafe_get bdata (b + (4 * v)));
              c5 :=
                !c5 +. (av *. Bigarray.Array1.unsafe_get bdata (b + (5 * v)));
              c6 :=
                !c6 +. (av *. Bigarray.Array1.unsafe_get bdata (b + (6 * v)));
              c7 :=
                !c7 +. (av *. Bigarray.Array1.unsafe_get bdata (b + (7 * v)))
            end
          done
        done;
        Array.unsafe_set acc cj !c0;
        Array.unsafe_set acc (cj + 1) !c1;
        Array.unsafe_set acc (cj + 2) !c2;
        Array.unsafe_set acc (cj + 3) !c3;
        Array.unsafe_set acc (cj + 4) !c4;
        Array.unsafe_set acc (cj + 5) !c5;
        Array.unsafe_set acc (cj + 6) !c6;
        Array.unsafe_set acc (cj + 7) !c7
      done;
      for j = tiles * 8 to n - 1 do
        let c = ref (Array.unsafe_get acc (crow + j))
        and bcol = bbase + (j * v) in
        for q = 0 to kq - 1 do
          let aq = arow + (q * v) and bq = bcol + (q * ldb) in
          for r = 0 to v - 1 do
            let av = Bigarray.Array1.unsafe_get adata (aq + r) in
            if av <> 0.0 then
              c := !c +. (av *. Bigarray.Array1.unsafe_get bdata (bq + r))
          done
        done;
        Array.unsafe_set acc (crow + j) !c
      done
    done

(* NaN-poison fault site: a fired [`Nan] corrupts c(0,0) after the store,
   modelling a defective kernel. Poison lands at flattened index 0 so
   even a [Sampled _] guard (which always probes index 0) detects it. *)
let poison_site = Fault.site "tpp.brgemm.store"

(* post-store guard over the [rows x cols] C window: runs inside the
   accumulator's protected region so a raised Numeric_error still
   releases the lease; the window's view is built only when the guard is
   on *)
let guard ker (cdata : Tensor.buffer) coff cld cdtype ~rows ~cols =
  (match Fault.fire poison_site with
  | `Nan -> Bigarray.Array1.unsafe_set cdata coff Float.nan
  | `None | `Deny -> ());
  if Tpp_check.mode () <> Tpp_check.Off then
    Tpp_check.finite_2d ~kernel:(config_to_string ker.cfg)
      { View.data = cdata; off = coff; rows; cols; ld = cld; dtype = cdtype }

let check_views ker ~(a : View.t) ~(b : View.t) ~(c : View.t) =
  let { m; n; k; b_layout; dtype; _ } = ker.cfg in
  assert (a.View.rows >= m && a.View.cols >= k);
  (match b_layout with
  | Flat -> assert (b.View.rows >= k && b.View.cols >= n)
  | Vnni ->
    let v = Datatype.vnni_factor dtype in
    assert (b.View.rows >= k / v && b.View.cols >= n * v));
  assert (c.View.rows >= m && c.View.cols >= n)

(* The stride/offset body: batch step [i] reads A at [aoff + stride_a*i]
   and B at [boff + stride_b*i], or at [aoff + offs_a.(i)] and
   [boff + offs_b.(i)] when offset arrays are given. *)
let run_batch ker ~adata ~aoff ~lda ~bdata ~boff ~ldb ~cdata ~coff ~ldc ~cdtype
    ~crows ~ccols ~stride_a ~stride_b ~offs_a ~offs_b ~count =
  Telemetry.Recorder.emit Telemetry.Recorder.Kernel_begin ~label:ker.rlabel
    ~a:count ~b:0;
  let ar = Scratch.arena () in
  let acc = Scratch.lease ar (ker.cfg.m * ker.cfg.n) in
  let by_offset = Array.length offs_a > 0 in
  (* try/with (not Fun.protect) keeps the no-exception path allocation-free *)
  (try
     load_acc ker acc cdata coff ldc;
     for i = 0 to count - 1 do
       let oa = if by_offset then Array.unsafe_get offs_a i else i * stride_a in
       let ob = if by_offset then Array.unsafe_get offs_b i else i * stride_b in
       accumulate ker acc adata (aoff + oa) lda bdata (boff + ob) ldb
     done;
     store_acc ker acc cdata coff ldc cdtype;
     guard ker cdata coff ldc cdtype ~rows:crows ~cols:ccols
   with e ->
     Scratch.release ar acc;
     Telemetry.Recorder.emit Telemetry.Recorder.Kernel_end ~label:ker.rlabel
       ~a:count ~b:1;
     raise e);
  Scratch.release ar acc;
  Telemetry.Recorder.emit Telemetry.Recorder.Kernel_end ~label:ker.rlabel
    ~a:count ~b:0

let exec_stride ker ~a ~b ~c ~stride_a ~stride_b ~count =
  check_views ker ~a ~b ~c;
  run_batch ker ~adata:a.View.data ~aoff:a.View.off ~lda:a.View.ld
    ~bdata:b.View.data ~boff:b.View.off ~ldb:b.View.ld ~cdata:c.View.data
    ~coff:c.View.off ~ldc:c.View.ld ~cdtype:c.View.dtype ~crows:c.View.rows
    ~ccols:c.View.cols ~stride_a ~stride_b ~offs_a:[||] ~offs_b:[||] ~count

let exec_offsets ker ~a ~b ~c ~offs_a ~offs_b =
  assert (Array.length offs_a = Array.length offs_b);
  check_views ker ~a ~b ~c;
  run_batch ker ~adata:a.View.data ~aoff:a.View.off ~lda:a.View.ld
    ~bdata:b.View.data ~boff:b.View.off ~ldb:b.View.ld ~cdata:c.View.data
    ~coff:c.View.off ~ldc:c.View.ld ~cdtype:c.View.dtype ~crows:c.View.rows
    ~ccols:c.View.cols ~stride_a:0 ~stride_b:0 ~offs_a ~offs_b
    ~count:(Array.length offs_a)

(* [rows x cols] block with leading dimension [ld] at [off], repeated
   [count] times [stride] apart, must lie inside [t]'s buffer *)
let check_flat what (t : Tensor.t) ~off ~rows ~cols ~ld ~stride ~count =
  let last = off + (max 0 (count - 1) * stride) + ((rows - 1) * ld) + cols in
  if off < 0 || stride < 0 || ld < cols || last > Bigarray.Array1.dim t.Tensor.data
  then invalid_arg ("Brgemm.exec_flat: " ^ what ^ " block outside its tensor")

let exec_flat ker ~(a : Tensor.t) ~a_off ~lda ~(b : Tensor.t) ~b_off ~ldb
    ~(c : Tensor.t) ~c_off ~ldc ~stride_a ~stride_b ~count =
  let { m; n; k; b_layout; dtype; _ } = ker.cfg in
  check_flat "A" a ~off:a_off ~rows:m ~cols:k ~ld:lda ~stride:stride_a ~count;
  (match b_layout with
  | Flat ->
    check_flat "B" b ~off:b_off ~rows:k ~cols:n ~ld:ldb ~stride:stride_b ~count
  | Vnni ->
    let v = Datatype.vnni_factor dtype in
    check_flat "B" b ~off:b_off ~rows:(k / v) ~cols:(n * v) ~ld:ldb
      ~stride:stride_b ~count);
  check_flat "C" c ~off:c_off ~rows:m ~cols:n ~ld:ldc ~stride:0 ~count:1;
  run_batch ker ~adata:a.Tensor.data ~aoff:a_off ~lda ~bdata:b.Tensor.data
    ~boff:b_off ~ldb ~cdata:c.Tensor.data ~coff:c_off ~ldc
    ~cdtype:c.Tensor.dtype ~crows:m ~ccols:n ~stride_a ~stride_b ~offs_a:[||]
    ~offs_b:[||] ~count

let exec_list ker ~ab ~(c : View.t) =
  match ab with
  | [] ->
    (* empty batch: the contraction contributes nothing, so beta = 0 just
       means "zero the C block" — no accumulator round trip *)
    if ker.cfg.beta = 0.0 then
      let { m; n; _ } = ker.cfg in
      for i = 0 to m - 1 do
        for j = 0 to n - 1 do
          View.set c i j 0.0
        done
      done
  | (a0, b0) :: _ ->
    check_views ker ~a:a0 ~b:b0 ~c;
    let count = List.length ab in
    let cdata = c.View.data and coff = c.View.off and ldc = c.View.ld in
    Telemetry.Recorder.emit Telemetry.Recorder.Kernel_begin ~label:ker.rlabel
      ~a:count ~b:0;
    let ar = Scratch.arena () in
    let acc = Scratch.lease ar (ker.cfg.m * ker.cfg.n) in
    (try
       load_acc ker acc cdata coff ldc;
       (* views may come from different buffers *)
       List.iter
         (fun ((a : View.t), (b : View.t)) ->
           accumulate ker acc a.View.data a.View.off a.View.ld b.View.data
             b.View.off b.View.ld)
         ab;
       store_acc ker acc cdata coff ldc c.View.dtype;
       guard ker cdata coff ldc c.View.dtype ~rows:c.View.rows ~cols:c.View.cols
     with e ->
       Scratch.release ar acc;
       Telemetry.Recorder.emit Telemetry.Recorder.Kernel_end ~label:ker.rlabel
         ~a:count ~b:1;
       raise e);
    Scratch.release ar acc;
    Telemetry.Recorder.emit Telemetry.Recorder.Kernel_end ~label:ker.rlabel
      ~a:count ~b:0

let exec ker ~a ~b ~c = exec_stride ker ~a ~b ~c ~stride_a:0 ~stride_b:0 ~count:1

let flops cfg ~count =
  2.0 *. float_of_int cfg.m *. float_of_int cfg.n *. float_of_int cfg.k
  *. float_of_int count
