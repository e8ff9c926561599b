(* Tests for lib/cluster: tensor-parallel sharding bit-identity,
   Load_gen substream splitting, router conservation under chaos with a
   replica quarantine, per-replica EDF ordering through the router,
   exactly-once KV handoff release, and disaggregated-decode identity. *)

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let clean () =
  Telemetry.Registry.reset ();
  Telemetry.Registry.disable ()

let make_llm () =
  let rng = Prng.create 7 in
  Llm.create ~rng ~block:8 Llm.tiny

let bits_equal = Tensor.approx_equal ~tol:0.0
let frozen_now () = 0.0

let mk_req ?(deadline_s = Float.infinity) ~prompt_len ~new_tokens id =
  let vocab = Llm.tiny.Llm.vocab in
  let prompt = Array.init prompt_len (fun i -> (7 + (3 * id) + i) mod vocab) in
  let gen = Array.init new_tokens (fun i -> (11 + (5 * id) + i) mod vocab) in
  Serve.Request.make ~id ~prompt ~gen ~deadline_s ()

let replay_sequential llm (req : Serve.Request.t) =
  let cache = Llm.new_cache llm in
  let first = Llm.prefill llm cache (Llm.embed llm req.Serve.Request.prompt) in
  let outs = ref [ first ] in
  for k = 0 to req.Serve.Request.new_tokens - 2 do
    let e = Llm.embed llm [| req.Serve.Request.gen.(k) |] in
    outs := Llm.decode_step llm cache e :: !outs
  done;
  List.rev !outs

(* ---- tensor-parallel sharding is bit-identical to unsharded ----

   One row per {gated, GELU} model x {contiguous, paged} cache x {1, 2}
   shards. Each row drives [extend_tp] through a 5-token prefill, a
   3-token extension (the prefix-hit suffix shape) and 4 single-token
   steps; every output must equal unsharded [Llm.extend] on the same
   storage policy bit for bit, and the rows must equal [forward_full]
   over the whole 12-token sequence. *)

(* rows [r0, r0+k) of an [n x hidden] tensor *)
let rows x r0 k =
  let h = (Tensor.dims x).(1) in
  Tensor.init Datatype.F32 [| k; h |] (fun i ->
      Tensor.get x [| r0 + i.(0); i.(1) |])

let test_tp_bit_identity () =
  clean ();
  let prompt = [| 3; 11; 7; 29; 1 |] in
  let suffix = [| 40; 9; 12 |] in
  let gen = [| 5; 17; 23; 2 |] in
  let models =
    [ ("gated", Llm.tiny);
      ("gelu", { Llm.tiny with Llm.name = "tiny-gelu"; gated_ffn = false }) ]
  in
  List.iter
    (fun (mname, cfg) ->
      let llm = Llm.create ~rng:(Prng.create 7) ~block:8 cfg in
      let storages =
        [ ("contig", fun () -> Llm.new_cache llm);
          ( "paged",
            fun () ->
              Llm.new_paged_cache llm
                (Kv.Block_manager.create ~block_size:4 ~num_blocks:16
                   ~layers:cfg.Llm.layers ~hidden:cfg.Llm.hidden ()) ) ]
      in
      (* the prefill's last row, the 3 suffix rows, then one row per step *)
      let run extend cache =
        let first = Llm.last_row (extend cache (Llm.embed llm prompt)) in
        let mid = extend cache (Llm.embed llm suffix) in
        first :: mid
        :: Array.to_list
             (Array.map (fun tok -> extend cache (Llm.embed llm [| tok |])) gen)
      in
      let full =
        Llm.forward_full llm
          (Llm.embed llm (Array.concat [ prompt; suffix; gen ]))
      in
      let want_full =
        rows full 4 1 :: rows full 5 3
        :: List.init 4 (fun k -> rows full (8 + k) 1)
      in
      List.iter
        (fun (storage, new_cache) ->
          let want = run (Llm.extend llm) (new_cache ()) in
          List.iter
            (fun shards ->
              let plan =
                match Llm.tp_plan llm ~shards with
                | Ok p -> p
                | Error e -> Alcotest.fail ("tp_plan: " ^ e)
              in
              checki "shards" shards (Llm.tp_shards plan);
              let cache = new_cache () in
              let got = run (Llm.extend_tp plan) cache in
              let row = Printf.sprintf "%s/%s/%d shards" mname storage shards in
              List.iteri
                (fun k ((w, wf), g) ->
                  checkb (Printf.sprintf "%s: output %d = extend" row k) true
                    (bits_equal w g);
                  checkb (Printf.sprintf "%s: output %d = forward_full" row k)
                    true (bits_equal wf g))
                (List.combine (List.combine want want_full) got);
              checki (row ^ ": cache length") 12 (Llm.cache_len cache))
            [ 1; 2 ])
        storages)
    models

let test_tp_plan_rejects_bad_split () =
  clean ();
  let llm = make_llm () in
  (* tiny has 2 heads: 3 shards cannot split them *)
  checkb "3-way split rejected" true
    (match Llm.tp_plan llm ~shards:3 with Ok _ -> false | Error _ -> true)

(* ---- Load_gen.split: deterministic, disjoint, rate-dividing ---- *)

let test_load_gen_split () =
  clean ();
  let cfg =
    { Serve.Load_gen.default with
      Serve.Load_gen.seed = 5; rate_hz = 30.0; duration_s = 2.0 }
  in
  let subs = Serve.Load_gen.split cfg 3 in
  checki "three substreams" 3 (List.length subs);
  List.iter
    (fun (s : Serve.Load_gen.config) ->
      checkb "rate divided" true
        (Float.abs (s.Serve.Load_gen.rate_hz -. (30.0 /. 3.0)) < 1e-9))
    subs;
  let traces =
    List.map (fun s -> Serve.Load_gen.generate s ~vocab:64) subs
  in
  (* global id uniqueness across substreams, and the id lattice holds *)
  let ids = Hashtbl.create 64 in
  List.iteri
    (fun i trace ->
      List.iter
        (fun ((_, r) : float * Serve.Request.t) ->
          checkb "id on substream lattice" true
            (r.Serve.Request.id mod 3 = i);
          checkb "id globally unique" false (Hashtbl.mem ids r.Serve.Request.id);
          Hashtbl.add ids r.Serve.Request.id ())
        trace)
    traces;
  (* deterministic: regenerating any substream gives the same trace,
     independent of the other substreams *)
  let again = List.nth (Serve.Load_gen.split cfg 3) 1 in
  let t1 = Serve.Load_gen.generate (List.nth subs 1) ~vocab:64 in
  let t2 = Serve.Load_gen.generate again ~vocab:64 in
  checki "substream reproducible" (List.length t1) (List.length t2);
  List.iter2
    (fun ((a, ra) : float * Serve.Request.t) ((b, rb) : float * Serve.Request.t) ->
      checkb "same arrival" true (a = b);
      checki "same id" ra.Serve.Request.id rb.Serve.Request.id;
      checkb "same prompt" true (ra.Serve.Request.prompt = rb.Serve.Request.prompt);
      checkb "same gen" true (ra.Serve.Request.gen = rb.Serve.Request.gen))
    t1 t2;
  (* substreams with different indices draw different schedules *)
  let t0 = List.nth traces 0 in
  checkb "substreams differ" true
    (List.length t0 <> List.length t1
    || List.exists2
         (fun ((a, _) : float * Serve.Request.t) ((b, _) : float * Serve.Request.t) ->
           a <> b)
         t0 t1)

(* ---- router conservation under chaos with a quarantine ---- *)

let test_cluster_chaos_conservation () =
  clean ();
  Telemetry.Recorder.set_enabled true;
  let config =
    { Cluster.Chaos.default with Cluster.Chaos.requests = 16 }
  in
  let r = Cluster.Chaos.run ~config () in
  Alcotest.(check (list string)) "no violations" [] r.Cluster.Chaos.violations;
  checkb "faults fired" true (r.Cluster.Chaos.injected > 0);
  checkb "quarantine exercised the reroute path" true
    (r.Cluster.Chaos.rerouted >= 0);
  checki "ledger conserved" r.Cluster.Chaos.submitted
    (r.Cluster.Chaos.finished + r.Cluster.Chaos.rejected
    + r.Cluster.Chaos.cancelled + r.Cluster.Chaos.failed);
  checki "no double release" 0 r.Cluster.Chaos.double_released;
  checki "no identity mismatch" 0 r.Cluster.Chaos.mismatched;
  checki "every ledgered request trace-checked" r.Cluster.Chaos.submitted
    r.Cluster.Chaos.traces_checked;
  (* deterministic: same seed, same ledger *)
  let b = Cluster.Chaos.run ~config () in
  checki "same injected" r.Cluster.Chaos.injected b.Cluster.Chaos.injected;
  checki "same finished" r.Cluster.Chaos.finished b.Cluster.Chaos.finished;
  checki "same rerouted" r.Cluster.Chaos.rerouted b.Cluster.Chaos.rerouted

let test_cluster_chaos_disaggregated () =
  clean ();
  let config =
    { Cluster.Chaos.default with
      Cluster.Chaos.requests = 16; replicas = 2; disaggregate = true }
  in
  let r = Cluster.Chaos.run ~config () in
  Alcotest.(check (list string)) "no violations" [] r.Cluster.Chaos.violations;
  checkb "handoff adoptions happened" true (r.Cluster.Chaos.adopted > 0);
  checki "no double release" 0 r.Cluster.Chaos.double_released;
  checki "no identity mismatch" 0 r.Cluster.Chaos.mismatched

let test_cluster_chaos_sharded () =
  clean ();
  let config =
    { Cluster.Chaos.default with Cluster.Chaos.requests = 12; shards = 2 }
  in
  let r = Cluster.Chaos.run ~config () in
  Alcotest.(check (list string)) "no violations" [] r.Cluster.Chaos.violations;
  checki "no identity mismatch" 0 r.Cluster.Chaos.mismatched;
  checkb "all finished compared" true
    (r.Cluster.Chaos.compared = r.Cluster.Chaos.finished)

(* ---- quarantine conservation outside chaos: no request lost ---- *)

let test_quarantine_reroutes_queued () =
  clean ();
  Telemetry.Registry.enable ();
  let llm = make_llm () in
  let rcfg =
    { Cluster.Router.default_config with
      Cluster.Router.replicas = 2;
      scheduler =
        { Serve.Scheduler.default_config with
          Serve.Scheduler.max_batch = 1; nthreads = Some 1 } }
  in
  let router =
    match Cluster.Router.create ~config:rcfg llm with
    | Ok r -> r
    | Error e -> Alcotest.fail e
  in
  (* round-robin: even ids land on replica 0, odd ids on replica 1 *)
  for id = 0 to 5 do
    checkb "accepted" true
      (Cluster.Router.submit router ~now:0.0
         (mk_req ~prompt_len:3 ~new_tokens:2 id))
  done;
  Cluster.Router.quarantine router 1;
  checkb "replica 1 quarantined" true (Cluster.Router.is_quarantined router 1);
  (* re-routes resubmit without re-bumping serve.submitted: distinct
     requests only, with the moves tallied separately *)
  checki "submitted counts distinct requests" 6
    (Telemetry.Counter.value Serve.Metrics.submitted_name);
  checki "re-routes tallied as resubmissions"
    (Telemetry.Counter.value Cluster.Router.rerouted_name)
    (Telemetry.Counter.value Cluster.Router.resubmitted_name);
  Cluster.Router.drain router ~now:frozen_now;
  let reqs = Cluster.Router.requests router in
  checki "ledger intact" 6 (List.length reqs);
  List.iter
    (fun (r : Serve.Request.t) ->
      checkb
        (Printf.sprintf "request %d finished" r.Serve.Request.id)
        true
        (r.Serve.Request.state = Serve.Request.Finished))
    reqs;
  (* every request decoded bit-identically despite the migration *)
  List.iter
    (fun (r : Serve.Request.t) ->
      let alone = replay_sequential llm r in
      let got = Serve.Request.outputs r in
      checki "output count" (List.length alone) (List.length got);
      List.iter2
        (fun a b -> checkb "bit-identical" true (bits_equal a b))
        alone got)
    reqs;
  List.iter
    (fun p -> checki "pool drained" 0 (Serve.Kv_pool.in_use p))
    (Cluster.Router.pools router)

(* ---- hard kill: in-flight sessions migrate and finish identically ---- *)

let test_hard_fail_migrates_inflight () =
  clean ();
  Telemetry.Registry.enable ();
  let llm = make_llm () in
  let rcfg =
    { Cluster.Router.default_config with
      Cluster.Router.replicas = 2;
      scheduler =
        { Serve.Scheduler.default_config with
          Serve.Scheduler.max_batch = 4; nthreads = Some 1 } }
  in
  let router =
    match Cluster.Router.create ~config:rcfg llm with
    | Ok r -> r
    | Error e -> Alcotest.fail e
  in
  (* round-robin: odd ids land on replica 1 *)
  for id = 0 to 5 do
    checkb "accepted" true
      (Cluster.Router.submit router ~now:0.0
         (mk_req ~prompt_len:3 ~new_tokens:8 id))
  done;
  (* a few steps put replica 1's sessions mid-decode, then kill it *)
  for _ = 1 to 3 do
    ignore (Cluster.Router.step router ~now:frozen_now)
  done;
  let victim = (Cluster.Router.schedulers router).(1) in
  checkb "victim has in-flight sessions" true
    (Serve.Scheduler.active_count victim > 0);
  Cluster.Router.hard_fail router ~now:0.0 1;
  checkb "victim quarantined" true (Cluster.Router.is_quarantined router 1);
  let started =
    Telemetry.Counter.value Cluster.Router.migrations_started_name
  in
  checkb "migrations started" true (started > 0);
  Cluster.Router.drain router ~now:frozen_now;
  checki "migration channel drained" 0 (Cluster.Router.migration_depth router);
  checki "all migrations completed" started
    (Telemetry.Counter.value Cluster.Router.migrations_completed_name);
  let reqs = Cluster.Router.requests router in
  checki "ledger intact" 6 (List.length reqs);
  List.iter
    (fun (r : Serve.Request.t) ->
      checkb
        (Printf.sprintf "request %d finished" r.Serve.Request.id)
        true
        (r.Serve.Request.state = Serve.Request.Finished);
      (* migrated decodes are bit-identical to a solo replay *)
      let alone = replay_sequential llm r in
      let got = Serve.Request.outputs r in
      checki "output count" (List.length alone) (List.length got);
      List.iter2
        (fun a b -> checkb "bit-identical" true (bits_equal a b))
        alone got)
    reqs;
  List.iter
    (fun p -> checki "pool drained" 0 (Serve.Kv_pool.in_use p))
    (Cluster.Router.pools router);
  checki "no double release" 0
    (Telemetry.Counter.value Cluster.Kv_handoff.double_release_name)

(* ---- hard-kill chaos: conservation + completed migrations ---- *)

let test_cluster_chaos_hard_kill () =
  clean ();
  Telemetry.Recorder.set_enabled true;
  let r = Cluster.Chaos.run ~config:Cluster.Chaos.hard_kill () in
  Alcotest.(check (list string)) "no violations" [] r.Cluster.Chaos.violations;
  checkb "migrations completed" true (r.Cluster.Chaos.migrations_completed > 0);
  checki "none vanished in transit" r.Cluster.Chaos.migrations_started
    (r.Cluster.Chaos.migrations_completed + r.Cluster.Chaos.migrations_failed);
  checki "no identity mismatch" 0 r.Cluster.Chaos.mismatched;
  checki "no double release" 0 r.Cluster.Chaos.double_released;
  checki "ledger conserved" r.Cluster.Chaos.submitted
    (r.Cluster.Chaos.finished + r.Cluster.Chaos.rejected
    + r.Cluster.Chaos.cancelled + r.Cluster.Chaos.failed);
  (* trace conservation across the failover: every request leaves a
     complete timeline, and every migrated session's trace joins its
     detach to exactly one import + resume on the survivor *)
  checki "every ledgered request trace-checked" r.Cluster.Chaos.submitted
    r.Cluster.Chaos.traces_checked;
  checkb "migrated sessions traced across the join" true
    (r.Cluster.Chaos.migrated_traced > 0);
  (* deterministic: same seed, same failover *)
  let b = Cluster.Chaos.run ~config:Cluster.Chaos.hard_kill () in
  checki "same migrations" r.Cluster.Chaos.migrations_completed
    b.Cluster.Chaos.migrations_completed;
  checki "same finished" r.Cluster.Chaos.finished b.Cluster.Chaos.finished

(* ---- unquarantine is probe-gated and the replica takes work again ---- *)

let test_unquarantine_probe_rejoin () =
  clean ();
  let llm = make_llm () in
  let rcfg =
    { Cluster.Router.default_config with
      Cluster.Router.replicas = 2;
      scheduler =
        { Serve.Scheduler.default_config with
          Serve.Scheduler.max_batch = 2; nthreads = Some 1 } }
  in
  let router =
    match Cluster.Router.create ~config:rcfg llm with
    | Ok r -> r
    | Error e -> Alcotest.fail e
  in
  for id = 0 to 3 do
    checkb "accepted" true
      (Cluster.Router.submit router ~now:0.0
         (mk_req ~prompt_len:3 ~new_tokens:2 id))
  done;
  Cluster.Router.hard_fail router ~now:0.0 1;
  Cluster.Router.drain router ~now:frozen_now;
  checkb "still quarantined after drain" true
    (Cluster.Router.is_quarantined router 1);
  checkb "probe passes, replica rejoins" true
    (Cluster.Router.unquarantine router 1);
  checkb "no longer quarantined" true
    (not (Cluster.Router.is_quarantined router 1));
  checkb "rejoin is idempotent" true (Cluster.Router.unquarantine router 1);
  (* round-robin again: odd ids must land on the rejoined replica *)
  for id = 4 to 7 do
    checkb "accepted after rejoin" true
      (Cluster.Router.submit router ~now:0.0
         (mk_req ~prompt_len:3 ~new_tokens:2 id))
  done;
  checkb "rejoined replica took work" true
    (Serve.Scheduler.requests (Cluster.Router.schedulers router).(1)
     |> List.exists (fun (r : Serve.Request.t) -> r.Serve.Request.id >= 4));
  Cluster.Router.drain router ~now:frozen_now;
  let reqs = Cluster.Router.requests router in
  checki "ledger conserved across kill + rejoin" 8 (List.length reqs);
  List.iter
    (fun (r : Serve.Request.t) ->
      checkb "finished" true (r.Serve.Request.state = Serve.Request.Finished))
    reqs;
  List.iter
    (fun p -> checki "pool drained" 0 (Serve.Kv_pool.in_use p))
    (Cluster.Router.pools router)

(* ---- EDF ordering holds per replica behind the router ---- *)

let test_edf_per_replica () =
  clean ();
  let llm = make_llm () in
  let rcfg =
    { Cluster.Router.default_config with
      Cluster.Router.replicas = 2;
      scheduler =
        { Serve.Scheduler.default_config with
          Serve.Scheduler.policy = Serve.Scheduler.Edf;
          max_batch = 1;
          nthreads = Some 1 } }
  in
  let router =
    match Cluster.Router.create ~config:rcfg llm with
    | Ok r -> r
    | Error e -> Alcotest.fail e
  in
  (* submit with descending deadlines so FCFS order would be wrong *)
  let n = 8 in
  for id = 0 to n - 1 do
    let deadline_s = 1000.0 -. (10.0 *. float_of_int id) in
    checkb "accepted" true
      (Cluster.Router.submit router ~now:0.0
         (mk_req ~deadline_s ~prompt_len:2 ~new_tokens:1 id))
  done;
  Cluster.Router.drain router ~now:frozen_now;
  Array.iter
    (fun sched ->
      let fin = Serve.Scheduler.finished sched in
      checkb "replica served something" true (fin <> []);
      let deadlines =
        List.map (fun r -> Serve.Request.deadline_abs r) fin
      in
      checkb "finished in EDF order" true
        (List.sort compare deadlines = deadlines))
    (Cluster.Router.schedulers router)

(* ---- KV handoff releases exactly once ---- *)

let test_handoff_exactly_once () =
  clean ();
  Telemetry.Registry.enable ();
  let llm = make_llm () in
  let h = Cluster.Kv_handoff.create ~cap:2 () in
  let cache = Llm.new_cache llm in
  let released = ref 0 in
  let req = mk_req ~prompt_len:2 ~new_tokens:2 0 in
  (match
     Cluster.Kv_handoff.push h ~req ~cache ~release:(fun _ -> incr released)
   with
  | `Ok -> ()
  | `Full -> Alcotest.fail "push refused on empty channel");
  checki "depth" 1 (Cluster.Kv_handoff.depth h);
  let e =
    match Cluster.Kv_handoff.pop h with
    | Some e -> e
    | None -> Alcotest.fail "pop on non-empty channel"
  in
  checki "depth after pop" 0 (Cluster.Kv_handoff.depth h);
  let before =
    Telemetry.Counter.value Cluster.Kv_handoff.double_release_name
  in
  e.Cluster.Kv_handoff.release e.Cluster.Kv_handoff.cache;
  e.Cluster.Kv_handoff.release e.Cluster.Kv_handoff.cache;
  e.Cluster.Kv_handoff.release e.Cluster.Kv_handoff.cache;
  checki "released exactly once" 1 !released;
  checki "double releases counted" 2
    (Telemetry.Counter.value Cluster.Kv_handoff.double_release_name - before);
  (* capacity bound: a full channel refuses and leaves ownership with
     the caller *)
  let push_ok () =
    Cluster.Kv_handoff.push h
      ~req:(mk_req ~prompt_len:2 ~new_tokens:2 1)
      ~cache:(Llm.new_cache llm)
      ~release:(fun _ -> ())
  in
  checkb "1st fits" true (push_ok () = `Ok);
  checkb "2nd fits" true (push_ok () = `Ok);
  checkb "3rd refused" true (push_ok () = `Full)

(* ---- disaggregated serving is bit-identical to solo decoding ---- *)

let test_disaggregated_bit_identity () =
  clean ();
  let llm = make_llm () in
  let rcfg =
    { Cluster.Router.default_config with
      Cluster.Router.replicas = 2;
      disaggregate = true;
      scheduler =
        { Serve.Scheduler.default_config with
          Serve.Scheduler.max_batch = 2; nthreads = Some 1 } }
  in
  let router =
    match Cluster.Router.create ~config:rcfg llm with
    | Ok r -> r
    | Error e -> Alcotest.fail e
  in
  checkb "prefiller present" true (Cluster.Router.prefiller router <> None);
  for id = 0 to 5 do
    checkb "accepted" true
      (Cluster.Router.submit router ~now:0.0
         (mk_req ~prompt_len:(2 + id) ~new_tokens:3 id))
  done;
  Cluster.Router.drain router ~now:frozen_now;
  let reqs = Cluster.Router.requests router in
  checki "all requests tracked" 6 (List.length reqs);
  List.iter
    (fun (r : Serve.Request.t) ->
      checkb "finished" true (r.Serve.Request.state = Serve.Request.Finished);
      let alone = replay_sequential llm r in
      let got = Serve.Request.outputs r in
      checki "output count" (List.length alone) (List.length got);
      List.iter2
        (fun a b -> checkb "bit-identical" true (bits_equal a b))
        alone got)
    reqs;
  checki "handoff drained" 0 (Cluster.Router.handoff_depth router);
  List.iter
    (fun p -> checki "pool drained" 0 (Serve.Kv_pool.in_use p))
    (Cluster.Router.pools router)

(* ---- placement parsing round-trips ---- *)

let test_placement_of_string () =
  clean ();
  let open Cluster.Router in
  checkb "rr" true (placement_of_string "rr" = Some Round_robin);
  checkb "round-robin" true
    (placement_of_string "round-robin" = Some Round_robin);
  checkb "jsq" true (placement_of_string "jsq" = Some Jsq);
  checkb "deadline" true (placement_of_string "deadline" = Some Deadline_aware);
  checkb "junk" true (placement_of_string "nope" = None);
  List.iter
    (fun p ->
      checkb "round-trip" true (placement_of_string (placement_name p) = Some p))
    [ Round_robin; Jsq; Deadline_aware ]

let () =
  Alcotest.run "cluster"
    [
      ( "sharding",
        [
          Alcotest.test_case "tp = unsharded (bit-identical)" `Quick
            test_tp_bit_identity;
          Alcotest.test_case "tp_plan rejects bad split" `Quick
            test_tp_plan_rejects_bad_split;
        ] );
      ( "load-gen",
        [ Alcotest.test_case "split substreams" `Quick test_load_gen_split ] );
      ( "chaos",
        [
          Alcotest.test_case "conservation + quarantine" `Quick
            test_cluster_chaos_conservation;
          Alcotest.test_case "disaggregated" `Quick
            test_cluster_chaos_disaggregated;
          Alcotest.test_case "sharded" `Quick test_cluster_chaos_sharded;
          Alcotest.test_case "hard kill" `Quick test_cluster_chaos_hard_kill;
        ] );
      ( "router",
        [
          Alcotest.test_case "quarantine re-routes queued" `Quick
            test_quarantine_reroutes_queued;
          Alcotest.test_case "hard fail migrates in-flight" `Quick
            test_hard_fail_migrates_inflight;
          Alcotest.test_case "unquarantine probe-gated rejoin" `Quick
            test_unquarantine_probe_rejoin;
          Alcotest.test_case "EDF order per replica" `Quick
            test_edf_per_replica;
          Alcotest.test_case "placement_of_string" `Quick
            test_placement_of_string;
        ] );
      ( "handoff",
        [
          Alcotest.test_case "releases exactly once" `Quick
            test_handoff_exactly_once;
          Alcotest.test_case "disaggregated bit-identity" `Quick
            test_disaggregated_bit_identity;
        ] );
    ]
