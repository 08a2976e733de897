(* TreatySan: planted violations must be caught, legitimate behaviour must
   stay clean, and chaos runs under the sanitizer must come out spotless. *)

open Treaty_core
module Sim = Treaty_sim.Sim
module San = Treaty_util.Sanitizer
module Aead = Treaty_crypto.Aead
module Taint = Treaty_crypto.Taint
module Net = Treaty_netsim.Net

let tx coord seq = { Types.coord; seq }

let mk_locks ?(timeout_ns = 1_000_000) sim =
  let enclave =
    Treaty_tee.Enclave.create sim ~mode:Treaty_tee.Enclave.Native
      ~cost:Treaty_sim.Costmodel.default ~cores:4 ~node_id:1
      ~code_identity:"san"
  in
  Lock_table.create ~sanitize:true sim ~enclave ~timeout_ns

let lock_leak () =
  San.reset ();
  let sim = Sim.create () in
  Sim.run sim (fun () ->
      let lt = mk_locks sim in
      Lock_table.txn_begin lt ~owner:(tx 1 1);
      Lock_table.txn_begin lt ~owner:(tx 1 2);
      ignore (Lock_table.acquire lt ~owner:(tx 1 1) ~key:"leaked" Lock_table.Write);
      ignore (Lock_table.acquire lt ~owner:(tx 1 2) ~key:"clean" Lock_table.Read);
      (* One transaction ends properly, the other leaks its lockset. *)
      Lock_table.txn_end lt ~owner:(tx 1 2);
      Lock_table.leak_check lt);
  Alcotest.(check int) "one leak" 1 (San.count San.Lock_leak);
  Alcotest.(check bool) "leak is a violation" true (San.violations () > 0)

let lock_zombie () =
  San.reset ();
  let sim = Sim.create () in
  Sim.run sim (fun () ->
      let lt = mk_locks sim in
      Lock_table.txn_begin lt ~owner:(tx 1 7);
      ignore (Lock_table.acquire lt ~owner:(tx 1 7) ~key:"k" Lock_table.Write);
      Lock_table.txn_end lt ~owner:(tx 1 7);
      (* Acquisition after txn_end: the transaction is dead — zombie. *)
      ignore (Lock_table.acquire lt ~owner:(tx 1 7) ~key:"k2" Lock_table.Read);
      Alcotest.(check int) "zombie caught" 1 (San.count San.Lock_zombie);
      (* A fresh txn_begin under the same txid makes it live again (a
         participant may legitimately re-begin after a late-delivered op). *)
      Lock_table.txn_begin lt ~owner:(tx 1 7);
      ignore (Lock_table.acquire lt ~owner:(tx 1 7) ~key:"k3" Lock_table.Read);
      Alcotest.(check int) "no new zombie" 1 (San.count San.Lock_zombie);
      Lock_table.txn_end lt ~owner:(tx 1 7))

let conflict_is_warning () =
  San.reset ();
  let sim = Sim.create () in
  Sim.run sim (fun () ->
      let lt = mk_locks sim in
      Lock_table.txn_begin lt ~owner:(tx 1 1);
      Lock_table.txn_begin lt ~owner:(tx 1 2);
      ignore (Lock_table.acquire lt ~owner:(tx 1 1) ~key:"a" Lock_table.Write);
      ignore (Lock_table.acquire lt ~owner:(tx 1 2) ~key:"b" Lock_table.Write);
      (* Hold-and-wait that times out: deadlock-suspect, but resolving
         deadlocks by timeout is the paper's strategy — warning only. *)
      (match Lock_table.acquire lt ~owner:(tx 1 2) ~key:"a" Lock_table.Write with
      | Error `Timeout -> ()
      | Ok () -> Alcotest.fail "expected timeout");
      Lock_table.txn_end lt ~owner:(tx 1 1);
      Lock_table.txn_end lt ~owner:(tx 1 2));
  Alcotest.(check int) "conflict recorded" 1 (San.count San.Lock_conflict);
  Alcotest.(check int) "but not a violation" 0 (San.violations ())

let fiber_stall () =
  San.reset ();
  let sim = Sim.create () in
  Sim.enable_fiber_watchdog sim ~threshold_ns:1_000_000 ~report:(fun d ->
      San.record San.Fiber_stall d);
  Sim.run sim (fun () ->
      let starved : unit Sim.ivar = Sim.ivar () in
      Sim.spawn sim (fun () -> Sim.read sim starved);
      (* Keep the clock moving well past the threshold so the periodic
         watchdog scans run; the parked fiber is never woken. *)
      for _ = 1 to 10 do
        Sim.sleep sim 500_000
      done;
      Alcotest.(check int) "stall flagged once" 1 (San.count San.Fiber_stall);
      Sim.fill starved ());
  Alcotest.(check bool) "stall is a violation" true (San.violations () > 0)

let no_stall_under_threshold () =
  San.reset ();
  let sim = Sim.create () in
  Sim.enable_fiber_watchdog sim ~threshold_ns:100_000_000 ~report:(fun d ->
      San.record San.Fiber_stall d);
  Sim.run sim (fun () ->
      let v : unit Sim.ivar = Sim.ivar () in
      Sim.spawn sim (fun () -> Sim.read sim v);
      for _ = 1 to 10 do
        Sim.sleep sim 500_000
      done;
      Sim.fill v ());
  Alcotest.(check int) "no stall" 0 (San.count San.Fiber_stall)

let plaintext_to_transport () =
  San.reset ();
  let sim = Sim.create () in
  Sim.run sim (fun () ->
      let net = Net.create sim Treaty_sim.Costmodel.default in
      Net.register net ~id:1 ~live:(fun () -> true) (fun _ -> ());
      Net.register net ~id:2 ~live:(fun () -> true) (fun _ -> ());
      Taint.enable ();
      let key = Aead.key_of_string "test-key" in
      let iv = String.make Aead.iv_size '\000' in
      (* Built at runtime so the buffer is a fresh heap string, as real
         payloads are. *)
      let pt = String.concat "-" [ "top"; "secret"; "value" ] in
      let ct, _mac = Aead.seal key ~iv pt in
      (* The sealed form crossing the network is the correct flow. *)
      Net.send net ~src:1 ~dst:2 ct;
      Alcotest.(check int) "ciphertext is fine" 0 (San.count San.Plaintext);
      (* The registered plaintext itself reaching the transport is the bug
         TreatySan exists to catch. *)
      Net.send net ~src:1 ~dst:2 pt;
      Alcotest.(check int) "plaintext caught" 1 (San.count San.Plaintext);
      Taint.disable ());
  Alcotest.(check bool) "plaintext is a violation" true (San.violations () > 0)

let mk_pool sim =
  let enclave =
    Treaty_tee.Enclave.create sim ~mode:Treaty_tee.Enclave.Native
      ~cost:Treaty_sim.Costmodel.default ~cores:4 ~node_id:1
      ~code_identity:"san"
  in
  Treaty_memalloc.Mempool.create ~sanitize:true enclave

let mempool_leak () =
  San.reset ();
  let sim = Sim.create () in
  Sim.run sim (fun () ->
      let module M = Treaty_memalloc.Mempool in
      let pool = mk_pool sim in
      let kept = M.alloc pool M.Host 256 in
      let freed = M.alloc pool M.Host 256 in
      M.free pool freed;
      (* One buffer still outstanding at quiescence: the wire path dropped
         it without returning it to the pool. *)
      M.leak_check pool ~what:"test pool";
      ignore kept);
  Alcotest.(check int) "leak caught" 1 (San.count San.Buf_leak);
  Alcotest.(check bool) "leak is a violation" true (San.violations () > 0)

let mempool_no_false_leak () =
  San.reset ();
  let sim = Sim.create () in
  Sim.run sim (fun () ->
      let module M = Treaty_memalloc.Mempool in
      let pool = mk_pool sim in
      let b = M.alloc pool M.Host 4096 in
      M.free pool b;
      M.leak_check pool ~what:"test pool");
  Alcotest.(check int) "balanced pool is clean" 0 (San.count San.Buf_leak)

let mempool_double_free () =
  San.reset ();
  let sim = Sim.create () in
  Sim.run sim (fun () ->
      let module M = Treaty_memalloc.Mempool in
      let pool = mk_pool sim in
      let b = M.alloc pool M.Host 128 in
      M.free pool b;
      match M.free pool b with
      | () -> Alcotest.fail "double free must raise"
      | exception Invalid_argument _ -> ());
  Alcotest.(check int) "double free recorded" 1 (San.count San.Buf_double_free);
  Alcotest.(check bool) "double free is a violation" true (San.violations () > 0)

(* One participant slice driven over eRPC by hand: node 1 stands in for the
   coordinator of transaction (1, 9001) and node 2 is its participant. The
   long sweep interval keeps the background sweeps from cleaning up behind
   the handlers until the checks right after the race have run. *)
let with_participant ?(tune = Fun.id) ?(keys = [ "race:k" ]) f =
  San.reset ();
  let sim = Sim.create () in
  Sim.run sim (fun () ->
      let profile = { Config.treaty_enc_stab with Config.sanitize = true } in
      let config =
        tune
          {
            (Config.with_profile Config.default profile) with
            Config.dedup_ttl_ns = 200_000_000;
            sweep_interval_ns = 2_000_000_000;
          }
      in
      match Cluster.create sim config () with
      | Error m -> Alcotest.failf "bootstrap: %s" m
      | Ok cluster ->
          let coord = Cluster.node cluster 0 and part = Cluster.node cluster 1 in
          let call kind ~op_id payload =
            Treaty_rpc.Erpc.call (Node.rpc coord) ~dst:(Node.node_id part) ~kind
              ~coord:(Node.node_id coord) ~tx_seq:9001 ~op_id
              ~timeout_ns:1_000_000_000 payload
          in
          List.iteri
            (fun i key ->
              match
                call Txn_wire.k_txn_op ~op_id:(i + 1)
                  (Txn_wire.encode_ops [ Txn_wire.Put (key, "v") ])
              with
              | Ok reply when Result.is_ok (Txn_wire.decode_op_reply reply) -> ()
              | _ -> Alcotest.fail "participant refused the write")
            keys;
          let prepare_reply = f sim cluster part call in
          (* [f] may have crashed and restarted the participant. *)
          let part = Cluster.node cluster 1 in
          (* A vote after the abort must be a no: the slice is gone. *)
          (match Txn_wire.decode_prepare_ack prepare_reply with
          | Error (Txn_wire.Refused Txn_wire.St_unknown_tx) -> ()
          | Ok _ -> Alcotest.fail "participant voted yes after the abort"
          | Error _ -> Alcotest.fail "expected St_unknown_tx");
          Alcotest.(check int) "no prepared entry" 0
            (List.length (Treaty_storage.Engine.prepared_txs (Node.engine part)));
          Alcotest.(check int) "no held lock" 0
            (Lock_table.locked_keys (Node.locks part));
          Alcotest.(check int) "no zombie acquisition" 0
            (San.count San.Lock_zombie);
          Sim.sleep sim 3_000_000_000;
          (match Cluster.check_quiescent cluster with
          | Ok () -> ()
          | Error m -> Alcotest.failf "residual state: %s" m);
          (match Cluster.sanitize_check cluster with
          | Ok () -> ()
          | Error m -> Alcotest.failf "sanitizer: %s" m);
          Cluster.shutdown cluster)

(* Poll every 10 us, for at most 100 ms of simulated time. *)
let rec await sim ~what cond n =
  if n = 0 then Alcotest.failf "%s never happened" what
  else if not (cond ()) then begin
    Sim.sleep sim 10_000;
    await sim ~what cond (n - 1)
  end

(* Send the prepare from its own fiber; the ivar receives its reply. *)
let prepare_async sim call =
  let vote = Sim.ivar () in
  Sim.spawn sim (fun () ->
      match call Txn_wire.k_prepare ~op_id:999_998 "" with
      | Ok reply -> Sim.fill vote reply
      | Error _ -> Alcotest.fail "prepare call failed");
  vote

(* Send the abort and wait until the participant has ended the slice. *)
let abort_now sim part call =
  Sim.spawn sim (fun () -> ignore (call Txn_wire.k_abort ~op_id:1_000_000 ""));
  await sim ~what:"the abort"
    (fun () -> (Node.residual_state part).Node.res_part_txs = 0)
    10_000

let abort_overtakes_prepare_lock_wait () =
  (* OCC takes its write locks at prepare. Another transaction holds the
     first key, so the prepare parks in the lock wait; the abort ends the
     slice there, and the lock is granted to the dead slice afterwards. *)
  with_participant
    ~tune:(fun c -> { c with Config.isolation = Types.Optimistic })
    ~keys:[ "race:a"; "race:b" ]
    (fun sim _cluster part call ->
      let locks = Node.locks part and blocker = tx 99 1 in
      Lock_table.txn_begin locks ~owner:blocker;
      ignore (Lock_table.acquire locks ~owner:blocker ~key:"race:a" Lock_table.Write);
      let waits0 = (Lock_table.stats locks).Lock_table.waits in
      let vote = prepare_async sim call in
      await sim ~what:"the prepare's lock wait"
        (fun () -> (Lock_table.stats locks).Lock_table.waits > waits0)
        10_000;
      abort_now sim part call;
      Lock_table.txn_end locks ~owner:blocker;
      Sim.read sim vote)

let abort_overtakes_prepare_wal_write () =
  (* A 5 ms SSD write keeps the prepare inside its WAL append, before the
     engine registers it; the abort then finds nothing to resolve, and the
     prepare must resolve its own record once it wakes. *)
  with_participant
    ~tune:(fun c ->
      { c with Config.cost = { c.Config.cost with ssd_write_base_ns = 5_000_000 } })
    (fun sim _cluster part call ->
      let engine = Node.engine part in
      let prepares0 = (Treaty_storage.Engine.stats engine).prepares in
      let vote = prepare_async sim call in
      await sim ~what:"the prepare's WAL append"
        (fun () -> (Treaty_storage.Engine.stats engine).prepares > prepares0)
        10_000;
      Alcotest.(check (list (pair int int))) "not registered yet" []
        (Treaty_storage.Engine.prepared_txs engine);
      abort_now sim part call;
      Sim.read sim vote)

let prepare_after_abort () =
  with_participant (fun _sim _cluster _part call ->
      (match call Txn_wire.k_abort ~op_id:1_000_000 "" with
      | Ok _ -> ()
      | Error _ -> Alcotest.fail "abort call failed");
      match call Txn_wire.k_prepare ~op_id:999_998 "" with
      | Ok reply -> reply
      | Error _ -> Alcotest.fail "prepare call failed")

let abort_during_recovery_relock () =
  (* The participant crashes holding a prepared slice of 64 keys and the
     coordinator's abort is retried every few microseconds while it
     recovers, so the abort reaches the node while recovery re-locks the
     slice. Every acquire there yields; if the 2PC handlers were already
     registered, the abort would end the transaction mid-loop and the loop
     would then lock the remaining keys for good. *)
  let keys = List.init 64 (Printf.sprintf "relock:k%02d") in
  with_participant ~keys (fun sim cluster _part call ->
      (match call Txn_wire.k_prepare ~op_id:999_998 "" with
      | Ok reply when Result.is_ok (Txn_wire.decode_prepare_ack reply) -> ()
      | _ -> Alcotest.fail "participant did not vote yes");
      Cluster.crash_node cluster 1;
      let restarted = ref false in
      Sim.spawn sim (fun () ->
          (match Cluster.restart_node cluster 1 with
          | Ok () -> ()
          | Error m -> Alcotest.failf "restart: %s" m);
          restarted := true);
      let coord = Cluster.node cluster 0 in
      while not !restarted do
        ignore
          (Treaty_rpc.Erpc.call (Node.rpc coord) ~dst:2 ~kind:Txn_wire.k_abort
             ~coord:(Node.node_id coord) ~tx_seq:9001 ~op_id:1_000_000
             ~timeout_ns:2_000 "")
      done;
      (match call Txn_wire.k_abort ~op_id:1_000_000 "" with
      | Ok _ -> ()
      | Error _ -> Alcotest.fail "abort call failed");
      match call Txn_wire.k_prepare ~op_id:999_999 "" with
      | Ok reply -> reply
      | Error _ -> Alcotest.fail "prepare call failed")

let chaos_sanitize_clean () =
  (* run_seed already fails a seed on sanitizer violations; assert the
     collector really is empty afterwards as well. *)
  for seed = 1 to 3 do
    (match Treaty_chaos.Chaos.run_seed ~seed () with
    | Ok _ -> ()
    | Error m -> Alcotest.failf "seed %d failed: %s" seed m);
    Alcotest.(check int)
      (Printf.sprintf "seed %d sanitizer-clean" seed)
      0
      (San.violations ())
  done

let suite =
  [
    Alcotest.test_case "planted lock leak is caught" `Quick lock_leak;
    Alcotest.test_case "zombie acquisition is caught" `Quick lock_zombie;
    Alcotest.test_case "lock conflict is warning only" `Quick conflict_is_warning;
    Alcotest.test_case "starved fiber is caught" `Quick fiber_stall;
    Alcotest.test_case "fast fibers stay unflagged" `Quick no_stall_under_threshold;
    Alcotest.test_case "plaintext reaching transport is caught" `Quick
      plaintext_to_transport;
    Alcotest.test_case "planted mempool leak is caught" `Quick mempool_leak;
    Alcotest.test_case "balanced mempool stays clean" `Quick mempool_no_false_leak;
    Alcotest.test_case "mempool double free is caught" `Quick mempool_double_free;
    Alcotest.test_case "prepare after its abort is refused" `Quick
      prepare_after_abort;
    Alcotest.test_case "chaos runs sanitizer-clean" `Quick chaos_sanitize_clean;
    Alcotest.test_case "abort overtakes a prepare's lock wait" `Quick
      abort_overtakes_prepare_lock_wait;
    Alcotest.test_case "abort overtakes a prepare's WAL write" `Quick
      abort_overtakes_prepare_wal_write;
    Alcotest.test_case "abort during recovery's re-lock" `Quick
      abort_during_recovery_relock;
  ]
