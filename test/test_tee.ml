(* TEE model: cost accounting, EPC paging, sealing, quotes, hardware
   counters, and the mempool allocator. *)

module Sim = Treaty_sim.Sim
module Enclave = Treaty_tee.Enclave
module Quote = Treaty_tee.Quote
module Hw_counter = Treaty_tee.Hw_counter
module Mempool = Treaty_memalloc.Mempool
module Costmodel = Treaty_sim.Costmodel

let mk_enclave ?(mode = Enclave.Scone) ?(cost = Costmodel.default) sim =
  Enclave.create sim ~mode ~cost ~cores:4 ~node_id:1 ~code_identity:"test-enclave"

let scone_scaling () =
  let sim = Sim.create () in
  Sim.run sim (fun () ->
      let native = Enclave.create sim ~mode:Enclave.Native ~cost:Costmodel.default ~cores:4 ~node_id:1 ~code_identity:"x" in
      let t0 = Sim.now sim in
      Enclave.compute native 1000;
      let native_ns = Sim.now sim - t0 in
      let scone = mk_enclave sim in
      let t1 = Sim.now sim in
      Enclave.compute scone 1000;
      let scone_ns = Sim.now sim - t1 in
      Alcotest.(check int) "native unscaled" 1000 native_ns;
      Alcotest.(check bool) "scone scaled up" true (scone_ns > native_ns);
      let t2 = Sim.now sim in
      Enclave.compute_storage scone 1000;
      let storage_ns = Sim.now sim - t2 in
      Alcotest.(check bool) "storage factor > cpu factor" true (storage_ns > scone_ns))

let syscall_costs () =
  let sim = Sim.create () in
  Sim.run sim (fun () ->
      let e = mk_enclave sim in
      let s0 = (Enclave.stats e).syscalls in
      Enclave.syscall e ~bytes:4096 ();
      Alcotest.(check int) "syscall counted" (s0 + 1) (Enclave.stats e).syscalls;
      let t0 = Sim.now sim in
      Enclave.world_switch e;
      Alcotest.(check bool) "world switch costs time under scone" true (Sim.now sim > t0))

let epc_paging () =
  let sim = Sim.create () in
  let cost = { Costmodel.default with Costmodel.epc_limit_bytes = 1024 * 1024 } in
  Sim.run sim (fun () ->
      let e = mk_enclave ~cost sim in
      Enclave.alloc_enclave e (512 * 1024);
      Enclave.touch_enclave e (512 * 1024);
      Alcotest.(check int) "no paging within EPC" 0 (Enclave.stats e).page_faults;
      Enclave.alloc_enclave e (2 * 1024 * 1024);
      Enclave.touch_enclave e (512 * 1024);
      Alcotest.(check bool) "paging beyond EPC" true ((Enclave.stats e).page_faults > 0);
      let native = Enclave.create sim ~mode:Enclave.Native ~cost ~cores:4 ~node_id:2 ~code_identity:"x" in
      Enclave.alloc_enclave native (16 * 1024 * 1024);
      Enclave.touch_enclave native (1024 * 1024);
      Alcotest.(check int) "no EPC outside SGX" 0 (Enclave.stats native).page_faults)

let sealing () =
  let sim = Sim.create () in
  Sim.run sim (fun () ->
      let e = mk_enclave sim in
      let sealed = Enclave.seal e "secret state" in
      Alcotest.(check bool) "ciphertext differs" true (sealed <> "secret state");
      (match Enclave.unseal e sealed with
      | Ok v -> Alcotest.(check string) "roundtrip" "secret state" v
      | Error _ -> Alcotest.fail "unseal failed");
      (* Another enclave identity (different code) cannot unseal. *)
      let other =
        Enclave.create sim ~mode:Enclave.Scone ~cost:Costmodel.default ~cores:4
          ~node_id:1 ~code_identity:"different-code"
      in
      match Enclave.unseal other sealed with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "foreign enclave unsealed the state")

let quotes () =
  let m = Treaty_crypto.Sha256.digest_string "code-v1" in
  let q = Quote.sign ~las_key:"las-key" ~measurement:m ~report_data:"nonce" in
  Alcotest.(check bool) "verifies" true
    (Quote.verify ~las_key:"las-key" ~expected_measurement:m q);
  Alcotest.(check bool) "wrong key" false
    (Quote.verify ~las_key:"other" ~expected_measurement:m q);
  Alcotest.(check bool) "wrong measurement" false
    (Quote.verify ~las_key:"las-key"
       ~expected_measurement:(Treaty_crypto.Sha256.digest_string "evil")
       q);
  let forged = { q with Quote.report_data = "other-nonce" } in
  Alcotest.(check bool) "tampered report data" false
    (Quote.verify ~las_key:"las-key" ~expected_measurement:m forged)

let hw_counter () =
  let sim = Sim.create () in
  Sim.run sim (fun () ->
      let e = mk_enclave sim in
      let c = Hw_counter.create ~wear_limit:3 e in
      let t0 = Sim.now sim in
      Alcotest.(check int) "first increment" 1 (Hw_counter.increment c);
      Alcotest.(check bool) "250ms latency" true (Sim.now sim - t0 >= 250_000_000);
      ignore (Hw_counter.increment c);
      ignore (Hw_counter.increment c);
      Alcotest.(check int) "monotonic" 3 (Hw_counter.read c);
      Alcotest.check_raises "wears out" Hw_counter.Worn_out (fun () ->
          ignore (Hw_counter.increment c)))

let mempool_recycling () =
  let sim = Sim.create () in
  Sim.run sim (fun () ->
      let e = mk_enclave sim in
      let pool = Mempool.create e in
      let b1 = Mempool.alloc pool Mempool.Host 100 in
      Alcotest.(check int) "class size" 128 (Mempool.class_size 100);
      Mempool.free pool b1;
      let b2 = Mempool.alloc pool Mempool.Host 90 in
      Alcotest.(check int) "recycled" 1 (Mempool.stats pool).recycled;
      Alcotest.(check bool) "same backing buffer" true (b2.Mempool.bytes == b1.Mempool.bytes);
      Mempool.free pool b2;
      Alcotest.check_raises "double free"
        (Invalid_argument "Mempool.free: double free") (fun () ->
          Mempool.free pool b2))

let mempool_regions () =
  let sim = Sim.create () in
  Sim.run sim (fun () ->
      let e = mk_enclave sim in
      let pool = Mempool.create e in
      let epc0 = Enclave.epc_used e in
      let b = Mempool.alloc pool Mempool.Enclave 4096 in
      Alcotest.(check bool) "enclave alloc charged to EPC" true (Enclave.epc_used e > epc0);
      Mempool.free pool b;
      let host0 = Enclave.host_used e in
      let b2 = Mempool.alloc pool Mempool.Host 4096 in
      Alcotest.(check bool) "host alloc charged to host" true (Enclave.host_used e > host0);
      Mempool.free pool b2)

let prop_class_size =
  QCheck.Test.make ~name:"mempool class size covers request" ~count:500
    QCheck.(int_range 1 1_000_000)
    (fun n ->
      let c = Mempool.class_size n in
      c >= n && c >= 64 && c land (c - 1) = 0)

let suite =
  [
    Alcotest.test_case "scone compute scaling" `Quick scone_scaling;
    Alcotest.test_case "syscall accounting" `Quick syscall_costs;
    Alcotest.test_case "EPC paging model" `Quick epc_paging;
    Alcotest.test_case "sealing" `Quick sealing;
    Alcotest.test_case "quote sign/verify" `Quick quotes;
    Alcotest.test_case "hw monotonic counter" `Quick hw_counter;
    Alcotest.test_case "mempool recycling" `Quick mempool_recycling;
    Alcotest.test_case "mempool regions" `Quick mempool_regions;
    QCheck_alcotest.to_alcotest prop_class_size;
  ]
