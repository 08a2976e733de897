(* Bechamel micro-benchmarks (wall-clock, not simulated): the hot primitives
   under all the figures — crypto, the skip list, the secure message codec
   and the authenticated log record format. *)

open Bechamel
open Toolkit
module Crypto = Treaty_crypto

let value_1k = String.make 1024 'v'
let aead_key = Crypto.Aead.key_of_string "bench"
let hmac = Crypto.Hmac.create "bench-key"
let msg_100 = String.make 100 'm'

let sealed =
  let ivg = Crypto.Aead.Iv_gen.create ~incarnation:0 ~node_id:1 in
  Crypto.Aead.seal_packed aead_key ~iv:(Crypto.Aead.Iv_gen.next ivg) value_1k

let secure_key = Treaty_rpc.Secure_msg.Secure aead_key
let ivg = Crypto.Aead.Iv_gen.create ~incarnation:0 ~node_id:2

let meta =
  {
    Treaty_rpc.Secure_msg.coord = 1;
    tx_seq = 42;
    op_id = 7;
    src = 1;
    kind = 3;
    is_response = false;
    req_id = 99;
    acked = 0;
  }

(* An 8-message burst of 100 B payloads: one packet, one IV, one keystream
   pass, one MAC. *)
let burst_msgs =
  List.init 8 (fun i -> ({ meta with Treaty_rpc.Secure_msg.op_id = i }, msg_100))

let burst_buf =
  Bytes.create
    (Treaty_rpc.Secure_msg.Burst.wire_size secure_key
       ~data_lens:(List.map (fun _ -> 100) burst_msgs))

let burst_wire =
  let n =
    Treaty_rpc.Secure_msg.Burst.encode_into secure_key ~iv_gen:ivg burst_buf
      burst_msgs
  in
  Bytes.sub_string burst_buf 0 n

let prefilled_skiplist =
  let sl = Treaty_storage.Skiplist.create () in
  for i = 0 to 9_999 do
    Treaty_storage.Skiplist.insert sl ~key:(Printf.sprintf "k%06d" i) ~seq:i ()
  done;
  sl

let clog_batch =
  Treaty_storage.Clog_record.Batch
    (List.init 16 (fun i ->
         Treaty_storage.Clog_record.Decision { tx_seq = i; commit = i mod 2 = 0 }))

let clog_batch_wire = Treaty_storage.Clog_record.encode clog_batch

let tests =
  Test.make_grouped ~name:"micro"
    [
      Test.make ~name:"sha256-1KiB" (Staged.stage (fun () -> Crypto.Sha256.digest_string value_1k));
      Test.make ~name:"hmac-100B" (Staged.stage (fun () -> Crypto.Hmac.mac hmac msg_100));
      Test.make ~name:"chacha20-1KiB"
        (Staged.stage (fun () ->
             Crypto.Chacha20.xor ~key:(String.make 32 'k') ~nonce:(String.make 12 'n') value_1k));
      Test.make ~name:"aead-seal-1KiB"
        (Staged.stage (fun () ->
             Crypto.Aead.seal_packed aead_key ~iv:(String.make 12 'i') value_1k));
      Test.make ~name:"aead-open-1KiB"
        (Staged.stage (fun () -> Crypto.Aead.open_packed aead_key sealed));
      Test.make ~name:"burst-seal-8x100B"
        (Staged.stage (fun () ->
             Treaty_rpc.Secure_msg.Burst.encode_into secure_key ~iv_gen:ivg
               burst_buf burst_msgs));
      Test.make ~name:"burst-open-8x100B"
        (Staged.stage (fun () ->
             Treaty_rpc.Secure_msg.Burst.decode secure_key ~buf:burst_buf burst_wire));
      Test.make ~name:"skiplist-find-10k"
        (Staged.stage (fun () ->
             Treaty_storage.Skiplist.find prefilled_skiplist ~key:"k004242" ~max_seq:max_int));
      Test.make ~name:"clog-batch16-encode"
        (Staged.stage (fun () -> Treaty_storage.Clog_record.encode clog_batch));
      Test.make ~name:"clog-batch16-decode"
        (Staged.stage (fun () -> Treaty_storage.Clog_record.decode clog_batch_wire));
    ]

(* Rounds per transaction: the number the commit pipeline exists to shrink.
   N concurrent "transactions" each stabilize a Clog decision and a WAL
   entry; the epoch pump coalesces the pending targets of every log into one
   ROTE round, so rounds/txn collapses with concurrency. *)
let rounds_per_txn () =
  let module Sim = Treaty_sim.Sim in
  let sim = Sim.create ~seed:0xF00DF00DL () in
  let result = ref 0. in
  Sim.run sim (fun () ->
      let cost = Treaty_sim.Costmodel.default in
      let net = Treaty_netsim.Net.create sim cost in
      let mk id =
        let e =
          Treaty_tee.Enclave.create sim ~mode:Treaty_tee.Enclave.Scone ~cost
            ~cores:8 ~node_id:id ~code_identity:"r"
        in
        let pool = Treaty_memalloc.Mempool.create e in
        Treaty_rpc.Erpc.create sim ~net ~enclave:e ~pool
          ~config:(Treaty_rpc.Erpc.default_config ~security:Treaty_rpc.Secure_msg.Plain)
          ~node_id:id ()
      in
      let r1 = Treaty_counter.Rote.create_replica (mk 1) ~group:[ 1; 2; 3 ] () in
      let _r2 = Treaty_counter.Rote.create_replica (mk 2) ~group:[ 1; 2; 3 ] () in
      let _r3 = Treaty_counter.Rote.create_replica (mk 3) ~group:[ 1; 2; 3 ] () in
      let cc = Treaty_counter.Counter_client.create r1 ~owner:1 in
      let txns = 64 in
      let clog = ref 0 and wal = ref 0 in
      let latch = Sim.ivar () in
      let pending = ref txns in
      for i = 0 to txns - 1 do
        Sim.spawn sim (fun () ->
            Sim.sleep sim (i * 50_000);
            incr clog;
            let c = !clog in
            Treaty_counter.Counter_client.submit cc ~log:"clog" ~counter:c;
            (match Treaty_counter.Counter_client.wait_stable cc ~log:"clog" ~counter:c with
            | Ok () -> ()
            | Error `Stability_timeout -> failwith "micro: no quorum");
            incr wal;
            let w = !wal in
            (match Treaty_counter.Counter_client.wait_stable cc ~log:"wal" ~counter:w with
            | Ok () -> ()
            | Error `Stability_timeout -> failwith "micro: no quorum");
            decr pending;
            if !pending = 0 then Sim.fill latch ())
      done;
      Sim.read sim latch;
      let s = Treaty_counter.Counter_client.stats cc in
      result := float_of_int s.rounds_started /. float_of_int txns);
  !result

(* Simulated AEAD cost per completed RPC: an eRPC pair under the commit
   pipeline's message shape — 32 concurrent closed-loop callers started
   1 µs apart, ~100 B requests, 1 KiB responses, bursts flushed at the end
   of each simulated instant and drained while a flush is charged. The
   enclave's [crypto_ns] counter divided by completed calls is the number
   the burst-level AEAD shrinks: one fixed seal/open charge per *packet*
   instead of per message. Also returns the coalescing factor so the JSON
   records msgs/packet alongside the cost it buys. *)
let crypto_ns_per_call () =
  let module Sim = Treaty_sim.Sim in
  let module Erpc = Treaty_rpc.Erpc in
  let module Enclave = Treaty_tee.Enclave in
  let sim = Sim.create ~seed:0xCAFE01L () in
  let result = ref (0., 0.) in
  Sim.run sim (fun () ->
      let cost = Treaty_sim.Costmodel.default in
      let net = Treaty_netsim.Net.create sim cost in
      let key = Crypto.Aead.key_of_string "micro-net" in
      let mk id =
        let e =
          Enclave.create sim ~mode:Enclave.Scone ~cost ~cores:8 ~node_id:id
            ~code_identity:"crypto-bench"
        in
        let pool = Treaty_memalloc.Mempool.create e in
        ( e,
          Erpc.create sim ~net ~enclave:e ~pool
            ~config:
              (Erpc.default_config ~security:(Treaty_rpc.Secure_msg.Secure key))
            ~node_id:id () )
      in
      let e1, a = mk 1 and e2, b = mk 2 in
      let reply = String.make 1024 'r' in
      Erpc.register b ~kind:1 (fun _ _ -> reply);
      let callers = 32 and per_caller = 40 in
      let req = String.make 100 'q' in
      let done_ = Sim.ivar () in
      let pending = ref callers in
      for c = 0 to callers - 1 do
        Sim.spawn sim (fun () ->
            Sim.sleep sim (c * 1_000);
            for i = 1 to per_caller do
              match
                Erpc.call a ~dst:2 ~kind:1 ~coord:1 ~tx_seq:((c * 1000) + i)
                  ~op_id:1 req
              with
              | Ok _ -> ()
              | Error _ -> failwith "micro: crypto bench call failed"
            done;
            decr pending;
            if !pending = 0 then Sim.fill done_ ())
      done;
      Sim.read sim done_;
      let calls = callers * per_caller in
      let crypto =
        (Enclave.stats e1).Enclave.crypto_ns + (Enclave.stats e2).Enclave.crypto_ns
      in
      let sa = Erpc.stats a and sb = Erpc.stats b in
      let pkts = sa.Erpc.bursts_sent + sb.Erpc.bursts_sent in
      let msgs = sa.Erpc.burst_msgs + sb.Erpc.burst_msgs in
      result :=
        ( float_of_int crypto /. float_of_int calls,
          if pkts = 0 then 0. else float_of_int msgs /. float_of_int pkts ));
  !result

(* Event-loop cost under the simulator's hot timer profile: every RPC arms
   a ~50 ms timeout it almost always cancels (the call completed), while
   short sleeps fire constantly. Each iteration is 4 queue ops — arm
   timeout, arm sleep, fire the sleep, cancel the timeout. The wheel
   reclaims on cancel and runs allocation-free. It is compared with the
   seed binary heap it replaced, whose lazily cancelled timeouts lingered
   as dead entries that every op sifted through: that heap's figure is
   frozen from its last run at commit [seed_heap_frozen_at]. It is wall
   time, so it holds only for hosts like the one that measured it. *)
let timer_iters = 100_000
let seed_heap_ns = 356.3
let seed_heap_frozen_at = "01f74c8"

let bench_wheel () =
  let module E = Treaty_sim.Eventq in
  let q = E.create () in
  let rng = Treaty_sim.Rng.create 0xE7E701L in
  let now = ref 0 and fired = ref 0 in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to timer_iters do
    let timeout = E.add q ~time:(!now + 50_000_000) (fun () -> incr fired) in
    ignore
      (E.add q
         ~time:(!now + 1 + Treaty_sim.Rng.int rng 30_000)
         (fun () -> incr fired));
    (match E.pop q with
    | Some (t, fn) ->
        now := t;
        fn ()
    | None -> assert false);
    ignore (E.cancel q timeout)
  done;
  let dt = Unix.gettimeofday () -. t0 in
  ignore !fired;
  dt *. 1e9 /. float_of_int (timer_iters * 4)

let run_event_loop () =
  (* Warm the wheel once so it pays no first-touch costs in the timed
     run. *)
  ignore (bench_wheel ());
  let wheel = bench_wheel () in
  let speedup = seed_heap_ns /. wheel in
  Printf.printf
    "  event loop ns/op (RPC-timeout profile, %d ops): timer wheel %.1f, \
     seed heap (frozen) %.1f — %.2fx\n%!"
    (timer_iters * 4) wheel seed_heap_ns speedup;
  Common.write_json "commit_pipeline"
    [
      ( "event_loop",
        Printf.sprintf
          "{ \"seed_ns_per_event\": %.1f, \"wheel_ns_per_event\": %.1f, \
           \"speedup\": %.2f, \"frozen_at\": %S }"
          seed_heap_ns wheel speedup seed_heap_frozen_at );
    ]

(* The same run over the deleted per-message envelope, which sealed every
   sub-message on its own: frozen from its last run at commit
   [Common.frozen_at]. Simulated time, so the values are exact on any
   host. *)
let no_batch_crypto_ns = 1670.0
let no_batch_crypto_msgs_per_packet = 15.80

let run_crypto_per_txn () =
  let batched_ns, batched_mpp = crypto_ns_per_call () in
  let reduction_pct = 100. *. (1. -. (batched_ns /. no_batch_crypto_ns)) in
  Printf.printf
    "  AEAD ns/call (32 callers, 100B req / 1KiB resp): burst-sealed %.0f \
     (%.2f msgs/pkt), per-message (frozen) %.0f (%.2f msgs/pkt) — %.1f%% \
     less\n%!"
    batched_ns batched_mpp no_batch_crypto_ns no_batch_crypto_msgs_per_packet
    reduction_pct;
  Printf.sprintf
    "{ \"batched\": %.1f, \"no_batch_crypto\": %.1f, \"reduction_pct\": \
     %.1f, \"batched_msgs_per_packet\": %.2f, \
     \"no_batch_crypto_msgs_per_packet\": %.2f, \"frozen_at\": %S }"
    batched_ns no_batch_crypto_ns reduction_pct batched_mpp
    no_batch_crypto_msgs_per_packet Common.frozen_at

(* Wall ns/op of the crypto rows with the native ChaCha20/SHA-256 kernels
   (this run, on the kernels [Chacha20.kernel] and [Sha256.kernel] name),
   next to the same rows frozen from the pure-OCaml kernels they replaced:
   the median of three runs of this bench on a 2-core x86-64 host. Hosts
   differ, so the pair is a record of the gain, not a threshold. A row
   Bechamel did not estimate is written as null. *)
let pure_ocaml_ns_per_op =
  [ ("sha256-1KiB", 25741.4); ("hmac-100B", 6885.8); ("chacha20-1KiB", 29056.5);
    ("aead-seal-1KiB", 61950.7); ("aead-open-1KiB", 68142.8);
    ("burst-seal-8x100B", 77673.8) ]

let crypto_rows_json estimates =
  List.map
    (fun (name, pure_ocaml) ->
      let ns =
        match List.assoc_opt ("micro/" ^ name) estimates with
        | Some ns -> Printf.sprintf "%.1f" ns
        | None -> "null"
      in
      Printf.sprintf "%S: { \"native\": %s, \"pure_ocaml\": %.1f }" name ns
        pure_ocaml)
    pure_ocaml_ns_per_op
  |> String.concat ", "
  |> Printf.sprintf "{ %s }"

let run () =
  Common.section "Micro-benchmarks (Bechamel, wall-clock)";
  Printf.printf "  sha256 kernel: %s\n  chacha20 kernel: %s\n%!"
    Crypto.Sha256.kernel Crypto.Chacha20.kernel;
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.4) ~kde:(Some 500) () in
  let raw = Benchmark.all cfg instances tests in
  let results =
    List.map (fun instance -> Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]) instance raw) instances
  in
  let results = Analyze.merge (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]) instances results in
  let estimates =
    match Hashtbl.find_opt results (Measure.label Instance.monotonic_clock) with
    | None -> []
    | Some tbl ->
        Hashtbl.fold
          (fun name result acc ->
            match Analyze.OLS.estimates result with
            | Some [ est ] -> (name, est) :: acc
            | _ -> acc)
          tbl []
        |> List.sort compare
  in
  List.iter (fun (name, est) -> Printf.printf "  %-28s %12.1f ns/op\n" name est) estimates;
  Printf.printf
    "  stabilization rounds/txn (64 concurrent txns, clog+wal): %.3f\n%!"
    (rounds_per_txn ());
  let crypto_per_txn = run_crypto_per_txn () in
  Common.write_json "commit_pipeline"
    [
      ( "micro",
        Printf.sprintf
          "{ \"crypto_ns_per_txn\": %s, \"sha256_kernel\": %S, \
           \"chacha20_kernel\": %S, \"wall_ns_per_op\": %s }"
          crypto_per_txn Crypto.Sha256.kernel Crypto.Chacha20.kernel
          (crypto_rows_json estimates) );
    ];
  run_event_loop ()
