(* Figure 4: throughput slowdown of Treaty's 2PC protocol alone — no
   underlying storage — under YCSB 50R/50W (10 ops/tx, 1000 B values),
   normalized to a native, non-secure 2PC.

   Systems: Native 2PC (baseline), Native w/ Enc, Secure (SCONE) w/o Enc,
   Secure (SCONE) w/ Enc. Paper: minimal encryption overhead natively;
   1.8x for SCONE without encryption; 2x for SCONE with encryption. *)

open Treaty_core
module W = Treaty_workload
module Enclave = Treaty_tee.Enclave

let profiles =
  [
    ("Native 2PC", Config.ds_rocksdb);
    ("Native w/ Enc", { Config.ds_rocksdb with encryption = true });
    ("Secure w/o Enc", { Config.ds_rocksdb with tee = Enclave.Scone });
    ("Secure w/ Enc", { Config.ds_rocksdb with tee = Enclave.Scone; encryption = true });
  ]

(* Commit pipeline: full-stack treaty-enc-stab. The interesting number is
   ROTE stabilization rounds per committed transaction: the epoch pump plus
   Clog group commit amortize rounds across concurrent transactions (the
   frozen [unbatched] row paid 2.55). *)

type pipeline_row = {
  tps : float;
  committed : int;
  increments : int;
  rounds_per_txn : float;
  clog_items_per_batch : float;
  wal_items_per_batch : float;
  msgs_per_packet : float;
  crypto_ns_per_txn : float;
      (* Enclave ns spent in AEAD seal/open per committed transaction — the
         number the burst-level envelope exists to shrink. *)
}

(* The pipeline's off rows, frozen from their last quick-mode run at commit
   [Common.frozen_at] before their knobs were deleted: [no-batch-crypto]
   sealed every sub-message on its own; [unbatched] ran one ROTE round per
   log, one Clog append per record and one packet per message. Simulated
   time, so the values are exact on any host. *)
let frozen_rows =
  [
    ( "no-batch-crypto",
      { tps = 2013.3; committed = 843; increments = 898; rounds_per_txn = 1.0652;
        clog_items_per_batch = 1.13; wal_items_per_batch = 0.;
        msgs_per_packet = 1.14; crypto_ns_per_txn = 38777.4 } );
    ( "unbatched",
      { tps = 963.3; committed = 468; increments = 1194; rounds_per_txn = 2.5513;
        clog_items_per_batch = 0.; wal_items_per_batch = 0.;
        msgs_per_packet = 1.00; crypto_ns_per_txn = 46217.9 } );
  ]

let pipeline_run profile ~ycsb ~clients =
  Common.run_sim (fun sim ->
      let cluster = Common.ycsb_cluster sim (Common.base_config profile) ycsb in
      let p0 = Cluster.pipeline_counters cluster in
      let c0 = Cluster.total_committed cluster in
      let r = Common.drive cluster ~clients (W.Ycsb.terminal ycsb) in
      let p1 = Cluster.pipeline_counters cluster in
      let delta name = List.assoc name p1 - List.assoc name p0 in
      let committed = Cluster.total_committed cluster - c0 in
      Cluster.shutdown cluster;
      let increments = delta "rote.increments" in
      let ratio num den = if den = 0 then 0. else float_of_int num /. float_of_int den in
      {
        tps = W.Driver.tps r;
        committed;
        increments;
        rounds_per_txn = ratio increments committed;
        clog_items_per_batch = ratio (delta "clog.items") (delta "clog.batches");
        wal_items_per_batch = ratio (delta "wal.items") (delta "wal.batches");
        msgs_per_packet = ratio (delta "rpc.burst_msgs") (delta "rpc.bursts_sent");
        crypto_ns_per_txn = ratio (delta "crypto.ns") committed;
      })

let json_row ?(frozen = false) name (r : pipeline_row) =
  Printf.sprintf
    "    { \"name\": %S, \"tps\": %.1f, \"committed\": %d, \
     \"rote_increments\": %d, \"rounds_per_txn\": %.4f, \
     \"clog_items_per_batch\": %.2f, \"wal_items_per_batch\": %.2f, \
     \"msgs_per_packet\": %.2f, \"crypto_ns_per_txn\": %.1f%s }"
    name r.tps r.committed r.increments r.rounds_per_txn r.clog_items_per_batch
    r.wal_items_per_batch r.msgs_per_packet r.crypto_ns_per_txn
    (if frozen then Common.frozen_field else "")

let write_pipeline_json ~clients live =
  let rows =
    json_row "batched" live
    :: List.map (fun (name, r) -> json_row ~frozen:true name r) frozen_rows
  in
  Common.write_json "commit_pipeline"
    [
      ( "pipeline",
        Printf.sprintf "{\n  \"clients\": %d,\n  \"configs\": %s }" clients
          (Common.json_array rows) );
    ]

let pipeline_print label (r : pipeline_row) =
  Printf.printf
    "  %-16s %9.1f tps   %6.3f rounds/txn   clog %5.2f/batch   wal \
     %5.2f/batch   %5.2f msgs/pkt   crypto %8.0f ns/txn\n%!"
    label r.tps r.rounds_per_txn r.clog_items_per_batch r.wal_items_per_batch
    r.msgs_per_packet r.crypto_ns_per_txn

let run_pipeline () =
  Common.subsection "commit pipeline (treaty-enc-stab)";
  (* Wide keyspace here too: under a contended keyspace the commit counts
     are dominated by lock-wait interleaving chaos; protocol-bound, the
     crypto and coalescing costs are the signal. Always 64 clients — the coalescing factor (msgs/packet) and
     the amortized crypto cost are the whole point of this row, and both
     need offered load. *)
  let ycsb =
    { W.Ycsb.default with W.Ycsb.read_fraction = 0.5; n_keys = 50_000 }
  in
  let clients = 64 in
  Printf.printf "  YCSB 50R/50W, %d clients, 3 nodes, stabilization on\n%!"
    clients;
  let live = pipeline_run Config.treaty_enc_stab ~ycsb ~clients in
  pipeline_print "batched" live;
  List.iter (fun (name, r) -> pipeline_print (name ^ "*") r) frozen_rows;
  Printf.printf "  * frozen at commit %s\n%!" Common.frozen_at;
  write_pipeline_json ~clients live;
  Printf.printf "  wrote BENCH_commit_pipeline.json\n%!"

let run () =
  Common.section "Figure 4: 2PC protocol in isolation (no storage)";
  (* Wide keyspace: the protocol benchmark must be CPU-bound, not
     lock-bound. *)
  let ycsb = { W.Ycsb.default with W.Ycsb.read_fraction = 0.5; n_keys = 50_000 } in
  let clients = if !Common.full_mode then 300 else 120 in
  Printf.printf "  YCSB 50R/50W, %d ops/tx, %dB values, %d clients, 3 nodes\n%!"
    ycsb.W.Ycsb.ops_per_txn ycsb.W.Ycsb.value_size clients;
  Common.compare_systems
    (List.map
       (fun (label, profile) ->
         ( label,
           fun sim ->
             let config = Common.base_config profile in
             let engine =
               {
                 config.Config.engine with
                 Treaty_storage.Engine.in_memory = true;
                 group_commit = false;
               }
             in
             Common.ycsb_run sim { config with Config.engine } ycsb ~clients ))
       profiles);
  Common.expected
    "Native w/ Enc ~1.0-1.1x, Secure w/o Enc ~1.8x, Secure w/ Enc ~2.0x";
  run_pipeline ()
