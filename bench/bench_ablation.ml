(* Ablations for the design decisions DESIGN.md calls out. Not a paper
   figure; each isolates one mechanism the paper argues for.

   A. Group commit on/off (§VII-B): write-heavy single-node YCSB.
   B. MemTable values in host memory vs inside the EPC (§V-B/§VII-D): a big
      value set in the enclave triggers paging.
   C. Message buffers in host memory vs the naive SCONE port of eRPC that
      allocates them in the enclave and keeps rdtsc OCALLs (§VII-A).
   D. SGX hardware monotonic counters vs the ROTE-style service (§VI):
      per-stabilization latency and the wear-out budget. *)

open Treaty_core
module Sim = Treaty_sim.Sim
module W = Treaty_workload
module Enclave = Treaty_tee.Enclave

let ycsb = { W.Ycsb.default with W.Ycsb.read_fraction = 0.2 }

let throughput ~engine_overrides ~config_overrides =
  let r = ref None in
  Common.run_sim (fun sim ->
      let config = Common.base_config Config.treaty_enc in
      let config = config_overrides { config with Config.nodes = 1 } in
      let config = { config with Config.engine = engine_overrides config.Config.engine } in
      let cluster = Common.make_cluster sim config () in
      Common.load_ycsb cluster ycsb;
      let res =
        W.Driver.run_clients cluster ~clients:(Common.scale_clients 32)
          ~duration_ns:(Common.duration_ns ()) ~warmup_ns:(Common.warmup_ns ())
          ~txn:(Common.ycsb_txn ycsb) ()
      in
      Cluster.shutdown cluster;
      r := Some (W.Driver.tps res, W.Driver.mean_ms res));
  Option.get !r

let row label (tps, ms) =
  Printf.printf "  %-36s %10.1f tps   lat %6.2f ms\n%!" label tps ms

(* Group commit amortizes device write latency: evaluate it on a device
   where that latency is material (SATA-class fsync), not the fast-NVMe
   default the figures use. *)
let slow_ssd c =
  { c with
    Config.cost = { c.Config.cost with Treaty_sim.Costmodel.ssd_write_base_ns = 120_000 } }

let run () =
  Common.section "Ablations";
  Common.subsection "A. group commit (single-node, YCSB 20%R, slow fsync device)";
  row "group commit ON"
    (throughput ~engine_overrides:Common.id_engine ~config_overrides:slow_ssd);
  row "group commit OFF"
    (throughput
       ~engine_overrides:(fun e -> { e with Treaty_storage.Engine.group_commit = false })
       ~config_overrides:slow_ssd);

  Common.subsection "B. MemTable values: host memory vs enclave (EPC)";
  row "values in host memory (Treaty)"
    (throughput ~engine_overrides:Common.id_engine ~config_overrides:Fun.id);
  row "values inside the enclave"
    (throughput
       ~engine_overrides:(fun e ->
         { e with Treaty_storage.Engine.values_in_enclave = true })
       ~config_overrides:(fun c ->
         (* Shrink the EPC so the working set overflows it, as a large
            MemTable does on real SGXv1. *)
         { c with Config.cost = { c.Config.cost with Treaty_sim.Costmodel.epc_limit_bytes = 2 * 1024 * 1024 } }));

  Common.subsection "C. message buffers: host memory vs naive enclave port";
  row "msgbufs in host memory (Treaty)"
    (throughput ~engine_overrides:Common.id_engine ~config_overrides:Fun.id);
  row "naive port (enclave msgbufs + rdtsc OCALLs)"
    (throughput ~engine_overrides:Common.id_engine
       ~config_overrides:(fun c ->
         {
           c with
           Config.naive_rpc_port = true;
           cost = { c.Config.cost with Treaty_sim.Costmodel.epc_limit_bytes = 2 * 1024 * 1024 };
         }));

  Common.subsection "D. trusted counter: SGX hardware counter vs ROTE service";
  let sim = Sim.create () in
  let cost = Treaty_sim.Costmodel.default in
  let e = Enclave.create sim ~mode:Enclave.Scone ~cost ~cores:8 ~node_id:1 ~code_identity:"hw" in
  let hw = Treaty_tee.Hw_counter.create e in
  Sim.run sim (fun () ->
      let t0 = Sim.now sim in
      ignore (Treaty_tee.Hw_counter.increment hw);
      Printf.printf "  SGX hw counter increment: %.1f ms (wears out after ~1M increments)\n"
        (float_of_int (Sim.now sim - t0) /. 1e6));
  let sim2 = Sim.create () in
  Sim.run sim2 (fun () ->
      let net = Treaty_netsim.Net.create sim2 cost in
      let mk id =
        let e = Enclave.create sim2 ~mode:Enclave.Scone ~cost ~cores:8 ~node_id:id ~code_identity:"r" in
        let pool = Treaty_memalloc.Mempool.create e in
        Treaty_rpc.Erpc.create sim2 ~net ~enclave:e ~pool
          ~config:(Treaty_rpc.Erpc.default_config ~security:Treaty_rpc.Secure_msg.Plain)
          ~node_id:id ()
      in
      let r1 = Treaty_counter.Rote.create_replica (mk 1) ~group:[ 1; 2; 3 ] () in
      let _r2 = Treaty_counter.Rote.create_replica (mk 2) ~group:[ 1; 2; 3 ] () in
      let _r3 = Treaty_counter.Rote.create_replica (mk 3) ~group:[ 1; 2; 3 ] () in
      let t0 = Sim.now sim2 in
      (match Treaty_counter.Rote.increment r1 ~owner:1 ~log:"L" ~value:1 with
      | Ok () -> ()
      | Error `No_quorum -> failwith "no quorum");
      Printf.printf "  ROTE echo-broadcast increment: %.2f ms (no wear, survives CPU loss)\n%!"
        (float_of_int (Sim.now sim2 - t0) /. 1e6))
