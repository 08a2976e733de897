(* Figure 5: distributed transactions under YCSB — throughput slowdown
   w.r.t. DS-RocksDB and latency — for a write-heavy (20%R) and a
   read-heavy (80%R) workload, 96 clients, 3 nodes.

   Paper: 9x-15x slowdown for the write-heavy mix (DS-RocksDB at 18.5 ktps);
   9.5x (w/o Enc) and 11x (w/ Enc) for the read-heavy mix (DS-RocksDB at
   24 ktps); stabilization mainly costs latency on write-heavy Txs. *)

open Treaty_core
module W = Treaty_workload

let systems =
  [
    ("DS-RocksDB", Config.ds_rocksdb, Types.Pessimistic);
    ("Treaty w/o Enc", Config.treaty_no_enc, Types.Pessimistic);
    ("Treaty w/ Enc", Config.treaty_enc, Types.Pessimistic);
    ("Treaty w/ Enc w/ Stab", Config.treaty_enc_stab, Types.Pessimistic);
    (* cc ablation rider: same stack, OCC validation instead of 2PL, with
       all-read transactions taking the read-only snapshot fast path. *)
    ("Treaty w/ Stab OCC", Config.treaty_enc_stab, Types.Optimistic);
  ]

let run_mix ~label ~read_fraction =
  Common.subsection label;
  let ycsb = { W.Ycsb.default with W.Ycsb.read_fraction } in
  let clients = if !Common.full_mode then 96 else 64 in
  let results =
    List.map
      (fun (name, profile, isolation) ->
        let r = ref None in
        Common.run_sim (fun sim ->
            r :=
              Some
                (Common.ycsb_result ~isolation sim profile ~ycsb ~clients
                   ~engine_overrides:Common.id_engine));
        (name, Option.get !r))
      systems
  in
  let baseline = W.Driver.tps (snd (List.hd results)) in
  List.iter
    (fun (name, r) ->
      Common.print_row ~label:name ~tps:(W.Driver.tps r) ~baseline_tps:baseline
        ~mean_ms:(W.Driver.mean_ms r) ~p99:(W.Driver.p99_ms r))
    results

let run () =
  Common.section "Figure 5: distributed transactions, YCSB";
  run_mix ~label:"write-heavy (20% reads)" ~read_fraction:0.2;
  Common.expected "Treaty 9x-15x slower than DS-RocksDB; Stab adds latency";
  run_mix ~label:"read-heavy (80% reads)" ~read_fraction:0.8;
  Common.expected "Treaty w/o Enc ~9.5x, w/ Enc ~11x slower than DS-RocksDB"
