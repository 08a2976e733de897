(* Figure 3: distributed transactions under TPC-C with 10 warehouses (heavy
   W-W conflicts) and 100 warehouses (low conflict), 3 nodes.

   Paper: 10W — Treaty 8x-11x slower than DS-RocksDB (780 tps); DS-RocksDB
   and the non-Stab Treaty variants saturate at 10 clients, the Stab variant
   scales to 16 because lock-free stabilization windows admit more requests.
   100W — overheads drop to 4x-6x (DS-RocksDB at 1200 tps); saturation moves
   from 60 to 84 clients for the Stab variant.

   The warehouse count is the contention knob, which is what the figure is
   about; per-warehouse table sizes are simulation-scaled (DESIGN.md §2). *)

open Treaty_core
module W = Treaty_workload

let systems =
  [
    ("DS-RocksDB", Config.ds_rocksdb, Types.Pessimistic);
    ("Treaty w/o Enc", Config.treaty_no_enc, Types.Pessimistic);
    ("Treaty w/ Enc", Config.treaty_enc, Types.Pessimistic);
    ("Treaty w/ Enc w/ Stab", Config.treaty_enc_stab, Types.Pessimistic);
    (* cc ablation rider: TPC-C transactions are all read-write, so this
       isolates OCC validation cost under contention (no ro fast path). *)
    ("Treaty w/ Stab OCC", Config.treaty_enc_stab, Types.Optimistic);
  ]

(* The warehouses that fail TPC-C consistency condition 1 (W_YTD = sum of
   D_YTD) or 2 (each district's last order exists) after a run. *)
let inconsistent_warehouses cluster ~tpcc_cfg =
  let checker = Client.connect_exn cluster ~client_id:901 in
  let bad =
    List.filter
      (fun warehouse ->
        not
          (W.Tpcc.Check.warehouse_ytd tpcc_cfg checker ~warehouse
          && W.Tpcc.Check.district_orders tpcc_cfg checker ~warehouse))
      (List.init tpcc_cfg.W.Tpcc.warehouses (fun i -> i + 1))
  in
  Client.disconnect checker;
  bad

(* Systems whose run left an inconsistent warehouse: [run] exits non-zero
   if there are any. *)
let failed = ref []

let tpcc_result ?(isolation = Types.Pessimistic) sim profile ~tpcc_cfg ~clients =
  let config = { (Common.base_config profile) with Config.isolation } in
  let nodes = config.Config.nodes in
  let route = W.Tpcc.route tpcc_cfg ~nodes in
  let cluster = Common.make_cluster sim config ~route () in
  let loader = Client.connect_exn cluster ~client_id:900 in
  W.Tpcc.load tpcc_cfg loader (Treaty_sim.Rng.create 11L);
  Client.disconnect loader;
  let warehouses = tpcc_cfg.W.Tpcc.warehouses in
  let r =
    W.Driver.run_clients cluster ~clients ~duration_ns:(Common.duration_ns ())
      ~warmup_ns:(Common.warmup_ns ())
      ~txn:(fun client ~client_index rng ->
        let home = 1 + (client_index mod warehouses) in
        W.Tpcc.run tpcc_cfg client rng ~nodes ~home (W.Tpcc.pick_kind rng))
      ()
  in
  let bad = inconsistent_warehouses cluster ~tpcc_cfg in
  Cluster.shutdown cluster;
  (r, bad)

let run_warehouses ~label ~tpcc_cfg ~clients =
  Common.subsection label;
  let results =
    List.map
      (fun (name, profile, isolation) ->
        let r = ref None in
        Common.run_sim (fun sim ->
            r := Some (tpcc_result ~isolation sim profile ~tpcc_cfg ~clients));
        let r, bad = Option.get !r in
        if bad <> [] then begin
          Printf.printf "  %s: TPC-C consistency FAILED at warehouse %s\n%!" name
            (String.concat "," (List.map string_of_int bad));
          failed := name :: !failed
        end;
        (name, r))
      systems
  in
  let baseline = W.Driver.tps (snd (List.hd results)) in
  List.iter
    (fun (name, r) ->
      Common.print_row ~label:name ~tps:(W.Driver.tps r) ~baseline_tps:baseline
        ~mean_ms:(W.Driver.mean_ms r) ~p99:(W.Driver.p99_ms r))
    results

let run () =
  Common.section "Figure 3: distributed transactions, TPC-C";
  run_warehouses ~label:"10 warehouses (high contention)"
    ~tpcc_cfg:(W.Tpcc.config ~warehouses:10 ())
    ~clients:(if !Common.full_mode then 16 else 12);
  Common.expected "Treaty 8x-11x slower than DS-RocksDB (~780 tps)";
  let big =
    let c = W.Tpcc.config ~warehouses:100 () in
    (* Simulation-scaled per-warehouse tables; contention comes from the
       warehouse count. *)
    { c with W.Tpcc.items = 100; customers_per_district = 20 }
  in
  run_warehouses ~label:"100 warehouses (low contention)" ~tpcc_cfg:big
    ~clients:(if !Common.full_mode then 84 else 48);
  Common.expected "overheads drop to 4x-6x (DS-RocksDB ~1200 tps)";
  if !failed <> [] then begin
    Printf.eprintf "fig3: TPC-C consistency failed for %s\n%!"
      (String.concat "; " (List.rev !failed));
    exit 1
  end
