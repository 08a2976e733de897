(* Workload generators: zipf distribution, YCSB shapes, TPC-C execution and
   its consistency conditions, and the benchmark driver. *)

open Treaty_core
module Sim = Treaty_sim.Sim
module W = Treaty_workload
module Rng = Treaty_sim.Rng

let zipf_skew () =
  let z = W.Zipf.create ~theta:0.99 ~n:1000 () in
  let rng = Rng.create 1L in
  let counts = Array.make 1000 0 in
  for _ = 1 to 50_000 do
    let i = W.Zipf.sample z rng in
    counts.(i) <- counts.(i) + 1
  done;
  Alcotest.(check bool) "rank 0 hottest" true (counts.(0) > counts.(100));
  Alcotest.(check bool) "roughly zipfian head" true
    (float_of_int counts.(0) > 1.5 *. float_of_int counts.(10));
  let u = W.Zipf.uniform ~n:1000 in
  let ucounts = Array.make 1000 0 in
  for _ = 1 to 50_000 do
    ucounts.(W.Zipf.sample u rng) <- ucounts.(W.Zipf.sample u rng) + 1
  done;
  let mx = Array.fold_left max 0 ucounts and mn = Array.fold_left min max_int ucounts in
  Alcotest.(check bool) "uniform is flat-ish" true (mx < 10 * (mn + 1))

let ycsb_mix () =
  let cfg = { W.Ycsb.default with W.Ycsb.read_fraction = 0.8 } in
  let g = W.Ycsb.generator cfg (Rng.create 2L) in
  let reads = ref 0 and writes = ref 0 in
  for _ = 1 to 500 do
    List.iter
      (function
        | W.Ycsb.Read _ -> incr reads
        | W.Ycsb.Update (_, v) ->
            Alcotest.(check int) "value size" cfg.W.Ycsb.value_size (String.length v);
            incr writes)
      (W.Ycsb.next_txn g)
  done;
  let total = !reads + !writes in
  Alcotest.(check int) "ops per txn" (500 * cfg.W.Ycsb.ops_per_txn) total;
  let frac = float_of_int !reads /. float_of_int total in
  Alcotest.(check bool) "read fraction near 0.8" true (frac > 0.75 && frac < 0.85)

let ycsb_zipfian_skew () =
  let cfg = { W.Ycsb.default with W.Ycsb.distribution = `Zipfian 0.99; n_keys = 100 } in
  let g = W.Ycsb.generator cfg (Rng.create 9L) in
  let counts = Hashtbl.create 100 in
  for _ = 1 to 2000 do
    List.iter
      (fun op ->
        let k = match op with W.Ycsb.Read k | W.Ycsb.Update (k, _) -> k in
        Hashtbl.replace counts k (1 + Option.value ~default:0 (Hashtbl.find_opt counts k)))
      (W.Ycsb.next_txn g)
  done;
  let hot = Option.value ~default:0 (Hashtbl.find_opt counts (W.Ycsb.key_of_index 0)) in
  let cold = Option.value ~default:0 (Hashtbl.find_opt counts (W.Ycsb.key_of_index 99)) in
  Alcotest.(check bool)
    (Printf.sprintf "zipf skews hot (%d) vs cold (%d)" hot cold)
    true
    (hot > 5 * (cold + 1))

(* The driver's result from 100 commits of 1..100 ms over one second. *)
let driver_result_percentiles () =
  let latency_ns = Treaty_obs.Metrics.Hist.create () in
  for i = 1 to 100 do
    Treaty_obs.Metrics.Hist.record latency_ns (i * 1_000_000)
  done;
  let r = { W.Driver.latency_ns; aborted = 0; duration_ns = 1_000_000_000 } in
  Alcotest.(check int) "count" 100 (W.Driver.committed r);
  (* Percentiles come from the log-scale obs histogram: exact rank selection
     over bucket upper bounds, <=0.2% relative error above the exact range. *)
  Alcotest.(check (float 0.2)) "p50" 50.0 (W.Driver.percentile_ms r 50.0);
  Alcotest.(check (float 0.2)) "p99" 99.0 (W.Driver.percentile_ms r 99.0);
  Alcotest.(check (float 0.01)) "mean" 50.5 (W.Driver.mean_ms r);
  Alcotest.(check (float 1.0)) "tps over 1s" 100.0 (W.Driver.tps r)

(* The shared preload writes each key the value the figure benches' and the
   CLI's own loaders wrote: draws from [Rng.create 7L] in key order, 100
   keys per transaction. Every YCSB figure row starts from this store. *)
let ycsb_preload_values () =
  let cfg = { W.Ycsb.default with W.Ycsb.n_keys = 250; value_size = 16 } in
  let rng = Rng.create 7L in
  let expected = List.init cfg.W.Ycsb.n_keys (fun _ -> W.Ycsb.make_value cfg rng) in
  let sim = Sim.create () in
  Sim.run sim (fun () ->
      let config = Config.with_profile Config.default Config.ds_rocksdb in
      match Cluster.create sim config () with
      | Error m -> Alcotest.failf "cluster: %s" m
      | Ok cluster ->
          W.Driver.preload cluster (W.Ycsb.load cfg);
          let c = Client.connect_exn cluster ~client_id:1 in
          let read i =
            match
              Client.with_txn c (fun txn -> Client.get c txn (W.Ycsb.key_of_index i))
            with
            | Ok v -> v
            | Error e -> Alcotest.failf "read: %s" (Types.abort_reason_to_string e)
          in
          List.iteri
            (fun i v ->
              Alcotest.(check (option string)) (W.Ycsb.key_of_index i) (Some v) (read i))
            expected;
          Client.disconnect c;
          Cluster.shutdown cluster)

(* A load transaction that aborts stops the preload with [Load_failure]
   rather than leaving a partly loaded key space behind. *)
let ycsb_preload_failure () =
  let sim = Sim.create () in
  Sim.run sim (fun () ->
      let config = Config.with_profile Config.default Config.ds_rocksdb in
      match Cluster.create sim config () with
      | Error m -> Alcotest.failf "cluster: %s" m
      | Ok cluster ->
          let c = Client.connect_exn cluster ~client_id:1 in
          List.iter (Cluster.crash_node cluster) [ 0; 1; 2 ];
          (match W.Ycsb.load { W.Ycsb.default with W.Ycsb.n_keys = 10 } c with
          | () -> Alcotest.fail "a load on a dead cluster returned"
          | exception W.Ycsb.Load_failure _ -> ());
          Cluster.shutdown cluster)

let tpcc_mix () =
  let rng = Rng.create 3L in
  let counts = Hashtbl.create 5 in
  for _ = 1 to 10_000 do
    let k = W.Tpcc.kind_name (W.Tpcc.pick_kind rng) in
    Hashtbl.replace counts k (1 + Option.value ~default:0 (Hashtbl.find_opt counts k))
  done;
  let pct k = float_of_int (Option.value ~default:0 (Hashtbl.find_opt counts k)) /. 100.0 in
  Alcotest.(check bool) "NewOrder ~45%" true (abs_float (pct "NewOrder" -. 45.

    ) < 3.0);
  Alcotest.(check bool) "Payment ~43%" true (abs_float (pct "Payment" -. 43.) < 3.0);
  Alcotest.(check bool) "others ~4%" true (abs_float (pct "Delivery" -. 4.) < 1.5)

let tpcc_routing () =
  let cfg = W.Tpcc.config ~warehouses:9 () in
  (* All keys of one warehouse land on the same node. *)
  List.iter
    (fun w ->
      let keys =
        [ Printf.sprintf "w:%d" w; Printf.sprintf "d:%d:4" w; Printf.sprintf "c:%d:2:17" w;
          Printf.sprintf "s:%d:33" w; Printf.sprintf "o:%d:1:5" w ]
      in
      let nodes = List.map (W.Tpcc.route cfg ~nodes:3) keys in
      match nodes with
      | n :: rest -> List.iter (fun n' -> Alcotest.(check int) "colocated" n n') rest
      | [] -> ())
    [ 1; 2; 3; 9 ];
  (* Warehouses spread across nodes. *)
  let distinct =
    List.sort_uniq compare
      (List.map (fun w -> W.Tpcc.home_node cfg ~nodes:3 ~warehouse:w) [ 1; 2; 3 ])
  in
  Alcotest.(check int) "3 warehouses on 3 nodes" 3 (List.length distinct)

(* Every profile from one client, then the mix from four concurrent
   clients, under [isolation]; both TPC-C consistency conditions hold
   afterwards. Alone, a client must commit everything but the 1% NewOrder
   rollback. Among the concurrent clients, contention may also abort a
   transaction with a lock timeout or a failed validation, which the
   profiles leave to a retry; any other failure is a bug. *)
let tpcc_end_to_end isolation () =
  let sim = Sim.create () in
  Sim.run sim (fun () ->
      let config =
        { (Config.with_profile Config.default Config.treaty_enc) with Config.isolation }
      in
      let tpcc = { (W.Tpcc.config ~warehouses:3 ()) with W.Tpcc.items = 50; customers_per_district = 10 } in
      let route = W.Tpcc.route tpcc ~nodes:config.Config.nodes in
      match Cluster.create sim config ~route () with
      | Error m -> Alcotest.failf "cluster: %s" m
      | Ok cluster ->
          let c = Client.connect_exn cluster ~client_id:1 in
          let rng = Rng.create 4L in
          W.Tpcc.load tpcc c rng;
          let failures = ref [] and committed = ref 0 in
          let run ~contended c rng kind =
            let home = 1 + Rng.int rng 3 in
            match W.Tpcc.run tpcc c rng ~nodes:3 ~home kind with
            | Ok () -> incr committed
            | Error Types.Rolled_back -> ()
            | Error (Types.Lock_timeout | Types.Validation_failed) when contended -> ()
            | Error e ->
                failures :=
                  (W.Tpcc.kind_name kind ^ ": " ^ Types.abort_reason_to_string e) :: !failures
          in
          List.iter
            (fun kind ->
              for _ = 1 to 8 do
                run ~contended:false c rng kind
              done)
            [ W.Tpcc.New_order; W.Tpcc.Payment; W.Tpcc.Order_status; W.Tpcc.Delivery; W.Tpcc.Stock_level ];
          let (), (_ : unit list) =
            Sim.fan_out sim [ 2; 3; 4; 5 ] ~local:ignore (fun client_id ->
                let c = Client.connect_exn cluster ~client_id in
                let rng = Rng.create (Int64.of_int client_id) in
                for _ = 1 to 12 do
                  run ~contended:true c rng (W.Tpcc.pick_kind rng)
                done;
                Client.disconnect c)
          in
          Alcotest.(check (list string)) "no unexpected failures" [] !failures;
          Alcotest.(check bool) "transactions committed" true (!committed > 50);
          Sim.sleep sim 100_000_000;
          List.iter
            (fun w ->
              Alcotest.(check bool)
                (Printf.sprintf "district/order consistency w%d" w)
                true
                (W.Tpcc.Check.district_orders tpcc c ~warehouse:w);
              Alcotest.(check bool)
                (Printf.sprintf "W_YTD = sum of D_YTD, w%d" w)
                true
                (W.Tpcc.Check.warehouse_ytd tpcc c ~warehouse:w))
            [ 1; 2; 3 ];
          Client.disconnect c;
          Cluster.shutdown cluster)

let driver_windows () =
  let sim = Sim.create () in
  Sim.run sim (fun () ->
      let config = Config.with_profile Config.default Config.ds_rocksdb in
      match Cluster.create sim config () with
      | Error m -> Alcotest.failf "cluster: %s" m
      | Ok cluster ->
          let r =
            W.Driver.run_clients cluster ~clients:4 ~duration_ns:50_000_000
              ~warmup_ns:10_000_000
              ~txn:(fun client ~client_index:_ rng ->
                let k = Printf.sprintf "k%d" (Rng.int rng 100) in
                Client.with_txn client (fun txn -> Client.put client txn k "v"))
              ()
          in
          Alcotest.(check bool) "committed work" true (W.Driver.committed r > 0);
          Alcotest.(check bool) "throughput positive" true (W.Driver.tps r > 0.0);
          Cluster.shutdown cluster)

let suite =
  [
    Alcotest.test_case "zipf skew" `Quick zipf_skew;
    Alcotest.test_case "ycsb mix" `Quick ycsb_mix;
    Alcotest.test_case "ycsb zipfian skew" `Quick ycsb_zipfian_skew;
    Alcotest.test_case "stats percentiles" `Quick driver_result_percentiles;
    Alcotest.test_case "ycsb preload values" `Quick ycsb_preload_values;
    Alcotest.test_case "ycsb preload failure" `Quick ycsb_preload_failure;
    Alcotest.test_case "tpcc transaction mix" `Quick tpcc_mix;
    Alcotest.test_case "tpcc warehouse routing" `Quick tpcc_routing;
    Alcotest.test_case "tpcc end-to-end + consistency" `Slow
      (tpcc_end_to_end Types.Pessimistic);
    Alcotest.test_case "tpcc end-to-end under OCC + consistency" `Slow
      (tpcc_end_to_end Types.Optimistic);
    Alcotest.test_case "driver measurement windows" `Quick driver_windows;
  ]
