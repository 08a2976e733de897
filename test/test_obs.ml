(* Observability: the log-scale histogram, the metrics registry, trace
   well-formedness over a real TPC-C run (root txn span down to group-commit
   flushes and ROTE rounds), and byte-identical trace determinism across
   same-seed chaos runs. *)

open Treaty_core
module Sim = Treaty_sim.Sim
module Rng = Treaty_sim.Rng
module W = Treaty_workload
module Trace = Treaty_obs.Trace
module Metrics = Treaty_obs.Metrics
module Hist = Treaty_obs.Metrics.Hist
module Chaos = Treaty_chaos.Chaos

let has_substring ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

(* --- histogram --------------------------------------------------------- *)

let hist_exact_low_range () =
  let h = Hist.create () in
  for i = 1 to 1000 do
    Hist.record h i
  done;
  Alcotest.(check int) "count" 1000 (Hist.count h);
  Alcotest.(check int) "sum" 500_500 (Hist.sum h);
  Alcotest.(check int) "max" 1000 (Hist.max_value h);
  (* Below 1024 every value has its own bucket: percentiles are exact under
     the rank convention ceil (p/100 * n). *)
  Alcotest.(check int) "p50" 500 (Hist.percentile h 50.0);
  Alcotest.(check int) "p99" 990 (Hist.percentile h 99.0);
  Alcotest.(check int) "p100" 1000 (Hist.percentile h 100.0)

let hist_bounded_error_high_range () =
  let h = Hist.create () in
  let vals = [ 1_500; 123_456; 7_654_321; 987_654_321; 1_000_000_000_000 ] in
  List.iter (Hist.record h) vals;
  Alcotest.(check int) "sum exact" (List.fold_left ( + ) 0 vals) (Hist.sum h);
  Alcotest.(check int) "max exact" 1_000_000_000_000 (Hist.max_value h);
  List.iteri
    (fun i v ->
      let p = 100.0 *. float_of_int (i + 1) /. float_of_int (List.length vals) in
      let got = Hist.percentile h p in
      let rel = abs_float (float_of_int (got - v) /. float_of_int v) in
      Alcotest.(check bool)
        (Printf.sprintf "value %d within 0.2%% (got %d)" v got)
        true (rel <= 0.002))
    vals

let hist_merge () =
  let a = Hist.create () and b = Hist.create () in
  for i = 1 to 100 do
    Hist.record a i;
    Hist.record b (i * 1000)
  done;
  let m = Hist.merge a b in
  Alcotest.(check int) "merged count" 200 (Hist.count m);
  Alcotest.(check int) "merged sum" (Hist.sum a + Hist.sum b) (Hist.sum m);
  Alcotest.(check int) "merged max" (Hist.max_value b) (Hist.max_value m)

(* --- registry ---------------------------------------------------------- *)

let registry_basics () =
  Metrics.reset ();
  Metrics.enable ();
  Metrics.incr "a.counter";
  Metrics.incr ~by:4 "a.counter";
  Metrics.set_gauge "b.gauge" 17;
  Metrics.observe "c.hist_ns" 1_000;
  Metrics.observe "c.hist_ns" 3_000;
  Alcotest.(check int) "counter" 5 (Metrics.value "a.counter");
  Alcotest.(check int) "gauge" 17 (Metrics.value "b.gauge");
  (match Metrics.hist "c.hist_ns" with
  | None -> Alcotest.fail "histogram missing"
  | Some h -> Alcotest.(check int) "hist count" 2 (Hist.count h));
  let d1 = Metrics.dump () in
  Alcotest.(check bool) "dump mentions counter" true
    (has_substring ~affix:"a.counter" d1);
  Metrics.disable ();
  Metrics.incr "a.counter";
  Metrics.observe "c.hist_ns" 9;
  Alcotest.(check string) "no-ops when disabled, dump stable" d1 (Metrics.dump ());
  Metrics.reset ()

(* --- trace well-formedness over TPC-C ---------------------------------- *)

let by_id spans =
  let t = Hashtbl.create (List.length spans) in
  List.iter (fun (s : Trace.info) -> Hashtbl.replace t s.id s) spans;
  t

(* Walk parent links; true if some ancestor satisfies [p]. *)
let has_ancestor tbl p (s : Trace.info) =
  let rec go id =
    if id = Trace.none then false
    else
      match Hashtbl.find_opt tbl id with
      | None -> false
      | Some (a : Trace.info) -> p a || go a.parent
  in
  go s.parent

let tpcc_trace_tree () =
  let sim = Sim.create () in
  Sim.run sim (fun () ->
      let config =
        Config.with_profile Config.default
          { Config.treaty_enc_stab with Config.trace = true; metrics = true }
      in
      let tpcc =
        { (W.Tpcc.config ~warehouses:3 ()) with W.Tpcc.items = 50; customers_per_district = 10 }
      in
      let route = W.Tpcc.route tpcc ~nodes:config.Config.nodes in
      match Cluster.create sim config ~route () with
      | Error m -> Alcotest.failf "cluster: %s" m
      | Ok cluster ->
          let c = Client.connect_exn cluster ~client_id:1 in
          let rng = Rng.create 4L in
          W.Tpcc.load tpcc c rng;
          List.iter
            (fun kind ->
              for _ = 1 to 8 do
                let home = 1 + Rng.int rng 3 in
                match W.Tpcc.run tpcc c rng ~nodes:3 ~home kind with
                | Ok () | Error Types.Rolled_back -> ()
                | Error _ -> Alcotest.fail "tpcc txn failed"
              done)
            [ W.Tpcc.New_order; W.Tpcc.Payment; W.Tpcc.Delivery ];
          Client.disconnect c;
          Cluster.publish_metrics cluster;
          let spans = Trace.spans () in
          let tbl = by_id spans in
          Alcotest.(check bool) "trace non-empty" true (spans <> []);
          (* Structural invariants over every span. *)
          List.iter
            (fun (s : Trace.info) ->
              if s.parent <> Trace.none then
                match Hashtbl.find_opt tbl s.parent with
                | None -> Alcotest.failf "span %d: dangling parent %d" s.id s.parent
                | Some p ->
                    if p.start_ns > s.start_ns then
                      Alcotest.failf "span %d (%s) starts before its parent %s"
                        s.id s.name p.name;
                    (* Parent must have been open when the child started
                       (children may outlive the parent, e.g. rote.round). *)
                    if p.end_ns >= 0 && p.end_ns < s.start_ns then
                      Alcotest.failf "span %d (%s) starts after parent %s closed"
                        s.id s.name p.name;
              if s.end_ns >= 0 && s.end_ns < s.start_ns then
                Alcotest.failf "span %d (%s) ends before it starts" s.id s.name)
            spans;
          let named n (s : Trace.info) = s.name = n in
          let all n = List.filter (named n) spans in
          (* Every transaction root closed, with a status annotation. *)
          let txns = all "txn" in
          Alcotest.(check bool) "txn roots recorded" true (txns <> []);
          List.iter
            (fun (s : Trace.info) ->
              Alcotest.(check bool) "txn span closed" true (s.end_ns >= 0);
              Alcotest.(check bool) "txn span has status" true
                (List.mem_assoc "status" s.args))
            txns;
          let is_txn = named "txn" in
          let under_txn name =
            List.exists (has_ancestor tbl is_txn) (all name)
          in
          (* The full tree the issue asks for: txn -> 2PC phases -> group
             commit flushes -> ROTE stabilization rounds. *)
          Alcotest.(check bool) "execute under txn" true (under_txn "execute");
          Alcotest.(check bool) "prepare under txn" true (under_txn "prepare");
          Alcotest.(check bool) "commit under txn" true (under_txn "commit");
          Alcotest.(check bool) "clog flush under txn" true (under_txn "clog.flush");
          Alcotest.(check bool) "rote round under txn" true (under_txn "rote.round");
          Alcotest.(check bool) "rpc handle spans exist" true (all "rpc.handle" <> []);
          Alcotest.(check bool) "cross-node rpc.handle linked" true
            (List.exists
               (fun (s : Trace.info) -> s.parent <> Trace.none)
               (all "rpc.handle"));
          (* Metrics rode along: waits were attributed, pipeline gauges set. *)
          Alcotest.(check bool) "rpc wait attributed" true
            (match Metrics.hist "rpc.wait_ns" with
            | Some h -> Hist.count h > 0
            | None -> false);
          Alcotest.(check bool) "pipeline gauges published" true
            (Metrics.value "pipeline.clog.items" > 0);
          Alcotest.(check bool) "fiber profile published" true
            (has_substring ~affix:"fiber." (Metrics.dump ()));
          (* Export is valid-ish JSON and flags nothing as unclosed-txn. *)
          let json = Trace.export_string () in
          Alcotest.(check bool) "export has trace events" true
            (has_substring ~affix:"\"traceEvents\"" json);
          Cluster.shutdown cluster);
  Trace.reset ();
  Metrics.reset ()

(* --- determinism ------------------------------------------------------- *)

let chaos_trace ~seed =
  let cfg = { Chaos.default_config with Chaos.trace = true } in
  (match Chaos.run_seed ~config:cfg ~seed () with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "chaos seed %d failed: %s" seed m);
  Trace.export_string ()

let trace_determinism () =
  let a = chaos_trace ~seed:11 in
  let b = chaos_trace ~seed:11 in
  Alcotest.(check bool) "trace non-trivial" true (String.length a > 1000);
  Alcotest.(check bool) "same seed, byte-identical trace" true (String.equal a b);
  (* Different seeds must not happen to collide: the trace reflects the run. *)
  let c = chaos_trace ~seed:12 in
  Alcotest.(check bool) "different seed, different trace" true
    (not (String.equal c a));
  Trace.reset ()

let suite =
  [
    Alcotest.test_case "hist exact below 1024" `Quick hist_exact_low_range;
    Alcotest.test_case "hist 0.2% error above" `Quick hist_bounded_error_high_range;
    Alcotest.test_case "hist merge" `Quick hist_merge;
    Alcotest.test_case "metrics registry basics" `Quick registry_basics;
    Alcotest.test_case "tpcc trace tree well-formed" `Quick tpcc_trace_tree;
    Alcotest.test_case "same-seed chaos traces byte-identical" `Quick trace_determinism;
  ]
