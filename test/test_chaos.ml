(* The fault-injection harness itself: determinism of the schedule
   generator, same-seed reproducibility of whole runs, a fault-free
   leak-freedom baseline for the quiescence checker, quorum loss inside one
   protection group, a sweeper regression found at 5 nodes, and the 7-node
   and 50-seed invariant sweeps — the tier-1 gate for crash/partition/replay
   handling. *)

open Treaty_core
module Sim = Treaty_sim.Sim
module Chaos = Treaty_chaos.Chaos
module Schedule = Treaty_chaos.Schedule

let schedule_deterministic () =
  let gen seed = Schedule.generate ~seed ~nodes:3 ~horizon_ns:600_000_000 in
  Alcotest.(check string) "same seed, same schedule"
    (Schedule.to_string (gen 11))
    (Schedule.to_string (gen 11));
  Alcotest.(check bool) "different seed, different schedule" true
    (Schedule.to_string (gen 11) <> Schedule.to_string (gen 12))

let run_reproducible () =
  (* A full run — workload, faults, recovery — replayed from the same seed
     must produce the identical schedule and outcome counts. This is what
     makes a FAIL line from the sweep a usable bug report. *)
  let run () =
    match Chaos.run_seed ~seed:7 () with
    | Ok r ->
        ( Schedule.to_string r.Chaos.schedule,
          (r.Chaos.committed, r.Chaos.aborted, r.Chaos.history_txs) )
    | Error m -> Alcotest.failf "seed 7: %s" m
  in
  let sched_a, counts_a = run () in
  let sched_b, counts_b = run () in
  Alcotest.(check string) "same fault schedule" sched_a sched_b;
  Alcotest.(check (triple int int int)) "same outcome counts" counts_a counts_b

let cc_modes_reproducible () =
  (* Determinism is per (seed, config): under either concurrency-control
     mode, replaying a traced seed must reproduce byte-identical trace
     JSON — the cc ablation may change outcomes but not determinism. *)
  let trace_of cc =
    let config = { Chaos.default_config with Chaos.cc; trace = true } in
    (match Chaos.run_seed ~config ~seed:7 () with
    | Ok _ -> ()
    | Error m ->
        Alcotest.failf "seed 7 (%s): %s"
          (match cc with
          | Types.Pessimistic -> "2pl"
          | Types.Optimistic -> "occ")
          m);
    Treaty_obs.Trace.export_string ()
  in
  let occ_a = trace_of Types.Optimistic in
  let occ_b = trace_of Types.Optimistic in
  Alcotest.(check bool) "occ trace byte-identical" true (occ_a = occ_b);
  let pess_a = trace_of Types.Pessimistic in
  let pess_b = trace_of Types.Pessimistic in
  Alcotest.(check bool) "2pl trace byte-identical" true (pess_a = pess_b)

let hundred_node_trace_identity () =
  (* The scale regime the event-engine rewrite targets: at 100 nodes the
     timer wheel's overflow heap, slot cascades and the network's
     same-instant deliveries are all exercised orders of magnitude harder than in
     the 3-node runs above — and determinism must hold just the same: two
     runs from one seed produce byte-identical trace JSON. *)
  let trace_of () =
    let config =
      { Chaos.default_config with Chaos.nodes = 100; clients = 8; trace = true }
    in
    (match Chaos.run_seed ~config ~seed:5 () with
     | Ok r ->
         Alcotest.(check bool)
           "workload made progress" true
           (r.Chaos.committed > 0)
     | Error m -> Alcotest.failf "seed 5 (100 nodes): %s" m);
    Treaty_obs.Trace.export_string ()
  in
  let a = trace_of () in
  let b = trace_of () in
  Alcotest.(check int) "trace sizes equal" (String.length a) (String.length b);
  Alcotest.(check bool) "100-node traces byte-identical" true (a = b)

let quiescent_baseline () =
  (* Leak-freedom without any faults: after a quiet period covering the
     dedup TTL and a couple of sweeps, no node may retain at-most-once
     cache entries, locks or transaction contexts. Establishes that a
     chaos-run quiescence failure really is fault-handling residue. *)
  let sim = Sim.create () in
  Sim.run sim (fun () ->
      let cfg =
        {
          (Config.with_profile Config.default Config.treaty_enc_stab) with
          Config.dedup_ttl_ns = 200_000_000;
          sweep_interval_ns = 100_000_000;
        }
      in
      match Cluster.create sim cfg () with
      | Error m -> Alcotest.failf "bootstrap: %s" m
      | Ok cluster ->
          let c = Client.connect_exn cluster ~client_id:1 in
          for i = 1 to 6 do
            match
              Client.with_txn c ~coord:((i mod 3) + 1) (fun txn ->
                  match Client.put c txn (Printf.sprintf "base:k%d" i) "v" with
                  | Ok () -> Client.put c txn (Printf.sprintf "base:j%d" i) "w"
                  | Error e -> Error e)
            with
            | Ok () -> ()
            | Error e -> Alcotest.failf "txn %d: %s" i (Types.abort_reason_to_string e)
          done;
          Client.disconnect c;
          Sim.sleep sim 1_000_000_000;
          (match Cluster.check_quiescent cluster with
          | Ok () -> ()
          | Error m -> Alcotest.failf "residual state after quiet period: %s" m);
          Cluster.shutdown cluster)

let sweep_50_seeds () =
  let failures = ref [] in
  for seed = 1 to 50 do
    (* Every seed runs the default profile, all optimisations on (burst
       coalescing, burst-level AEAD, epoch stabilization, Clog group
       commit, Bloom filters + verified block cache). Only the
       concurrency control alternates: even seeds run 2PL, odd seeds OCC
       (validation aborts racing crashes and partitions). *)
    let config =
      {
        Chaos.default_config with
        Chaos.cc = (if seed mod 2 = 0 then Types.Pessimistic else Types.Optimistic);
      }
    in
    match Chaos.run_seed ~config ~seed () with
    | Ok _ -> ()
    | Error m -> failures := (seed, m) :: !failures
  done;
  match List.rev !failures with
  | [] -> ()
  | (seed, m) :: _ as fs ->
      Alcotest.failf "%d/50 seeds failed; first: seed %d: %s" (List.length fs)
        seed m

(* Seven nodes make every protection group a proper subset. Node 1's group
   is wire ids [1; 2; 3]; crashing 2 and 3 (cluster indexes 1 and 2) with
   overlapping downtime takes it below quorum while every other group keeps
   one. The workload runs until 900 ms, 800 ms of them without that
   quorum. *)
let group_horizon_ns = 900_000_000

let group_crash_schedule =
  let ms n = n * 1_000_000 in
  {
    Schedule.seed = 0;
    nodes = 7;
    horizon_ns = group_horizon_ns;
    faults =
      [ Schedule.Crash_restart { node = 1; at_ns = ms 50; down_ns = ms 900 };
        Schedule.Crash_restart { node = 2; at_ns = ms 100; down_ns = ms 900 } ];
  }

let group_quorum_loss () =
  (* The client timeout outlasts the counter client's retry budget, so node
     1's unprotectable commits come back typed. The run's invariants then
     demand that acked writes survived and that node 1 commits again once
     its group is back. A transaction fails typed only if it writes node
     1's keys or node 1 coordinates it, so several must. *)
  let config =
    {
      Chaos.default_config with
      Chaos.nodes = 7;
      clients = 7;
      horizon_ns = group_horizon_ns;
      client_op_timeout_ns = 2_000_000_000;
    }
  in
  match Chaos.run_seed ~config ~schedule:group_crash_schedule ~seed:3 () with
  | Error m -> Alcotest.failf "group crash: %s" m
  | Ok r ->
      let unstable =
        Option.value ~default:0
          (List.assoc_opt Types.Stabilization_unavailable r.Chaos.aborts)
      in
      Alcotest.(check bool)
        (Printf.sprintf "typed Stabilization_unavailable aborts (%d)" unstable)
        true (unstable >= 3);
      Alcotest.(check bool) "other groups kept committing" true
        (r.Chaos.committed > 0)

let sweep_7_nodes () =
  (* Random schedules where groups are proper subsets: a crash or partition
     now costs quorum only in the groups that hold the node. Seed 190 rides
     along as a regression input: node 2 crashes again while the MANIFEST
     edit retiring its recovered WAL is still unstable, which once read as a
     WAL rollback on the next recovery. *)
  let config = { Chaos.default_config with Chaos.nodes = 7 } in
  List.iter
    (fun seed ->
      match Chaos.run_seed ~config ~seed () with
      | Ok _ -> ()
      | Error m -> Alcotest.failf "7 nodes, seed %d: %s" seed m)
    (List.init 12 succ @ [ 190 ])

let sweeper_spares_live_coordinator () =
  (* Regression: the sweeper took a coordinator's own prepared slice for an
     orphan, resolved it against its own decision and released the
     coordinator's locks while the commit phase was still installing — a
     waiting transfer then read the old balance and conservation broke. *)
  let config = { Chaos.default_config with Chaos.nodes = 5 } in
  match Chaos.run_seed ~config ~seed:16 () with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "5 nodes, seed 16: %s" m

let connect_failure_is_a_failed_seed () =
  (* Regression: a client that cannot connect mid-run (here a checker
     connecting after the faults, rejected with "client authentication
     failed") escaped [run_seed] as an uncaught [Client.Connect_failed].
     Whatever the outcome, the seed must come back as a result, and a
     failure must carry its replayable schedule. *)
  let config = { Chaos.default_config with Chaos.nodes = 7 } in
  match Chaos.run_seed ~config ~seed:157 () with
  | Ok _ -> ()
  | Error m ->
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "failure carries the schedule" true
        (contains m "schedule:")

let suite =
  [
    Alcotest.test_case "schedule generation is deterministic" `Quick
      schedule_deterministic;
    Alcotest.test_case "same seed reproduces the run" `Quick run_reproducible;
    Alcotest.test_case "cc modes are individually deterministic" `Quick
      cc_modes_reproducible;
    Alcotest.test_case "fault-free runs drain to zero residual state" `Quick
      quiescent_baseline;
    Alcotest.test_case "group quorum loss fails typed, then recovers" `Quick
      group_quorum_loss;
    Alcotest.test_case "12-seed 7-node fault sweep" `Slow sweep_7_nodes;
    Alcotest.test_case "sweeper spares a live coordinator's own slice" `Quick
      sweeper_spares_live_coordinator;
    Alcotest.test_case "a client connect failure fails the seed" `Quick
      connect_failure_is_a_failed_seed;
    Alcotest.test_case "100-node same-seed traces are byte-identical" `Slow
      hundred_node_trace_identity;
    Alcotest.test_case "50-seed fault sweep holds all invariants" `Slow
      sweep_50_seeds;
  ]
