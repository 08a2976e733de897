(* Treaty command-line driver: run workloads against a simulated cluster,
   inspect a recovery, or mount an attack — without writing OCaml.

     treaty run   --workload ycsb --profile treaty-enc-stab --clients 32
     treaty run   --workload tpcc --warehouses 10 --duration-ms 500
     treaty attack --kind rollback --profile treaty-enc-stab
     treaty recover --profile treaty-enc --crash-after 20 *)

open Treaty_core
module Sim = Treaty_sim.Sim
module W = Treaty_workload
module Trace = Treaty_obs.Trace
module Metrics = Treaty_obs.Metrics

let profiles =
  [
    ("ds-rocksdb", Config.ds_rocksdb);
    ("native", Config.native_treaty);
    ("native-enc", Config.native_treaty_enc);
    ("treaty", Config.treaty_no_enc);
    ("treaty-enc", Config.treaty_enc);
    ("treaty-enc-stab", Config.treaty_enc_stab);
  ]

let profile_conv =
  Cmdliner.Arg.enum profiles

let mk_config profile nodes = { (Config.with_profile Config.default profile) with Config.nodes }

let bootstrap sim config ?route () =
  match Cluster.create sim config ?route () with
  | Ok c -> c
  | Error m ->
      Printf.eprintf "cluster bootstrap failed: %s\n" m;
      exit 1

(* --- run ---------------------------------------------------------------- *)

(* Load the store before measuring; a failed load stops the run. *)
let preload cluster load =
  match W.Driver.preload cluster load with
  | () -> ()
  | exception (W.Ycsb.Load_failure m | W.Tpcc.Load_failure m) ->
      Printf.eprintf "treaty run: %s\n" m;
      exit 1

let report_sanitizer cluster =
  if (Cluster.config cluster).Config.profile.Config.sanitize then
    match Cluster.sanitize_check cluster with
    | Ok () -> Printf.printf "sanitizer: clean\n"
    | Error m ->
        Printf.printf "sanitizer: %s\n" m;
        exit 1

(* Post-run observability reporting, shared by the run-command workloads:
   the registry-backed pipeline line (the old bespoke pipeline_stats record
   folded into gauges), the full metrics dump, and the Chrome trace. *)
let report_obs ~trace_file ~metrics cluster =
  Printf.printf "pipeline: %s\n" (Cluster.pipeline_summary cluster);
  if metrics then begin
    Cluster.publish_metrics cluster;
    print_string (Metrics.dump ())
  end;
  match trace_file with
  | None -> ()
  | Some f ->
      Trace.export_file f;
      Printf.printf "trace: wrote %s (chrome://tracing or ui.perfetto.dev)\n" f

let run_cmd profile cc sanitize nodes workload clients duration_ms warehouses
    read_pct trace_file metrics =
  let profile = if sanitize then { profile with Config.sanitize = true } else profile in
  let profile =
    { profile with Config.trace = trace_file <> None; metrics }
  in
  if sanitize then Treaty_util.Sanitizer.reset ();
  let sim = Sim.create () in
  Sim.run sim (fun () ->
      let config = { (mk_config profile nodes) with Config.isolation = cc } in
      Printf.printf "profile: %s (%s), %d nodes, %d clients, %s for %d ms\n%!"
        (Config.profile_name profile)
        (match cc with
        | Types.Pessimistic -> "2pl"
        | Types.Optimistic -> "occ")
        nodes clients workload duration_ms;
      let cluster, txn =
        match workload with
        | "ycsb" ->
            let ycsb =
              { W.Ycsb.default with W.Ycsb.read_fraction = float_of_int read_pct /. 100.0 }
            in
            let cluster = bootstrap sim config () in
            preload cluster (W.Ycsb.load ycsb);
            (* Under OCC the client declares all-read transactions
               read-only so they take the zero-RPC snapshot path. *)
            (cluster, W.Ycsb.terminal ~ro_fast_path:(cc = Types.Optimistic) ycsb)
        | "tpcc" ->
            let tpcc = W.Tpcc.config ~warehouses () in
            let cluster = bootstrap sim config ~route:(W.Tpcc.route tpcc ~nodes) () in
            preload cluster (fun loader ->
                W.Tpcc.load tpcc loader (Treaty_sim.Rng.create 7L));
            (cluster, W.Tpcc.terminal tpcc ~nodes)
        | other ->
            Printf.eprintf "unknown workload %S (ycsb | tpcc)\n" other;
            exit 1
      in
      let r =
        W.Driver.run_clients cluster ~clients
          ~duration_ns:(duration_ms * 1_000_000) ~txn ()
      in
      Printf.printf "%d committed, %d aborted, %.1f tps, lat mean %.2f ms p50 %.2f p99 %.2f\n"
        (W.Driver.committed r) r.W.Driver.aborted (W.Driver.tps r)
        (W.Driver.mean_ms r) (W.Driver.percentile_ms r 50.0)
        (W.Driver.percentile_ms r 99.0);
      report_obs ~trace_file ~metrics cluster;
      report_sanitizer cluster;
      Cluster.shutdown cluster)

(* --- attack ------------------------------------------------------------- *)

let attack_cmd profile kind =
  let sim = Sim.create () in
  Sim.run sim (fun () ->
      let config = mk_config profile 3 in
      let cluster = bootstrap sim config () in
      let c = Client.connect_exn cluster ~client_id:1 in
      let put k v = Client.with_txn c (fun txn -> Client.put c txn k v) in
      (match kind with
      | "rollback" ->
          for i = 0 to 8 do
            ignore (put (Printf.sprintf "k%d" i) "old")
          done;
          let ssd = Cluster.node_ssd cluster 0 in
          let snap = Treaty_storage.Ssd.snapshot ssd in
          for i = 0 to 8 do
            ignore (put (Printf.sprintf "k%d" i) "new")
          done;
          Cluster.crash_node cluster 0;
          Treaty_storage.Ssd.restore ssd snap;
          (match Cluster.restart_node cluster 0 with
          | Error m -> Printf.printf "rollback DETECTED: %s\n" m
          | Ok () -> Printf.printf "rollback UNDETECTED (profile has no stabilization)\n")
      | "tamper" ->
          ignore (put "t" "v");
          Cluster.crash_node cluster 0;
          let ssd = Cluster.node_ssd cluster 0 in
          List.iter
            (fun f -> Treaty_storage.Ssd.tamper ssd f ~off:(Treaty_storage.Ssd.size ssd f / 2))
            (Treaty_storage.Ssd.list_files ssd);
          (match Cluster.restart_node cluster 0 with
          | Error m -> Printf.printf "tampering DETECTED: %s\n" m
          | Ok () -> Printf.printf "node restarted on tampered storage\n")
      | "replay" ->
          Treaty_netsim.Net.capture (Cluster.net cluster) ~limit:64;
          ignore (put "r" "1");
          List.iter
            (Treaty_netsim.Net.replay (Cluster.net cluster))
            (Treaty_netsim.Net.captured (Cluster.net cluster));
          Sim.sleep sim 20_000_000;
          let suppressed =
            List.fold_left
              (fun acc i ->
                acc + (Treaty_rpc.Erpc.stats (Node.rpc (Cluster.node cluster i))).replays_suppressed)
              0 [ 0; 1; 2 ]
          in
          Printf.printf "replayed all captured packets: %d duplicates suppressed\n" suppressed
      | other ->
          Printf.eprintf "unknown attack %S (rollback | tamper | replay)\n" other;
          exit 1);
      Client.disconnect c;
      Cluster.shutdown cluster)

(* --- recover ------------------------------------------------------------ *)

let recover_cmd profile crash_after =
  let sim = Sim.create () in
  Sim.run sim (fun () ->
      let config = mk_config profile 3 in
      let cluster = bootstrap sim config () in
      let c = Client.connect_exn cluster ~client_id:1 in
      for i = 0 to crash_after - 1 do
        ignore (Client.with_txn c (fun txn -> Client.put c txn (Printf.sprintf "k%d" i) "v"))
      done;
      Printf.printf "committed %d txs; crashing node 1...\n%!" crash_after;
      Cluster.crash_node cluster 0;
      let t0 = Sim.now sim in
      (match Cluster.restart_node cluster 0 with
      | Ok () ->
          Printf.printf "recovered in %.2f ms simulated (attestation + log replay + verification)\n"
            (float_of_int (Sim.now sim - t0) /. 1e6)
      | Error m -> Printf.printf "recovery failed: %s\n" m);
      let missing = ref 0 in
      ignore
        (Client.with_txn c (fun txn ->
             for i = 0 to crash_after - 1 do
               match Client.get c txn (Printf.sprintf "k%d" i) with
               | Ok (Some _) -> ()
               | _ -> incr missing
             done;
             Ok ()));
      Printf.printf "post-recovery: %d/%d keys intact\n" (crash_after - !missing) crash_after;
      Client.disconnect c;
      Cluster.shutdown cluster)

(* --- chaos --------------------------------------------------------------- *)

let chaos_cmd seeds first_seed nodes clients horizon_ms cc seed_opt trace_file =
  (* --seed N: run exactly that one seed (the replay-and-trace workflow). *)
  let seeds, first_seed =
    match seed_opt with Some s -> (1, s) | None -> (seeds, first_seed)
  in
  let cfg =
    {
      Treaty_chaos.Chaos.default_config with
      Treaty_chaos.Chaos.nodes;
      clients;
      horizon_ns = horizon_ms * 1_000_000;
      cc;
      trace = trace_file <> None;
    }
  in
  let failures = ref 0 in
  for seed = first_seed to first_seed + seeds - 1 do
    (match Treaty_chaos.Chaos.run_seed ~config:cfg ~seed () with
    | Ok r ->
        Format.printf "PASS %a@." Treaty_chaos.Chaos.pp_report r
    | Error m ->
        incr failures;
        Printf.printf "FAIL seed=%d: %s\n%!" seed m);
    (* Traces are per seed; with a multi-seed sweep the file holds the last
       run (use --seed to trace a specific one). *)
    match trace_file with
    | Some f ->
        Trace.export_file f;
        Printf.printf "trace: wrote %s for seed %d\n%!" f seed
    | None -> ()
  done;
  Printf.printf "%d/%d seeds passed\n" (seeds - !failures) seeds;
  if !failures > 0 then exit 1

(* --- cmdliner wiring ------------------------------------------------------ *)

open Cmdliner

let profile_arg =
  Arg.(value & opt profile_conv Config.treaty_enc_stab
       & info [ "profile" ] ~doc:"Security profile: $(docv)."
           ~docv:"ds-rocksdb|native|native-enc|treaty|treaty-enc|treaty-enc-stab")

let nodes_arg = Arg.(value & opt int 3 & info [ "nodes" ] ~doc:"Storage nodes.")
let clients_arg = Arg.(value & opt int 16 & info [ "clients" ] ~doc:"Closed-loop clients.")
let duration_arg = Arg.(value & opt int 300 & info [ "duration-ms" ] ~doc:"Measured window (simulated ms).")
let workload_arg = Arg.(value & opt string "ycsb" & info [ "workload" ] ~doc:"ycsb or tpcc.")
let warehouses_arg = Arg.(value & opt int 4 & info [ "warehouses" ] ~doc:"TPC-C warehouses.")
let read_pct_arg = Arg.(value & opt int 50 & info [ "read-pct" ] ~doc:"YCSB read percentage.")
let attack_arg = Arg.(value & opt string "rollback" & info [ "kind" ] ~doc:"rollback, tamper or replay.")
let crash_after_arg = Arg.(value & opt int 20 & info [ "crash-after" ] ~doc:"Transactions before the crash.")
let seeds_arg = Arg.(value & opt int 50 & info [ "seeds" ] ~doc:"How many fault schedules to sweep.")
let first_seed_arg = Arg.(value & opt int 1 & info [ "first-seed" ] ~doc:"First seed of the sweep.")
let chaos_clients_arg = Arg.(value & opt int 3 & info [ "clients" ] ~doc:"Workload clients per run.")
let horizon_arg = Arg.(value & opt int 600 & info [ "horizon-ms" ] ~doc:"Fault window length (simulated ms).")
let cc_arg =
  Arg.(value
       & opt (enum [ ("2pl", Types.Pessimistic); ("occ", Types.Optimistic) ])
           Types.Pessimistic
       & info [ "cc" ]
           ~doc:"Concurrency-control mode: $(docv). 2pl (default) takes \
                 read/write locks as operations execute; occ buffers \
                 lock-free reads against the begin snapshot and validates \
                 them at prepare, and all-read transactions take the \
                 zero-RPC read-only snapshot path."
           ~docv:"2pl|occ")

let sanitize_arg =
  Arg.(value & flag
       & info [ "sanitize" ]
           ~doc:"Run under TreatySan: lockset tracking, the fiber-starvation \
                 watchdog and plaintext-taint checks, with a verdict after \
                 the run (non-zero exit on violations).")

let trace_arg =
  Arg.(value & opt (some string) None
       & info [ "trace" ]
           ~doc:"Record a distributed trace of the run and write it to \
                 $(docv) as Chrome trace_event JSON (open in chrome://tracing \
                 or ui.perfetto.dev). Deterministic: same seed, same bytes."
           ~docv:"FILE")

let metrics_arg =
  Arg.(value & flag
       & info [ "metrics" ]
           ~doc:"Dump the metrics registry after the run: abort-reason \
                 taxonomy, lock/stabilization/network wait histograms, \
                 fiber-scheduler profile and pipeline gauges.")

let single_seed_arg =
  Arg.(value & opt (some int) None
       & info [ "seed" ]
           ~doc:"Run exactly this one seed (overrides --seeds/--first-seed).")

let run_term =
  Term.(const run_cmd $ profile_arg $ cc_arg $ sanitize_arg $ nodes_arg
        $ workload_arg $ clients_arg $ duration_arg $ warehouses_arg
        $ read_pct_arg $ trace_arg $ metrics_arg)

let cmds =
  [
    Cmd.v (Cmd.info "run" ~doc:"Run a workload against a simulated cluster") run_term;
    Cmd.v (Cmd.info "attack" ~doc:"Mount an attack and report detection")
      Term.(const attack_cmd $ profile_arg $ attack_arg);
    Cmd.v (Cmd.info "recover" ~doc:"Crash a node and time its recovery")
      Term.(const recover_cmd $ profile_arg $ crash_after_arg);
    Cmd.v
      (Cmd.info "chaos"
         ~doc:
           "Sweep seeded fault schedules (crashes, partitions, CAS outages, \
            delay/duplication) and check serializability, durability, \
            atomicity and leak-freedom after each.")
      Term.(const chaos_cmd $ seeds_arg $ first_seed_arg $ nodes_arg
            $ chaos_clients_arg $ horizon_arg $ cc_arg $ single_seed_arg
            $ trace_arg);
  ]

let () =
  exit (Cmd.eval (Cmd.group (Cmd.info "treaty" ~doc:"Treaty: secure distributed transactions") cmds))
