(* Concurrency-control ablation (PR 6): distributed YCSB under 2PL vs OCC
   with the zero-RPC read-only fast path, 3 nodes, treaty-enc-stab.

   Three mixes bracket the design space: read-only (100%R — every
   transaction takes the snapshot fast path under occ), read-mostly (95%R —
   the fast path rides alongside occasional read-write transactions), and
   write-heavy (20%R — a regression guard: occ validation must not tax a
   mix the fast path barely touches, and 2pl must be unchanged within
   noise). Each row reports throughput, latency, aborts, and how many
   transactions the fast path absorbed. *)

open Treaty_core
module W = Treaty_workload

type row = {
  tps : float;
  mean_ms : float;
  p99_ms : float;
  committed : int;
  aborted : int;
  ro_txns : int;
}

let modes = [ ("2pl", Types.Pessimistic); ("occ", Types.Optimistic) ]

let run_one ~isolation ~read_fraction =
  Common.run_sim (fun sim ->
      let ycsb = { W.Ycsb.default with W.Ycsb.read_fraction } in
      let config =
        { (Common.base_config Config.treaty_enc_stab) with Config.isolation }
      in
      let cluster = Common.ycsb_cluster sim config ycsb in
      let ro_fast_path = isolation = Types.Optimistic in
      let r =
        Common.drive cluster ~clients:(Common.scale_clients 96)
          (W.Ycsb.terminal ~ro_fast_path ycsb)
      in
      let ro_txns =
        List.fold_left
          (fun acc i ->
            acc + (Node.stats (Cluster.node cluster i)).Node.read_only_committed)
          0
          (List.init (Cluster.n_nodes cluster) Fun.id)
      in
      Cluster.shutdown cluster;
      {
        tps = W.Driver.tps r;
        mean_ms = W.Driver.mean_ms r;
        p99_ms = W.Driver.percentile_ms r 99.0;
        committed = W.Driver.committed r;
        aborted = r.W.Driver.aborted;
        ro_txns;
      })

let print label (r : row) =
  Printf.printf
    "  %-6s %10.1f tps   lat %6.2f ms (p99 %6.2f)   %6d committed   %4d \
     aborted   %6d via ro fast path\n%!"
    label r.tps r.mean_ms r.p99_ms r.committed r.aborted r.ro_txns

let json_row ~mix ~mode (r : row) =
  Printf.sprintf
    "    { \"mix\": %S, \"cc\": %S, \"tps\": %.1f, \"mean_ms\": %.3f, \
     \"p99_ms\": %.3f, \"committed\": %d, \"aborted\": %d, \"ro_txns\": %d }"
    mix mode r.tps r.mean_ms r.p99_ms r.committed r.aborted r.ro_txns

let run () =
  Common.section "Concurrency-control ablation: 2PL vs OCC + read-only fast path";
  let mixes =
    [ ("read-only", 1.0); ("read-mostly", 0.95); ("write-heavy", 0.2) ]
  in
  let rows =
    List.concat_map
      (fun (mix, read_fraction) ->
        Common.subsection
          (Printf.sprintf "%s (%.0f%% reads)" mix (read_fraction *. 100.0));
        let rows =
          List.map
            (fun (mode, isolation) ->
              let r = run_one ~isolation ~read_fraction in
              print mode r;
              (mode, r))
            modes
        in
        (match (List.assoc_opt "2pl" rows, List.assoc_opt "occ" rows) with
        | Some p, Some o when p.tps > 0.0 ->
            Printf.printf "  occ/2pl speedup: %.2fx\n%!" (o.tps /. p.tps)
        | _ -> ());
        List.map (fun (mode, r) -> json_row ~mix ~mode r) rows)
      mixes
  in
  Common.write_json "cc" [ ("rows", Common.json_array rows) ];
  Printf.printf "  wrote BENCH_cc.json\n%!"
