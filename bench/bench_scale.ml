(* The scale sweep: 10-, 30- and 100-node clusters under one Zipfian YCSB
   workload over a million-key space. Nothing in the paper runs at this
   scale — the point is how the cost of a committed transaction grows with
   N, in simulator events, fabric packets and ROTE rounds. Each node's
   trusted counters live in a fixed 2f+1 protection group
   (Rote.protection_group), so all three should stay roughly flat in N; a
   cost that grows with N shows up here first.

   Per-txn counts are measured over the measurement window only: two
   Sim.at callbacks snapshot the counters at the window's start and end,
   so bootstrap, attestation and warmup are excluded.

   The key space is NOT pre-loaded (a million puts would dwarf the
   measurement window); keys materialize on first update and reads of
   still-missing keys are legitimate misses. The Zipfian skew (theta 0.99)
   keeps the hot set small, so the workload commits at a healthy rate
   anyway. *)

open Treaty_core
module Sim = Treaty_sim.Sim
module W = Treaty_workload

let sizes = [ 10; 30; 100 ]
let n_keys = 1_000_000

type counters = { events : int; packets : int; rote_rounds : int; alloc : float }

let snapshot sim cluster =
  {
    events = Sim.events_fired sim;
    packets = (Treaty_netsim.Net.stats (Cluster.net cluster)).packets;
    rote_rounds = List.assoc "rote.rounds" (Cluster.pipeline_counters cluster);
    alloc = Gc.allocated_bytes ();
  }

type row = {
  nodes : int;
  committed : int;
  aborted : int;
  tps : float;
  p99_ms : float;
  window : counters;  (* end minus start of the measurement window *)
  wall_s : float;
}

let run_size ~clients ~duration_ns ~warmup_ns ycsb nodes =
  let result = ref None in
  let t0 = Unix.gettimeofday () in
  Common.run_sim (fun sim ->
      let config =
        { (Common.base_config Config.treaty_enc_stab) with Config.nodes }
      in
      let cluster = Common.make_cluster sim config () in
      let start = Sim.now sim + warmup_ns in
      let first = ref None and last = ref None in
      ignore
        (Sim.at sim ~time:start (fun () -> first := Some (snapshot sim cluster)));
      ignore
        (Sim.at sim ~time:(start + duration_ns) (fun () ->
             last := Some (snapshot sim cluster)));
      let r =
        W.Driver.run_clients cluster ~clients ~duration_ns ~warmup_ns
          ~txn:(Common.ycsb_txn ycsb) ()
      in
      Cluster.shutdown cluster;
      match (!first, !last) with
      | Some a, Some b ->
          result :=
            Some
              ( r,
                {
                  events = b.events - a.events;
                  packets = b.packets - a.packets;
                  rote_rounds = b.rote_rounds - a.rote_rounds;
                  alloc = b.alloc -. a.alloc;
                } )
      | _ -> failwith "scale: measurement window never closed");
  let wall_s = Unix.gettimeofday () -. t0 in
  match !result with
  | None -> failwith "scale: run did not finish"
  | Some (r, window) ->
      {
        nodes;
        committed = W.Stats.committed r.W.Driver.stats;
        aborted = W.Stats.aborted r.W.Driver.stats;
        tps = W.Driver.tps r;
        p99_ms = W.Driver.p99_ms r;
        window;
        wall_s;
      }

let per_txn row n =
  if row.committed = 0 then 0. else float_of_int n /. float_of_int row.committed

let row_json row =
  Printf.sprintf
    "    {\"nodes\": %d, \"committed\": %d, \"aborted\": %d, \"tps\": %.1f, \
     \"p99_ms\": %.3f, \"events_per_txn\": %.1f, \"packets_per_txn\": %.1f, \
     \"rote_rounds_per_txn\": %.2f, \"alloc_bytes_per_txn\": %.0f, \
     \"wall_seconds\": %.2f}"
    row.nodes row.committed row.aborted row.tps row.p99_ms
    (per_txn row row.window.events)
    (per_txn row row.window.packets)
    (per_txn row row.window.rote_rounds)
    (if row.committed = 0 then 0.
     else row.window.alloc /. float_of_int row.committed)
    row.wall_s

let run () =
  Common.section
    (Printf.sprintf "Scale: %s nodes, %dk-key Zipfian YCSB"
       (String.concat "/" (List.map string_of_int sizes))
       (n_keys / 1000));
  let clients = if !Common.full_mode then 64 else 16 in
  let duration_ns =
    if !Common.full_mode then 1_000_000_000 else 200_000_000
  in
  let warmup_ns = if !Common.full_mode then 100_000_000 else 50_000_000 in
  let ycsb =
    {
      W.Ycsb.default with
      W.Ycsb.n_keys;
      distribution = `Zipfian 0.99;
      value_size = 100;
    }
  in
  let rows =
    List.map
      (fun nodes ->
        let row = run_size ~clients ~duration_ns ~warmup_ns ycsb nodes in
        Printf.printf
          "  %3d nodes: %4d committed / %3d aborted, %7.1f tps, p99 %6.2f ms | \
           per txn: %7.0f events, %5.0f packets, %5.2f rote rounds | %.1fs wall\n%!"
          nodes row.committed row.aborted row.tps row.p99_ms
          (per_txn row row.window.events)
          (per_txn row row.window.packets)
          (per_txn row row.window.rote_rounds)
          row.wall_s;
        row)
      sizes
  in
  let oc = open_out "BENCH_scale.json" in
  Printf.fprintf oc
    "{\n\
    \  \"bench\": \"scale\",\n\
    \  \"mode\": %S,\n\
    \  \"keys\": %d,\n\
    \  \"clients\": %d,\n\
    \  \"rows\": [\n\
     %s\n\
    \  ]\n\
     }\n"
    (if !Common.full_mode then "full" else "quick")
    n_keys clients
    (String.concat ",\n" (List.map row_json rows));
  close_out oc;
  Printf.printf "  wrote BENCH_scale.json\n%!"
