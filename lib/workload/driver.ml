module Sim = Treaty_sim.Sim
module Cluster = Treaty_core.Cluster
module Client = Treaty_core.Client

type result = {
  stats : Stats.t;
  duration_ns : int;
  clients : int;
}

let run_clients cluster ~clients ~duration_ns ?(warmup_ns = 0)
    ?(first_client_id = 1) ~txn () =
  let sim = Cluster.sim cluster in
  let stats = Stats.create () in
  let start = Sim.now sim in
  let measure_from = start + warmup_ns in
  let deadline = start + warmup_ns + duration_ns in
  let (), _ =
    Sim.fan_out sim (List.init clients Fun.id) ~local:ignore (fun i ->
        let rng = Treaty_sim.Rng.split (Sim.rng sim) in
        match Client.connect cluster ~client_id:(first_client_id + i) with
        | Error (`Auth_failed | `Cas_down | `Timeout) -> ()
        | Ok client ->
            while Sim.now sim < deadline do
              let t0 = Sim.now sim in
              let outcome = txn client ~client_index:i rng in
              let t1 = Sim.now sim in
              if t0 >= measure_from && t1 <= deadline then
                match outcome with
                | Ok () -> Stats.record stats ~latency_ns:(t1 - t0)
                | Error _ -> Stats.record_abort stats
            done;
            Client.disconnect client)
  in
  { stats; duration_ns; clients }

let tps r = Stats.throughput_tps r.stats ~duration_ns:r.duration_ns
let mean_ms r = Stats.mean_latency_ms r.stats
let p99_ms r = Stats.percentile_ms r.stats 99.0
