module Sim = Treaty_sim.Sim
module Cluster = Treaty_core.Cluster
module Client = Treaty_core.Client
module Hist = Treaty_obs.Metrics.Hist

type result = { latency_ns : Hist.t; aborted : int; duration_ns : int }

let preload cluster load =
  let loader = Client.connect_exn cluster ~client_id:900 in
  load loader;
  Client.disconnect loader

let run_clients cluster ~clients ~duration_ns ?(warmup_ns = 0) ~txn () =
  let sim = Cluster.sim cluster in
  let latency_ns = Hist.create () and aborted = ref 0 in
  let start = Sim.now sim in
  let measure_from = start + warmup_ns in
  let deadline = start + warmup_ns + duration_ns in
  let (), _ =
    Sim.fan_out sim (List.init clients Fun.id) ~local:ignore (fun i ->
        let rng = Treaty_sim.Rng.split (Sim.rng sim) in
        match Client.connect cluster ~client_id:(1 + i) with
        | Error (`Auth_failed | `Cas_down | `Timeout) -> ()
        | Ok client ->
            while Sim.now sim < deadline do
              let t0 = Sim.now sim in
              let outcome = txn client ~client_index:i rng in
              let t1 = Sim.now sim in
              if t0 >= measure_from && t1 <= deadline then
                match outcome with
                | Ok () -> Hist.record latency_ns (t1 - t0)
                | Error _ -> incr aborted
            done;
            Client.disconnect client)
  in
  { latency_ns; aborted = !aborted; duration_ns }

let committed r = Hist.count r.latency_ns

let tps r =
  if r.duration_ns <= 0 then 0.0
  else float_of_int (committed r) /. (float_of_int r.duration_ns /. 1e9)

let mean_ms r = Hist.mean r.latency_ns /. 1e6
let percentile_ms r p = float_of_int (Hist.percentile r.latency_ns p) /. 1e6
