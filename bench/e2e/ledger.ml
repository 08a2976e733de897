(* The per-layer ledger: counters read from the public [stats] record of
   every layer on every live node, summed over the cluster, plus the
   simulator's event count and the process's allocation. A snapshot at
   each window edge turns them into window deltas. *)

open Treaty_core
module Sim = Treaty_sim.Sim
module Engine = Treaty_storage.Engine
module Ssd = Treaty_storage.Ssd
module Metrics = Treaty_obs.Metrics
module Trace = Treaty_obs.Trace

let group get n =
  match get (Node.engine n) with
  | None -> (0, 0)
  | Some (s : Treaty_storage.Group_commit.stats) -> (s.batches, s.items)

let counter_stat f n =
  match Node.counter_client n with
  | None -> 0
  | Some c -> f (Treaty_counter.Counter_client.stats c)

let node_counters : (string * (Node.t -> int)) list =
  [
    ("node.distributed", fun n -> (Node.stats n).distributed_committed);
    ("node.single", fun n -> (Node.stats n).single_node_committed);
    ("node.remote_ops", fun n -> (Node.stats n).remote_ops_served);
    ("lock.waits", fun n -> (Lock_table.stats (Node.locks n)).waits);
    ("lock.timeouts", fun n -> (Lock_table.stats (Node.locks n)).timeouts);
    ("engine.gets", fun n -> (Engine.stats (Node.engine n)).gets);
    ("engine.block_reads", fun n -> (Engine.stats (Node.engine n)).sst_block_reads);
    ("engine.cache_hits", fun n -> (Engine.stats (Node.engine n)).cache_hits);
    ("engine.cache_misses", fun n -> (Engine.stats (Node.engine n)).cache_misses);
    ("engine.bloom_neg", fun n -> (Engine.stats (Node.engine n)).bloom_negatives);
    ("engine.flushes", fun n -> (Engine.stats (Node.engine n)).flushes);
    ("engine.compactions", fun n -> (Engine.stats (Node.engine n)).compactions);
    ("wal.batches", fun n -> fst (group Engine.wal_group_stats n));
    ("wal.items", fun n -> snd (group Engine.wal_group_stats n));
    ("clog.batches", fun n -> fst (group Engine.clog_group_stats n));
    ("clog.items", fun n -> snd (group Engine.clog_group_stats n));
    ("ssd.reads", fun n -> (Ssd.stats (Node.ssd n)).reads);
    ("ssd.bytes_written", fun n -> (Ssd.stats (Node.ssd n)).bytes_written);
    ("rote.rounds", fun n -> (Treaty_counter.Rote.stats (Node.rote n)).rounds);
    ("rote.increments", fun n -> (Treaty_counter.Rote.stats (Node.rote n)).increments);
    ("rote.targets", fun n -> (Treaty_counter.Rote.stats (Node.rote n)).targets);
    ("counter.submits", counter_stat (fun s -> s.submits));
    ("counter.rounds", counter_stat (fun s -> s.rounds_started));
    ("counter.failed_waits", counter_stat (fun s -> s.failed_waits));
    ("erpc.requests", fun n -> (Treaty_rpc.Erpc.stats (Node.rpc n)).requests_sent);
    ("erpc.timeouts", fun n -> (Treaty_rpc.Erpc.stats (Node.rpc n)).timeouts);
    ("erpc.bursts", fun n -> (Treaty_rpc.Erpc.stats (Node.rpc n)).bursts_sent);
    ("erpc.burst_msgs", fun n -> (Treaty_rpc.Erpc.stats (Node.rpc n)).burst_msgs);
    ("enclave.crypto_ns", fun n -> (Treaty_tee.Enclave.stats (Node.enclave n)).crypto_ns);
    ("enclave.syscalls", fun n -> (Treaty_tee.Enclave.stats (Node.enclave n)).syscalls);
    ("enclave.page_faults", fun n -> (Treaty_tee.Enclave.stats (Node.enclave n)).page_faults);
    ("enclave.busy_ns", fun n -> Sim.Resource.busy_ns (Treaty_tee.Enclave.cpu (Node.enclave n)));
  ]

let cluster_counters : (string * (Cluster.t -> int)) list =
  [
    ("net.packets", fun c -> (Treaty_netsim.Net.stats (Cluster.net c)).packets);
    ("net.bytes", fun c -> (Treaty_netsim.Net.stats (Cluster.net c)).bytes);
    ("sim.events", fun c -> Sim.events_fired (Cluster.sim c));
    ( "sim.fiber_wakeups",
      fun c ->
        List.fold_left
          (fun acc (_, (p : Treaty_sched.Scheduler.fiber_profile)) -> acc + p.wakeups)
          0
          (Sim.fiber_profile (Cluster.sim c)) );
  ]

type snapshot = { counters : (string * int) list; alloc : float }

let take cluster =
  let nodes = List.init (Cluster.n_nodes cluster) (Cluster.node cluster) in
  let counters =
    List.map
      (fun (name, get) -> (name, List.fold_left (fun acc n -> acc + get n) 0 nodes))
      node_counters
    @ List.map (fun (name, get) -> (name, get cluster)) cluster_counters
  in
  { counters; alloc = Gc.allocated_bytes () }

(* Window deltas, summed over the sub-runs of a workload. *)
type delta = { d : (string, int) Hashtbl.t; mutable alloc_bytes : float }

let empty () = { d = Hashtbl.create 64; alloc_bytes = 0.0 }

let add_window acc ~start ~stop =
  List.iter2
    (fun (name, a) (_, b) ->
      Hashtbl.replace acc.d name (b - a + Option.value ~default:0 (Hashtbl.find_opt acc.d name)))
    start.counters stop.counters;
  acc.alloc_bytes <- acc.alloc_bytes +. (stop.alloc -. start.alloc)

let get acc name = Option.value ~default:0 (Hashtbl.find_opt acc.d name)

(* Registry readings at the window end of a traced run (the registry is
   reset at the window start): wait-time histograms and the per-node abort
   taxonomy. *)
let hist_names = [ "lock.wait_ns"; "stab.wait_ns"; "rpc.wait_ns" ]

let node_abort_reasons =
  [
    "lock_timeout";
    "participant_failed";
    "validation_conflict";
    "stabilization_unavailable";
    "client_abort";
    "abandoned";
  ]

type registry = { hists : (string * Metrics.Hist.t) list; node_aborts : (string * int) list }

let empty_registry () =
  { hists = List.map (fun n -> (n, Metrics.Hist.create ())) hist_names; node_aborts = [] }

let read_registry cluster =
  let ids = Cluster.node_ids cluster in
  {
    hists =
      List.map
        (fun n ->
          ( n,
            match Metrics.hist n with
            | Some h -> Metrics.Hist.merge h (Metrics.Hist.create ())
            | None -> Metrics.Hist.create () ))
        hist_names;
    node_aborts =
      List.map
        (fun r ->
          ( r,
            List.fold_left
              (fun acc id -> acc + Metrics.value (Printf.sprintf "n%d.abort.%s" id r))
              0 ids ))
        node_abort_reasons;
  }

let merge_registry a b =
  {
    hists = List.map2 (fun (n, x) (_, y) -> (n, Metrics.Hist.merge x y)) a.hists b.hists;
    node_aborts =
      List.map
        (fun r ->
          let v l = Option.value ~default:0 (List.assoc_opt r l) in
          (r, v a.node_aborts + v b.node_aborts))
        node_abort_reasons;
  }

(* Self time by span name over the spans that start inside the window: a
   span's duration minus the part of it that its children (on any node)
   cover. Returns (name, (spans, self ns)). *)
let self_times ~from ~until =
  let spans = Trace.spans () in
  let children = Hashtbl.create 4096 in
  List.iter
    (fun (s : Trace.info) ->
      if s.parent <> Trace.none && s.end_ns >= 0 then
        Hashtbl.add children s.parent (s.start_ns, s.end_ns))
    spans;
  let by_name = Hashtbl.create 32 in
  List.iter
    (fun (s : Trace.info) ->
      if s.start_ns >= from && s.start_ns < until && s.end_ns >= 0 then begin
        let kids =
          Hashtbl.find_all children s.id
          |> List.map (fun (a, b) -> (max a s.start_ns, min b s.end_ns))
          |> List.filter (fun (a, b) -> b > a)
          |> List.sort compare
        in
        let covered, _ =
          List.fold_left
            (fun (sum, reach) (a, b) ->
              let a = max a reach in
              if b > a then (sum + (b - a), b) else (sum, reach))
            (0, s.start_ns) kids
        in
        let n, self = Option.value ~default:(0, 0) (Hashtbl.find_opt by_name s.name) in
        Hashtbl.replace by_name s.name (n + 1, self + (s.end_ns - s.start_ns - covered))
      end)
    spans;
  Hashtbl.fold (fun name v acc -> (name, v) :: acc) by_name [] |> List.sort compare
