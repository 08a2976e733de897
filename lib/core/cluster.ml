module Sim = Treaty_sim.Sim
module Enclave = Treaty_tee.Enclave
module Erpc = Treaty_rpc.Erpc
module Secure_msg = Treaty_rpc.Secure_msg
module Mempool = Treaty_memalloc.Mempool
module Net = Treaty_netsim.Net
module Ssd = Treaty_storage.Ssd
module Cas = Treaty_cas.Cas
module Las = Treaty_cas.Las
module Keys = Treaty_crypto.Keys
module Trace = Treaty_obs.Trace
module Metrics = Treaty_obs.Metrics

(* The CAS's network id must stay clear of the storage-node range (ids
   1..nodes): [Net.register] replaces handlers, so a storage node sharing the
   CAS's id would silently swallow every attestation request. Clients live at
   1000+, so 900 is safe for clusters up to 899 nodes. *)
let cas_id = 900
let code_identity = "treaty-node-v1"

type slot = Live of Node.t | Crashed of Treaty_storage.Ssd.t

type t = {
  sim : Sim.t;
  config : Config.t;
  net : Net.t;
  mutable cas : Cas.t option;
  cas_las : (int, Las.t) Hashtbl.t;
  nodes : slot array;
  restarting : bool array;
      (* A restart of this slot is attesting or recovering: a second one
         would build a second incarnation on the same disk. *)
  master : Keys.master;
  master_secret : string;
  route : string -> int;
  history : Serializability.t option;
  incarnations : (int, int) Hashtbl.t;
      (* Endpoint wire id -> enclaves built for it so far. *)
}

let sim t = t.sim
let config t = t.config
let net t = t.net
let history t = t.history
let master t = t.master

let node t i =
  match t.nodes.(i) with
  | Live n -> n
  | Crashed _ -> invalid_arg (Printf.sprintf "Cluster.node: node %d is crashed" i)

let node_ids t =
  let ids = ref [] in
  Array.iteri
    (fun i slot -> match slot with Live _ -> ids := (i + 1) :: !ids | Crashed _ -> ())
    t.nodes;
  List.rev !ids

let n_nodes t = Array.length t.nodes
let route_key t key = 1 + (t.route key mod Array.length t.nodes)

let node_ssd t i =
  match t.nodes.(i) with Live n -> Node.ssd n | Crashed ssd -> ssd

let total_committed t =
  Array.fold_left
    (fun acc slot ->
      match slot with Live n -> acc + (Node.stats n).committed | Crashed _ -> acc)
    0 t.nodes

let total_aborted t =
  Array.fold_left
    (fun acc slot ->
      match slot with Live n -> acc + (Node.stats n).aborted | Crashed _ -> acc)
    0 t.nodes

(* Commit-pipeline batching counters, one (name, per-node reader) pair
   each. The names double as the registry gauge names (under a "pipeline."
   prefix); the fixed order keeps renderings deterministic. *)
let pipeline_readers =
  let module E = Treaty_storage.Engine in
  let group stats f n =
    match stats (Node.engine n) with
    | Some (s : Treaty_storage.Group_commit.stats) -> f s
    | None -> 0
  in
  let rote f n = f (Treaty_counter.Rote.stats (Node.rote n)) in
  let counter f n =
    match Node.counter_client n with
    | Some cc -> f (Treaty_counter.Counter_client.stats cc)
    | None -> 0
  in
  let rpc f n = f (Erpc.stats (Node.rpc n)) in
  [
    ("wal.items", group E.wal_group_stats (fun s -> s.items));
    ("wal.batches", group E.wal_group_stats (fun s -> s.batches));
    ("clog.items", group E.clog_group_stats (fun s -> s.items));
    ("clog.batches", group E.clog_group_stats (fun s -> s.batches));
    ("rote.rounds", rote (fun s -> s.rounds));
    ("rote.increments", rote (fun s -> s.increments));
    ("rote.targets", rote (fun s -> s.targets));
    ("counter.submits", counter (fun s -> s.submits));
    ("counter.rounds", counter (fun s -> s.rounds_started));
    ("counter.failed_waits", counter (fun s -> s.failed_waits));
    ("rpc.bursts_sent", rpc (fun s -> s.bursts_sent));
    ("rpc.burst_msgs", rpc (fun s -> s.burst_msgs));
    ( "crypto.ns",
      fun n -> (Treaty_tee.Enclave.stats (Node.enclave n)).crypto_ns );
  ]

(* [pipeline_readers] summed over live nodes. *)
let pipeline_counters t =
  List.map
    (fun (name, read) ->
      ( name,
        Array.fold_left
          (fun acc slot ->
            match slot with Live n -> acc + read n | Crashed _ -> acc)
          0 t.nodes ))
    pipeline_readers

let publish_metrics t =
  List.iter
    (fun (name, v) -> Metrics.set_gauge ("pipeline." ^ name) v)
    (pipeline_counters t);
  List.iter
    (fun (label, (p : Treaty_sched.Scheduler.fiber_profile)) ->
      let g suffix v =
        Metrics.set_gauge (Printf.sprintf "fiber.%s.%s" label suffix) v
      in
      g "spawned" p.spawned;
      g "completed" p.completed;
      g "wakeups" p.wakeups;
      g "run_ns" p.run_ns;
      g "suspended_ns" p.suspended_ns)
    (Sim.fiber_profile t.sim)

let pipeline_summary t =
  let c = pipeline_counters t in
  let v name = List.assoc name c in
  let ratio num den = if den = 0 then 0. else float_of_int num /. float_of_int den in
  Printf.sprintf
    "wal %d/%d (%.2f/batch) clog %d/%d (%.2f/batch) rote rounds=%d incs=%d \
     targets=%d (%.2f logs/round-pair) counter submits=%d rounds=%d \
     (%.2f/round) failed=%d bursts %d/%d (%.2f msgs/pkt)"
    (v "wal.items") (v "wal.batches")
    (ratio (v "wal.items") (v "wal.batches"))
    (v "clog.items") (v "clog.batches")
    (ratio (v "clog.items") (v "clog.batches"))
    (v "rote.rounds") (v "rote.increments") (v "rote.targets")
    (ratio (v "rote.targets") (v "rote.increments"))
    (v "counter.submits") (v "counter.rounds")
    (ratio (v "counter.submits") (v "counter.rounds"))
    (v "counter.failed_waits") (v "rpc.burst_msgs") (v "rpc.bursts_sent")
    (ratio (v "rpc.burst_msgs") (v "rpc.bursts_sent"))

let next_incarnation t ~endpoint =
  let i = Option.value (Hashtbl.find_opt t.incarnations endpoint) ~default:0 in
  Hashtbl.replace t.incarnations endpoint (i + 1);
  i

(* A minimal plain endpoint used only during attestation, before the node
   has any cluster secrets: an incarnation of its own under the node's wire
   id, halted once the handshake is over. *)
let bootstrap_rpc t ~node_id =
  let enclave =
    Enclave.create
      ~incarnation:(next_incarnation t ~endpoint:node_id)
      t.sim ~mode:t.config.profile.tee ~cost:t.config.cost ~cores:2 ~node_id
      ~code_identity
  in
  let pool = Mempool.create enclave in
  let config = Erpc.default_config ~security:Secure_msg.Plain in
  (enclave, Erpc.create t.sim ~net:t.net ~enclave ~pool ~config ~node_id ())

let attest_node t ~node_id =
  let enclave, rpc = bootstrap_rpc t ~node_id in
  let las =
    match Hashtbl.find_opt t.cas_las node_id with
    | Some las -> las
    | None ->
        let las = Las.deploy t.sim ~node_id in
        Hashtbl.replace t.cas_las node_id las;
        (match t.cas with Some cas -> Cas.deploy_las cas las | None -> ());
        las
  in
  let result = Cas.Attest.run ~rpc ~enclave ~las ~cas_node:cas_id in
  Enclave.halt enclave;
  result

(* Every call builds a new incarnation of the node, counted whether or not
   the build then succeeds: a failed recovery may already have sealed. *)
let deps_of t ~node_id =
  {
    Node.sim = t.sim;
    config = t.config;
    net = t.net;
    node_id;
    peers = List.init (Array.length t.nodes) (fun i -> i + 1);
    route = (fun key -> 1 + (t.route key mod Array.length t.nodes));
    master = t.master;
    history = t.history;
    incarnation = next_incarnation t ~endpoint:node_id;
  }

let create sim config ?route () =
  let route =
    (* Deterministic by construction: Hashtbl.hash here would make key
       routing a reproducibility hazard for seeded runs. *)
    Option.value route ~default:Treaty_util.Fnv.hash
  in
  (* Observability is reset-then-enabled per cluster so two seeded runs in
     one process start from identical collector state (the determinism
     contract of `treaty chaos --trace`). *)
  if config.Config.profile.trace then begin
    Trace.reset ();
    Trace.enable ~clock:(fun () -> Sim.now sim)
  end;
  if config.Config.profile.metrics then begin
    Metrics.reset ();
    Metrics.enable ();
    Sim.enable_fiber_profile sim
  end;
  if config.Config.profile.sanitize then begin
    Sim.enable_fiber_watchdog sim
      ~threshold_ns:config.Config.sanitize_fiber_stall_ns
      ~report:(fun detail ->
        Treaty_util.Sanitizer.record Treaty_util.Sanitizer.Fiber_stall detail);
    (* Plaintext taint only means something when sealing actually happens;
       plain profiles move plaintext everywhere by design. *)
    if config.Config.profile.encryption then Treaty_crypto.Taint.enable ()
  end;
  let net = Net.create sim config.Config.cost in
  let master_secret =
    Printf.sprintf "cluster-master-%Ld" (Treaty_sim.Rng.next_int64 (Sim.rng sim))
  in
  let t =
    {
      sim;
      config;
      net;
      cas = None;
      cas_las = Hashtbl.create 8;
      nodes = Array.init config.nodes (fun _ -> Crashed (Ssd.create sim config.cost));
      restarting = Array.make config.nodes false;
      master = Keys.master_of_secret master_secret;
      master_secret;
      route;
      history = (if config.record_history then Some (Serializability.create ()) else None);
      incarnations = Hashtbl.create 16;
    }
  in
  (* CAS bootstrap: its own enclave and endpoint, attested over IAS. *)
  let cas_enclave =
    Enclave.create
      ~incarnation:(next_incarnation t ~endpoint:cas_id)
      sim ~mode:config.profile.tee ~cost:config.cost ~cores:2 ~node_id:cas_id
      ~code_identity:"treaty-cas-v1"
  in
  let cas_pool = Mempool.create cas_enclave in
  let cas_rpc =
    Erpc.create sim ~net ~enclave:cas_enclave ~pool:cas_pool
      ~config:(Erpc.default_config ~security:Secure_msg.Plain)
      ~node_id:cas_id ()
  in
  let expected_measurement = Treaty_crypto.Sha256.digest_string code_identity in
  match
    Cas.bootstrap ~rpc:cas_rpc ~enclave:cas_enclave ~master_secret
      ~expected_measurement
      ~config_blob:(Printf.sprintf "treaty-cluster;nodes=%d" config.nodes)
  with
  | Error `Ias_rejected -> Error "CAS attestation rejected by IAS"
  | Ok cas -> (
      t.cas <- Some cas;
      (* Attest every storage node concurrently: the handshakes are
         independent (one bootstrap endpoint each, a shared CAS), and a
         sequential walk would put 100-node bootstrap at ~200 ms of
         simulated time — deep into any chaos fault schedule. Spawn order
         is fixed, so the interleaving is a pure function of the seed.
         Node startup stays sequential in id order below. *)
      let results = Array.make config.nodes None in
      let all_done = Sim.ivar () in
      let pending = ref config.nodes in
      for i = 0 to config.nodes - 1 do
        Sim.spawn sim (fun () ->
            results.(i) <- Some (attest_node t ~node_id:(i + 1));
            decr pending;
            if !pending = 0 then Sim.fill all_done ())
      done;
      Sim.read sim all_done;
      let failed = ref None in
      for i = 0 to config.nodes - 1 do
        if !failed = None then
          match results.(i) with
          | None | Some (Error `Rejected) ->
              failed := Some "node attestation rejected"
          | Some (Error `Cas_unreachable) -> failed := Some "CAS unreachable"
          | Some (Ok provision) ->
              if provision.Cas.Attest.master_secret <> master_secret then
                failed := Some "provisioned secret mismatch"
              else t.nodes.(i) <- Live (Node.create (deps_of t ~node_id:(i + 1)))
      done;
      match !failed with Some m -> Error m | None -> Ok t)

let client_token t ~client_id =
  match t.cas with
  | None -> Error `Cas_down
  | Some cas -> Ok (Cas.register_client cas ~client_id)

let crash_node t i =
  match t.nodes.(i) with
  | Live n -> t.nodes.(i) <- Crashed (Node.crash n)
  | Crashed _ -> ()

let restart_node t i =
  match t.nodes.(i) with
  | Live _ -> Ok ()
  | Crashed _ when t.restarting.(i) -> Error "a restart of this node is in progress"
  | Crashed ssd -> (
      t.restarting.(i) <- true;
      Fun.protect ~finally:(fun () -> t.restarting.(i) <- false) @@ fun () ->
      let node_id = i + 1 in
      (* A recovering node must re-attest before it can obtain the cluster
         secrets (§VI); a dead CAS therefore blocks recovery. *)
      match attest_node t ~node_id with
      | Error `Cas_unreachable -> Error "cannot recover: CAS unreachable"
      | Error `Rejected -> Error "cannot recover: attestation rejected"
      | Ok provision ->
          if provision.Cas.Attest.master_secret <> t.master_secret then
            Error "cannot recover: provisioned secret mismatch"
          else (
            match Node.recover_with (deps_of t ~node_id) ~ssd with
            | Error m -> Error m
            | Ok n ->
                t.nodes.(i) <- Live n;
                Ok ()))

let check_quiescent t =
  let leaks = ref [] in
  Array.iteri
    (fun i slot ->
      match slot with
      | Crashed _ -> ()
      | Live n ->
          let r = Node.residual_state n in
          if Node.residual_total r > 0 then
            leaks :=
              Printf.sprintf "node %d: %s" (i + 1) (Node.residual_to_string r)
              :: !leaks)
    t.nodes;
  match !leaks with
  | [] -> Ok ()
  | l -> Error (String.concat "; " (List.rev l))

let sanitize_check t =
  (* Sweep every live node's lock table for residual holders and its engine
     for orphaned snapshot retentions, then judge the run by the collected
     violations (warnings don't fail it). An orphaned retention means some
     path dropped a transaction without [Local_txn.finish] (or a read-only
     fast-path read leaked its pin): the compaction GC watermark is stuck. *)
  Array.iteri
    (fun i slot ->
      match slot with
      | Live n ->
          Lock_table.leak_check (Node.locks n);
          Treaty_memalloc.Mempool.leak_check (Node.pool n)
            ~what:(Printf.sprintf "node %d msgbufs" (i + 1));
          let pinned =
            Treaty_storage.Engine.active_snapshot_count (Node.engine n)
          in
          if pinned > 0 then
            Treaty_util.Sanitizer.record Treaty_util.Sanitizer.Snapshot_leak
              (Printf.sprintf "node %d: %d snapshot retention(s) at quiesce"
                 (i + 1) pinned)
      | Crashed _ -> ())
    t.nodes;
  (* No final watchdog scan: fibers still parked at drain-out were abandoned
     by design (see Sim.enable_fiber_watchdog); the periodic in-run scans
     already caught genuine starvation. *)
  let module San = Treaty_util.Sanitizer in
  if San.violations () = 0 then Ok () else Error (San.report ())

let crash_cas t =
  match t.cas with
  | Some cas ->
      Cas.shutdown cas;
      t.cas <- None
  | None -> ()

let shutdown t =
  Array.iter (function Live n -> Node.stop n | Crashed _ -> ()) t.nodes;
  crash_cas t;
  if t.config.profile.sanitize then Treaty_crypto.Taint.disable ()
