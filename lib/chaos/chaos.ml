open Treaty_core
module Sim = Treaty_sim.Sim
module Rng = Treaty_sim.Rng
module Net = Treaty_netsim.Net
module Adversary = Treaty_netsim.Adversary
module Packet = Treaty_netsim.Packet

type config = {
  nodes : int;
  clients : int;
  horizon_ns : int;
  accounts : int;
  initial_balance : int;
  keys_per_client : int;
  drain_ns : int;
  cc : Types.isolation;
  trace : bool;
  client_op_timeout_ns : int;
}

let ms n = n * 1_000_000

let default_config =
  {
    nodes = 3;
    clients = 3;
    horizon_ns = ms 600;
    accounts = 8;
    initial_balance = 100;
    keys_per_client = 2;
    drain_ns = ms 1_500;
    cc = Types.Pessimistic;
    trace = false;
    client_op_timeout_ns = Config.default.client_op_timeout_ns;
  }

type report = {
  schedule : Schedule.t;
  committed : int;
  aborted : int;
  aborts : (Types.abort_reason * int) list;
  history_txs : int;
}

let pp_report fmt r =
  Format.fprintf fmt "seed=%d committed=%d aborted=%d history=%d faults=[%s]"
    r.schedule.Schedule.seed r.committed r.aborted r.history_txs
    (String.concat "; " (List.map Schedule.fault_to_string r.schedule.faults))

(* Short sweep/TTL knobs so residual state provably drains within the run,
   and a decision-query timeout above the largest delay spike a schedule can
   inject (otherwise prepared participants could never hear a decision). *)
let cluster_config cfg ~seed =
  (* Chaos always runs under TreatySan: a schedule that leaks a lockset,
     starves a fiber or spills plaintext should fail the seed even when the
     user-visible invariants still hold. *)
  let profile =
    {
      Config.treaty_enc_stab with
      sanitize = true;
      trace = cfg.trace;
    }
  in
  {
    (Config.with_profile Config.default profile) with
    Config.nodes = cfg.nodes;
    isolation = cfg.cc;
    record_history = true;
    decision_query_timeout_ns = ms 60;
    sweep_interval_ns = ms 100;
    part_prepared_resolve_ns = ms 200;
    part_stale_abort_ns = ms 500;
    coord_tx_abandon_ns = ms 1_000;
    dedup_ttl_ns = ms 600;
    client_op_timeout_ns = cfg.client_op_timeout_ns;
    seed = Int64.of_int (0x6b05 lxor seed);
  }

let acct_key i = Printf.sprintf "acct%d" i
let kv_key ~cid k = Printf.sprintf "c%d.k%d" cid k

exception Fail of string

let failf fmt = Printf.ksprintf (fun m -> raise (Fail m)) fmt
let reason = Types.abort_reason_to_string

let load_data cluster cfg =
  let loader = Client.connect_exn cluster ~client_id:900 in
  (match
     Client.with_txn loader (fun txn ->
         let rec put_accts i =
           if i >= cfg.accounts then Ok ()
           else
             match
               Client.put loader txn (acct_key i)
                 (string_of_int cfg.initial_balance)
             with
             | Ok () -> put_accts (i + 1)
             | Error e -> Error e
         in
         put_accts 0)
   with
  | Ok () -> ()
  | Error e -> failf "load accounts aborted: %s" (reason e));
  for cid = 0 to cfg.clients - 1 do
    match
      Client.with_txn loader (fun txn ->
          let rec put_keys k =
            if k >= cfg.keys_per_client then Ok ()
            else
              match Client.put loader txn (kv_key ~cid k) "v0" with
              | Ok () -> put_keys (k + 1)
              | Error e -> Error e
          in
          put_keys 0)
    with
    | Ok () -> ()
    | Error e -> failf "load client %d keys aborted: %s" cid (reason e)
  done;
  Client.disconnect loader

let install_adversary sim net (sched : Schedule.t) ~t0 ~seed =
  let dup_rng = Rng.create (Int64.of_int (seed lxor 0xd00d)) in
  let in_win (w : Schedule.window) now =
    now >= t0 + w.at_ns && now < t0 + w.at_ns + w.dur_ns
  in
  Net.set_adversary net (fun (pkt : Packet.t) ->
      let now = Sim.now sim in
      (* Faults attack the datacenter fabric (nodes + CAS); the client
         network stays clean so "client-acked" remains well defined. *)
      let fabric = pkt.src < 1000 && pkt.dst < 1000 in
      let rec eval = function
        | [] -> Adversary.Deliver
        | f :: rest -> (
            match f with
            | Schedule.Cas_blackout w
              when in_win w now
                   && (pkt.src = Cluster.cas_id || pkt.dst = Cluster.cas_id)
              ->
                Adversary.Drop
            | Schedule.Partition { window; island }
              when in_win window now && fabric
                   && (pkt.src = island) <> (pkt.dst = island) ->
                Adversary.Drop
            | Schedule.Delay_spike { window; extra_ns }
              when in_win window now && fabric ->
                Adversary.Delay extra_ns
            | Schedule.Duplicate_burst { window; percent }
              when in_win window now && fabric && Rng.int dup_rng 100 < percent
              ->
                Adversary.Duplicate
            | _ -> eval rest)
      in
      eval sched.faults)

(* One fiber per Crash_restart fault: wait, power-cycle, then insist on a
   successful restart (retrying while the CAS is blacked out / partitioned
   away, which legitimately blocks re-attestation). *)
let spawn_crash_faults sim cluster (sched : Schedule.t) ~on_done =
  let crashes =
    List.filter_map
      (function
        | Schedule.Crash_restart { node; at_ns; down_ns } ->
            Some (node, at_ns, down_ns)
        | _ -> None)
      sched.faults
  in
  List.iter
    (fun (node, at_ns, down_ns) ->
      Sim.spawn sim (fun () ->
          Sim.sleep sim at_ns;
          Cluster.crash_node cluster node;
          Sim.sleep sim down_ns;
          let rec retry n =
            match Cluster.restart_node cluster node with
            | Ok () -> ()
            | Error m when n = 0 -> failf "node %d never restarted: %s" node m
            | Error _ ->
                Sim.sleep sim (ms 50);
                retry (n - 1)
          in
          retry 100;
          on_done ()))
    crashes;
  List.length crashes

let spawn_workload sim workload_clients cfg ~seed ~t0 ~acked ~committed
    ~aborts ~on_done =
  Array.iteri
    (fun cid c ->
      let rng = Rng.create (Int64.of_int ((seed * 1009) + cid)) in
      let counters = Array.make cfg.keys_per_client 0 in
      Sim.spawn sim (fun () ->
          while Sim.now sim - t0 < cfg.horizon_ns do
            let dice = Rng.int rng 8 in
            let outcome =
              if dice >= 6 then begin
                (* Read-only audit over the zero-RPC snapshot fast path: the
                   reads land in the serializability history, so a snapshot
                   that exposed a non-committed prefix would fail the seed. *)
                let a = Rng.int rng cfg.accounts in
                let b =
                  (a + 1 + Rng.int rng (cfg.accounts - 1)) mod cfg.accounts
                in
                match Client.read_only c [ acct_key a; acct_key b ] with
                | Error e -> Error e
                | Ok kvs ->
                    List.iter
                      (fun (k, v) ->
                        match v with
                        | None -> failf "ro audit: account %s vanished" k
                        | Some v -> (
                            match int_of_string_opt v with
                            | Some _ -> ()
                            | None ->
                                failf "ro audit: %s has malformed balance %S"
                                  k v))
                      kvs;
                    Ok ()
              end
              else if dice >= 3 then begin
                (* Bank transfer between two distinct accounts: read both
                   balances, move a random amount. Conservation of the total
                   is the atomicity invariant. *)
                let a = Rng.int rng cfg.accounts in
                let b =
                  (a + 1 + Rng.int rng (cfg.accounts - 1)) mod cfg.accounts
                in
                Client.with_txn c (fun txn ->
                    match Client.get c txn (acct_key a) with
                    | Error e -> Error e
                    | Ok None -> Error Types.Integrity
                    | Ok (Some va) -> (
                        match Client.get c txn (acct_key b) with
                        | Error e -> Error e
                        | Ok None -> Error Types.Integrity
                        | Ok (Some vb) -> (
                            let amt = 1 + Rng.int rng 10 in
                            let va = int_of_string va
                            and vb = int_of_string vb in
                            match
                              Client.put c txn (acct_key a)
                                (string_of_int (va - amt))
                            with
                            | Error e -> Error e
                            | Ok () ->
                                Client.put c txn (acct_key b)
                                  (string_of_int (vb + amt)))))
              end
              else begin
                (* Private-key put with a monotone counter; remember the
                   last acked value for the durability check. *)
                let k = Rng.int rng cfg.keys_per_client in
                let next = counters.(k) + 1 in
                counters.(k) <- next;
                match
                  Client.with_txn c (fun txn ->
                      Client.put c txn (kv_key ~cid k)
                        (Printf.sprintf "v%d" next))
                with
                | Ok () ->
                    acked.(cid).(k) <- next;
                    Ok ()
                | Error e -> Error e
              end
            in
            (match outcome with
            | Ok () -> incr committed
            | Error e ->
                Hashtbl.replace aborts e
                  (1 + Option.value ~default:0 (Hashtbl.find_opt aborts e)));
            Sim.sleep sim (500_000 + Rng.int rng 2_000_000)
          done;
          Client.disconnect c;
          on_done ()))
    workload_clients

let check_invariants sim cluster cfg ~acked =
  let checker = Client.connect_exn cluster ~client_id:999 in
  (* Atomicity: bank-transfer conservation. *)
  (match
     Client.with_txn checker (fun txn ->
         let rec sum i acc =
           if i >= cfg.accounts then Ok acc
           else
             match Client.get checker txn (acct_key i) with
             | Error e -> Error e
             | Ok None -> failf "account %s vanished" (acct_key i)
             | Ok (Some v) -> sum (i + 1) (acc + int_of_string v)
         in
         sum 0 0)
   with
  | Error e -> failf "conservation check aborted: %s" (reason e)
  | Ok total ->
      let expect = cfg.accounts * cfg.initial_balance in
      if total <> expect then
        failf "conservation violated: accounts sum to %d, expected %d" total
          expect);
  (* Durability: every client-acked kv put is still visible (the surviving
     counter may only be newer — a commit the client timed out on). *)
  for cid = 0 to cfg.clients - 1 do
    for k = 0 to cfg.keys_per_client - 1 do
      match
        Client.with_txn checker (fun txn ->
            Client.get checker txn (kv_key ~cid k))
      with
      | Error e -> failf "durability read aborted: %s" (reason e)
      | Ok None -> failf "key %s vanished" (kv_key ~cid k)
      | Ok (Some v) ->
          let got =
            try int_of_string (String.sub v 1 (String.length v - 1))
            with _ -> failf "key %s has malformed value %S" (kv_key ~cid k) v
          in
          if got < acked.(cid).(k) then
            failf "acked write lost on %s: acked v%d, read %s" (kv_key ~cid k)
              acked.(cid).(k) v
    done
  done;
  (* Liveness: once the faults heal every node commits again — a fresh write
     it both coordinates and owns, so its own WAL must stabilize through its
     protection group. *)
  List.iter
    (fun node ->
      let rec probe_key i =
        let k = Printf.sprintf "probe%d.%d" node i in
        if Cluster.route_key cluster k = node then k else probe_key (i + 1)
      in
      let key = probe_key 0 in
      match
        Client.with_txn checker ~coord:node (fun txn ->
            Client.put checker txn key "live")
      with
      | Ok () -> ()
      | Error e -> failf "node %d cannot commit after recovery: %s" node (reason e))
    (Cluster.node_ids cluster);
  Client.disconnect checker;
  (* Leak-freedom: let TTLs and sweeps fire with zero traffic, then demand
     empty residual state everywhere. *)
  Sim.sleep sim (ms 1_000);
  (match Cluster.check_quiescent cluster with
  | Ok () -> ()
  | Error m -> failf "residual state leaked: %s" m);
  (* TreatySan verdict: lock leaks, zombie acquisitions, starved fibers and
     plaintext boundary crossings collected over the whole run. *)
  (match Cluster.sanitize_check cluster with
  | Ok () -> ()
  | Error m -> failf "sanitizer violations: %s" m);
  (* Serializability of the whole committed history. *)
  match Cluster.history cluster with
  | None -> failf "history recording was off"
  | Some h -> (
      match Serializability.check h with
      | Serializability.Serializable -> Serializability.committed h
      | Serializability.Cycle txs ->
          failf "history not serializable: %s" (Serializability.dump_cycle h txs))

let run_seed ?(config = default_config) ?schedule ~seed () =
  let cfg = config in
  let sched =
    match schedule with
    | None -> Schedule.generate ~seed ~nodes:cfg.nodes ~horizon_ns:cfg.horizon_ns
    | Some (s : Schedule.t) ->
        if s.nodes <> cfg.nodes then
          invalid_arg "Chaos.run_seed: schedule is for another cluster size";
        s
  in
  let sim = Sim.create ~seed:(Int64.of_int (0x7ea7_0000 lxor seed)) () in
  (* The sanitizer collector is global: start each seed from a clean slate. *)
  Treaty_util.Sanitizer.reset ();
  let result = ref (Error "chaos run did not finish") in
  (try
     Sim.run sim (fun () ->
         match Cluster.create sim (cluster_config cfg ~seed) () with
         | Error m -> failf "bootstrap: %s" m
         | Ok cluster ->
             load_data cluster cfg;
             (* Connect every workload client before the first fault can
                fire, so registration is never racing a crash. *)
             let workload_clients =
               Array.init cfg.clients (fun cid ->
                   Client.connect_exn cluster ~client_id:(100 + cid))
             in
             let committed = ref 0 and aborts = Hashtbl.create 8 in
             let acked =
               Array.init cfg.clients (fun _ ->
                   Array.make cfg.keys_per_client 0)
             in
             let t0 = Sim.now sim in
             install_adversary sim (Cluster.net cluster) sched ~t0 ~seed;
             let latch = Sim.ivar () in
             let pending = ref cfg.clients in
             let on_done () =
               decr pending;
               if !pending = 0 then Sim.fill latch ()
             in
             let crashes = spawn_crash_faults sim cluster sched ~on_done in
             pending := !pending + crashes;
             spawn_workload sim workload_clients cfg ~seed ~t0 ~acked
               ~committed ~aborts ~on_done;
             Sim.read sim latch;
             Net.clear_adversary (Cluster.net cluster);
             (* Belt and braces: every crash fiber restarts its node, but a
                later crash fault may overlap an earlier restart. *)
             for i = 0 to cfg.nodes - 1 do
               match Cluster.restart_node cluster i with
               | Ok () -> ()
               | Error m -> failf "final restart of node %d: %s" i m
             done;
             Sim.sleep sim cfg.drain_ns;
             let history_txs = check_invariants sim cluster cfg ~acked in
             Cluster.shutdown cluster;
             result :=
               Ok
                 {
                   schedule = sched;
                   committed = !committed;
                   aborted = Hashtbl.fold (fun _ n acc -> acc + n) aborts 0;
                   aborts =
                     List.sort compare
                       (Hashtbl.fold (fun e n acc -> (e, n) :: acc) aborts []);
                   history_txs;
                 })
   with Fail m | Client.Connect_failed m ->
     result :=
       Error (Printf.sprintf "%s\n  schedule: %s" m (Schedule.to_string sched)));
  (* Freeze the trace buffer (export reads it after we return); the next
     traced run's Cluster.create resets it. *)
  if cfg.trace then Treaty_obs.Trace.disable ();
  !result
