(* Transaction layer: lock table, local transactions, the serializability
   checker itself, and full-cluster end-to-end behaviour — 2PC commit/abort,
   concurrency, crash recovery in every phase, and the security attacks the
   paper defends against. *)

open Treaty_core
module Sim = Treaty_sim.Sim
module Net = Treaty_netsim.Net
module Adversary = Treaty_netsim.Adversary
module Ssd = Treaty_storage.Ssd
module Engine = Treaty_storage.Engine
module Memtable = Treaty_storage.Memtable
module Op = Treaty_storage.Op
module Latch = Treaty_sched.Scheduler.Latch

let tx coord seq = { Types.coord; seq }

(* --- lock table --------------------------------------------------------- *)

let mk_locks ?(timeout_ns = 1_000_000) sim =
  let enclave =
    Treaty_tee.Enclave.create sim ~mode:Treaty_tee.Enclave.Native
      ~cost:Treaty_sim.Costmodel.default ~cores:4 ~node_id:1 ~code_identity:"lt"
  in
  Lock_table.create sim ~enclave ~timeout_ns

let lock_modes () =
  let sim = Sim.create () in
  Sim.run sim (fun () ->
      let lt = mk_locks sim in
      (* Shared readers. *)
      Alcotest.(check bool) "r1" true (Lock_table.acquire lt ~owner:(tx 1 1) ~key:"k" Lock_table.Read = Ok ());
      Alcotest.(check bool) "r2" true (Lock_table.acquire lt ~owner:(tx 1 2) ~key:"k" Lock_table.Read = Ok ());
      (* Writer blocks behind readers and times out. *)
      Alcotest.(check bool) "w blocked" true
        (Lock_table.acquire lt ~owner:(tx 1 3) ~key:"k" Lock_table.Write = Error `Timeout);
      Lock_table.release_all lt ~owner:(tx 1 1);
      Lock_table.release_all lt ~owner:(tx 1 2);
      (* Now the writer can take it; readers block. *)
      Alcotest.(check bool) "w" true (Lock_table.acquire lt ~owner:(tx 1 3) ~key:"k" Lock_table.Write = Ok ());
      Alcotest.(check bool) "r blocked by writer" true
        (Lock_table.acquire lt ~owner:(tx 1 4) ~key:"k" Lock_table.Read = Error `Timeout);
      (* Reentrant for the owner. *)
      Alcotest.(check bool) "owner rereads" true
        (Lock_table.acquire lt ~owner:(tx 1 3) ~key:"k" Lock_table.Read = Ok ());
      Lock_table.release_all lt ~owner:(tx 1 3);
      Alcotest.(check int) "all released" 0 (Lock_table.locked_keys lt))

let lock_upgrade () =
  let sim = Sim.create () in
  Sim.run sim (fun () ->
      let lt = mk_locks sim in
      ignore (Lock_table.acquire lt ~owner:(tx 1 1) ~key:"k" Lock_table.Read);
      (* Sole reader upgrades. *)
      Alcotest.(check bool) "upgrade" true
        (Lock_table.acquire lt ~owner:(tx 1 1) ~key:"k" Lock_table.Write = Ok ());
      Alcotest.(check bool) "holds write" true
        (Lock_table.holds lt ~owner:(tx 1 1) ~key:"k" Lock_table.Write);
      ignore (Lock_table.acquire lt ~owner:(tx 1 1) ~key:"k2" Lock_table.Read);
      ignore (Lock_table.acquire lt ~owner:(tx 1 2) ~key:"k2" Lock_table.Read);
      (* Two readers: upgrade must fail (deadlock-by-timeout). *)
      Alcotest.(check bool) "contended upgrade times out" true
        (Lock_table.acquire lt ~owner:(tx 1 1) ~key:"k2" Lock_table.Write = Error `Timeout))

let lock_waiter_granted_on_release () =
  let sim = Sim.create () in
  let got = ref false in
  Sim.run sim (fun () ->
      let lt = mk_locks ~timeout_ns:50_000_000 sim in
      ignore (Lock_table.acquire lt ~owner:(tx 1 1) ~key:"k" Lock_table.Write);
      Sim.spawn sim (fun () ->
          got := Lock_table.acquire lt ~owner:(tx 1 2) ~key:"k" Lock_table.Write = Ok ());
      Sim.sleep sim 1000;
      Lock_table.release_all lt ~owner:(tx 1 1);
      Sim.sleep sim 1000);
  Alcotest.(check bool) "waiter granted" true !got

let lock_deadlock_resolved_by_timeout () =
  let sim = Sim.create () in
  let outcomes = ref [] in
  Sim.run sim (fun () ->
      let lt = mk_locks ~timeout_ns:2_000_000 sim in
      let l = Latch.create 2 in
      Sim.spawn sim (fun () ->
          ignore (Lock_table.acquire lt ~owner:(tx 1 1) ~key:"a" Lock_table.Write);
          Sim.sleep sim 100;
          let r = Lock_table.acquire lt ~owner:(tx 1 1) ~key:"b" Lock_table.Write in
          outcomes := ("t1", r) :: !outcomes;
          Lock_table.release_all lt ~owner:(tx 1 1);
          Latch.arrive l);
      Sim.spawn sim (fun () ->
          ignore (Lock_table.acquire lt ~owner:(tx 1 2) ~key:"b" Lock_table.Write);
          Sim.sleep sim 100;
          let r = Lock_table.acquire lt ~owner:(tx 1 2) ~key:"a" Lock_table.Write in
          outcomes := ("t2", r) :: !outcomes;
          Lock_table.release_all lt ~owner:(tx 1 2);
          Latch.arrive l);
      Latch.wait (Sim.sched sim) l);
  (* At least one side must have broken the deadlock via timeout; the other
     may then have acquired. *)
  Alcotest.(check bool) "deadlock broken" true
    (List.exists (fun (_, r) -> r = Error `Timeout) !outcomes)

(* --- serializability checker (unit) ------------------------------------- *)

let checker_detects_cycle () =
  let h = Serializability.create () in
  (* Classic write-skew-like cycle: T1 reads x@0 writes y@1; T2 reads y@0
     writes x@1. *)
  Serializability.record_commit h ~tx:(tx 1 1) ~reads:[ ("x", 0) ] ~writes:[ ("y", 1) ];
  Serializability.record_commit h ~tx:(tx 1 2) ~reads:[ ("y", 0) ] ~writes:[ ("x", 1) ];
  (match Serializability.check h with
  | Serializability.Cycle _ -> ()
  | Serializability.Serializable -> Alcotest.fail "missed write-skew cycle");
  (* A clean serial history passes. *)
  let h2 = Serializability.create () in
  Serializability.record_commit h2 ~tx:(tx 1 1) ~reads:[ ("x", 0) ] ~writes:[ ("x", 1) ];
  Serializability.record_commit h2 ~tx:(tx 1 2) ~reads:[ ("x", 1) ] ~writes:[ ("x", 2) ];
  Serializability.record_commit h2 ~tx:(tx 1 3) ~reads:[ ("x", 2) ] ~writes:[];
  match Serializability.check h2 with
  | Serializability.Serializable -> ()
  | Serializability.Cycle _ -> Alcotest.fail "false positive"

let prop_checker_no_false_positives =
  (* Soundness: a history produced by a genuinely serial execution must
     always be accepted, regardless of the order transactions are recorded
     in. *)
  QCheck.Test.make ~name:"checker accepts serial histories" ~count:200
    QCheck.(pair (int_bound 10_000) (list_of_size Gen.(2 -- 12) (list_of_size Gen.(1 -- 4) (pair (int_range 0 4) bool))))
    (fun (salt, tx_specs) ->
      let h = Serializability.create () in
      (* Execute serially against a versioned store: each tx reads the
         current version of its keys and installs new versions for its
         writes. *)
      let store = Array.make 5 0 in
      let next_seq = ref 0 in
      let recorded = ref [] in
      List.iteri
        (fun i ops ->
          let reads = ref [] and writes = ref [] in
          List.iter
            (fun (k, is_write) ->
              let key = Printf.sprintf "key%d" k in
              if is_write then begin
                incr next_seq;
                store.(k) <- !next_seq;
                writes := (key, !next_seq) :: !writes
              end
              else reads := (key, store.(k)) :: !reads)
            ops;
          recorded := ({ Types.coord = 1; seq = i }, !reads, !writes) :: !recorded)
        tx_specs;
      (* Record in a salt-dependent shuffled order. *)
      let arr = Array.of_list !recorded in
      let rng = Treaty_sim.Rng.create (Int64.of_int (salt + 1)) in
      Treaty_sim.Rng.shuffle rng arr;
      Array.iter (fun (tx, reads, writes) -> Serializability.record_commit h ~tx ~reads ~writes) arr;
      Serializability.check h = Serializability.Serializable)

(* --- full cluster fixtures ---------------------------------------------- *)

let mk_config ?(profile = Config.treaty_enc_stab) ?(isolation = Types.Pessimistic) () =
  {
    (Config.with_profile Config.default profile) with
    Config.record_history = true;
    isolation;
    engine =
      {
        (Config.with_profile Config.default profile).Config.engine with
        Engine.memtable_max_bytes = 64 * 1024;
      };
  }

let with_cluster ?profile ?isolation ?route f =
  let sim = Sim.create () in
  Sim.run sim (fun () ->
      let config = mk_config ?profile ?isolation () in
      match Cluster.create sim config ?route () with
      | Error m -> Alcotest.failf "cluster bootstrap: %s" m
      | Ok cluster ->
          f sim cluster;
          Cluster.shutdown cluster)

let check_serializable cluster =
  match Cluster.history cluster with
  | None -> Alcotest.fail "history not recorded"
  | Some h -> (
      match Serializability.check h with
      | Serializability.Serializable -> ()
      | Serializability.Cycle _ as v ->
          Alcotest.failf "%s" (Format.asprintf "%a" Serializability.pp_verdict v))

let put_all client txn kvs =
  List.fold_left
    (fun acc (k, v) ->
      match acc with Ok () -> Client.put client txn k v | e -> e)
    (Ok ()) kvs

(* Spread keys deterministically: "nodeN:..." lands on node N. *)
let explicit_route key =
  match String.index_opt key ':' with
  | Some i -> ( try int_of_string (String.sub key 4 (i - 4)) - 1 with _ -> 0)
  | None -> Hashtbl.hash key

let distributed_commit_visible_everywhere () =
  with_cluster ~route:explicit_route (fun _sim cluster ->
      let c = Client.connect_exn cluster ~client_id:1 in
      (match
         Client.with_txn c (fun txn ->
             put_all c txn
               [ ("node1:a", "1"); ("node2:b", "2"); ("node3:c", "3") ])
       with
      | Ok () -> ()
      | Error e -> Alcotest.failf "commit failed: %s" (Types.abort_reason_to_string e));
      (* Read back through a different coordinator. *)
      (match
         Client.with_txn c ~coord:2 (fun txn ->
             match (Client.get c txn "node1:a", Client.get c txn "node3:c") with
             | Ok (Some "1"), Ok (Some "3") -> Ok ()
             | _ -> Error Types.Integrity)
       with
      | Ok () -> ()
      | Error e -> Alcotest.failf "readback failed: %s" (Types.abort_reason_to_string e));
      check_serializable cluster;
      Client.disconnect c)

let abort_leaves_no_trace () =
  with_cluster ~route:explicit_route (fun _sim cluster ->
      let c = Client.connect_exn cluster ~client_id:1 in
      (match Client.begin_txn c () with
      | Error _ -> Alcotest.fail "begin"
      | Ok txn ->
          ignore (Client.put c txn "node1:x" "dirty");
          ignore (Client.put c txn "node2:y" "dirty");
          Client.rollback c txn);
      (match
         Client.with_txn c (fun txn ->
             match (Client.get c txn "node1:x", Client.get c txn "node2:y") with
             | Ok None, Ok None -> Ok ()
             | _ -> Error Types.Integrity)
       with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "aborted writes leaked");
      Alcotest.(check int) "no commits recorded for the aborted tx" 1
        (Cluster.total_committed cluster);
      Client.disconnect c)

let read_own_writes () =
  with_cluster ~route:explicit_route (fun _sim cluster ->
      let c = Client.connect_exn cluster ~client_id:1 in
      (match
         Client.with_txn c (fun txn ->
             let ( let* ) r f = match r with Ok v -> f v | Error e -> Error e in
             let* () = Client.put c txn "node2:k" "mine" in
             let* v = Client.get c txn "node2:k" in
             if v = Some "mine" then Ok () else Error Types.Integrity)
       with
      | Ok () -> ()
      | Error e -> Alcotest.failf "RYOW failed: %s" (Types.abort_reason_to_string e));
      Client.disconnect c)

let cross_shard_scan isolation () =
  with_cluster ~isolation ~route:explicit_route (fun _sim cluster ->
      let c = Client.connect_exn cluster ~client_id:1 in
      (match
         Client.with_txn c (fun txn ->
             put_all c txn
               [
                 ("node1:s1", "a"); ("node2:s2", "b"); ("node3:s3", "c");
                 ("node1:a0", "below-range"); ("node3:t0", "above-range");
               ])
       with
      | Ok () -> ()
      | Error e -> Alcotest.failf "setup: %s" (Types.abort_reason_to_string e));
      (match
         Client.with_txn c (fun txn ->
             (* A scan across all three shards, plus a buffered write the
                scan must observe. *)
             match Client.put c txn "node1:s0" "mine" with
             | Error e -> Error e
             | Ok () -> (
                 match Client.scan c txn ~lo:"node1:s0" ~hi:"node3:s9" with
                 | Ok kvs ->
                     if
                       kvs
                       = [
                           ("node1:s0", "mine"); ("node1:s1", "a");
                           ("node2:s2", "b"); ("node3:s3", "c");
                         ]
                     then Ok ()
                     else begin
                       List.iter (fun (k, v) -> Printf.printf "  got %s=%s\n" k v) kvs;
                       Error Types.Integrity
                     end
                 | Error e -> Error e))
       with
      | Ok () -> ()
      | Error e -> Alcotest.failf "scan tx: %s" (Types.abort_reason_to_string e));
      check_serializable cluster;
      Client.disconnect c)

let concurrent_serializable isolation () =
  with_cluster ~isolation (fun sim cluster ->
      let n = 6 in
      let l = Latch.create n in
      for cid = 1 to n do
        Sim.spawn sim (fun () ->
            (match Client.connect cluster ~client_id:cid with
            | Error _ -> ()
            | Ok c ->
                let rng = Treaty_sim.Rng.split (Sim.rng sim) in
                for _ = 1 to 15 do
                  ignore
                    (Client.with_txn c (fun txn ->
                         let k1 = Printf.sprintf "acct%d" (Treaty_sim.Rng.int rng 6) in
                         let k2 = Printf.sprintf "acct%d" (Treaty_sim.Rng.int rng 6) in
                         match Client.get c txn k1 with
                         | Error e -> Error e
                         | Ok v -> (
                             let bal = Option.value ~default:"0" v in
                             match Client.put c txn k2 (bal ^ "x") with
                             | Ok () -> Ok ()
                             | Error e -> Error e)))
                done;
                Client.disconnect c);
            Latch.arrive l)
      done;
      Latch.wait (Sim.sched sim) l;
      Alcotest.(check bool) "some txs committed" true (Cluster.total_committed cluster > 10);
      check_serializable cluster)

let occ_conflicts_abort () =
  with_cluster ~isolation:Types.Optimistic (fun sim cluster ->
      (* Two clients racing read-modify-write on one key: OCC must abort at
         least one on a real conflict, and the history stays serializable. *)
      let l = Latch.create 2 in
      for cid = 1 to 2 do
        Sim.spawn sim (fun () ->
            (match Client.connect cluster ~client_id:cid with
            | Error _ -> ()
            | Ok c ->
                for _ = 1 to 10 do
                  ignore
                    (Client.with_txn c ~coord:1 (fun txn ->
                         match Client.get c txn "hot" with
                         | Error e -> Error e
                         | Ok v -> Client.put c txn "hot" (Option.value ~default:"" v ^ "+")))
                done;
                Client.disconnect c);
            Latch.arrive l)
      done;
      Latch.wait (Sim.sched sim) l;
      check_serializable cluster)

(* OCC conflict matrix, deterministic interleavings: a read invalidated by a
   concurrent commit fails validation with the typed Validation_failed
   abort; blind write-write does not conflict (nothing read, nothing to
   validate); and the standard client recipe — rerun the transaction —
   succeeds on retry. *)
let occ_conflict_matrix () =
  with_cluster ~isolation:Types.Optimistic ~route:explicit_route
    (fun _sim cluster ->
      let a = Client.connect_exn cluster ~client_id:1 in
      let b = Client.connect_exn cluster ~client_id:2 in
      (match
         Client.with_txn a (fun txn ->
             put_all a txn [ ("node1:k", "0"); ("node1:m", "0") ])
       with
      | Ok () -> ()
      | Error e -> Alcotest.failf "setup: %s" (Types.abort_reason_to_string e));
      (* Read-write conflict: A reads k, B commits a new version of k — A
         must fail validation even though A only wrote m. *)
      (match Client.begin_txn a ~coord:1 () with
      | Error _ -> Alcotest.fail "begin"
      | Ok txa ->
          (match Client.get a txa "node1:k" with
          | Ok (Some "0") -> ()
          | _ -> Alcotest.fail "setup read");
          (match
             Client.with_txn b (fun txn -> Client.put b txn "node1:k" "1")
           with
          | Ok () -> ()
          | Error e ->
              Alcotest.failf
                "OCC reads must not block writers, yet B aborted: %s"
                (Types.abort_reason_to_string e));
          (match Client.put a txa "node1:m" "1" with
          | Ok () -> ()
          | Error e ->
              Alcotest.failf "buffered put: %s" (Types.abort_reason_to_string e));
          (match Client.commit a txa with
          | Error Types.Validation_failed -> ()
          | Ok () -> Alcotest.fail "commit over a stale read"
          | Error e ->
              Alcotest.failf "wrong abort reason: %s"
                (Types.abort_reason_to_string e)));
      (* Retry after the validation abort: a fresh attempt of the same
         read-modify-write goes through. *)
      (match
         Client.with_txn a (fun txn ->
             match Client.get a txn "node1:k" with
             | Ok (Some v) -> Client.put a txn "node1:m" (v ^ "!")
             | _ -> Error Types.Integrity)
       with
      | Ok () -> ()
      | Error e ->
          Alcotest.failf "retry aborted: %s" (Types.abort_reason_to_string e));
      (* Write-write, no reads: blind writes validate nothing — both commit
         (last writer wins is serializable). *)
      (match Client.begin_txn a ~coord:1 () with
      | Error _ -> Alcotest.fail "begin"
      | Ok txa ->
          (match Client.put a txa "node1:k" "a-blind" with
          | Ok () -> ()
          | Error e ->
              Alcotest.failf "blind put: %s" (Types.abort_reason_to_string e));
          (match
             Client.with_txn b (fun txn -> Client.put b txn "node1:k" "b-blind")
           with
          | Ok () -> ()
          | Error e ->
              Alcotest.failf "B blind write: %s" (Types.abort_reason_to_string e));
          (match Client.commit a txa with
          | Ok () -> ()
          | Error e ->
              Alcotest.failf "blind write-write aborted: %s"
                (Types.abort_reason_to_string e)));
      check_serializable cluster;
      Client.disconnect a;
      Client.disconnect b)

(* Distributed flavor: the stale read and the write land on different
   nodes, so the validation failure surfaces through 2PC prepare (the new
   St_conflict wire status) and still reaches the client as
   Validation_failed. *)
let occ_distributed_validation_abort () =
  with_cluster ~isolation:Types.Optimistic ~route:explicit_route
    (fun _sim cluster ->
      let a = Client.connect_exn cluster ~client_id:1 in
      let b = Client.connect_exn cluster ~client_id:2 in
      (match
         Client.with_txn a (fun txn -> Client.put a txn "node1:k" "0")
       with
      | Ok () -> ()
      | Error e -> Alcotest.failf "setup: %s" (Types.abort_reason_to_string e));
      (match Client.begin_txn a ~coord:1 () with
      | Error _ -> Alcotest.fail "begin"
      | Ok txa ->
          (match Client.get a txa "node1:k" with
          | Ok (Some "0") -> ()
          | _ -> Alcotest.fail "setup read");
          (match
             Client.with_txn b (fun txn -> Client.put b txn "node1:k" "1")
           with
          | Ok () -> ()
          | Error e ->
              Alcotest.failf "B: %s" (Types.abort_reason_to_string e));
          (match Client.put a txa "node2:y" "cross-shard" with
          | Ok () -> ()
          | Error e ->
              Alcotest.failf "remote put: %s" (Types.abort_reason_to_string e));
          (match Client.commit a txa with
          | Error Types.Validation_failed -> ()
          | Ok () -> Alcotest.fail "distributed commit over a stale read"
          | Error e ->
              Alcotest.failf "wrong abort reason: %s"
                (Types.abort_reason_to_string e)));
      (* The aborted write must not have leaked to node2. *)
      (match
         Client.with_txn a (fun txn ->
             match Client.get a txn "node2:y" with
             | Ok None -> Ok ()
             | Ok (Some _) -> Error Types.Integrity
             | Error e -> Error e)
       with
      | Ok () -> ()
      | Error e ->
          Alcotest.failf "aborted write leaked: %s"
            (Types.abort_reason_to_string e));
      check_serializable cluster;
      Client.disconnect a;
      Client.disconnect b)

(* --- read-only fast path ------------------------------------------------- *)

let ro_fast_path isolation () =
  with_cluster ~isolation ~route:explicit_route (fun _sim cluster ->
      let c = Client.connect_exn cluster ~client_id:1 in
      (match
         Client.with_txn c (fun txn ->
             put_all c txn
               [ ("node1:a", "1"); ("node2:b", "2"); ("node3:c", "3") ])
       with
      | Ok () -> ()
      | Error e -> Alcotest.failf "setup: %s" (Types.abort_reason_to_string e));
      (match Client.read_only c [ "node3:c"; "node1:a"; "node1:zzz" ] with
      | Error e ->
          Alcotest.failf "ro failed: %s" (Types.abort_reason_to_string e)
      | Ok kvs ->
          Alcotest.(check (list (pair string (option string))))
            "input order, missing key is None"
            [ ("node3:c", Some "3"); ("node1:a", Some "1"); ("node1:zzz", None) ]
            kvs);
      (* Two owners served → two per-shard read-only transactions, all
         counted, every snapshot retention released. *)
      let ro_total =
        List.fold_left
          (fun acc i ->
            acc + (Node.stats (Cluster.node cluster i)).Node.read_only_committed)
          0 [ 0; 1; 2 ]
      in
      Alcotest.(check int) "per-shard ro txns" 2 ro_total;
      List.iter
        (fun i ->
          Alcotest.(check int) "snapshot retentions drained" 0
            (Engine.active_snapshot_count (Node.engine (Cluster.node cluster i))))
        [ 0; 1; 2 ];
      check_serializable cluster;
      Client.disconnect c)

(* The stability guard: a read-only request over a key with an in-flight
   write parks (lock-free) until the writer resolves, then reads the
   committed value — never the pre-commit one, which would be a
   non-serializable prefix once the writer's commit is acked. *)
let ro_waits_for_inflight_writer () =
  with_cluster ~route:explicit_route (fun sim cluster ->
      let a = Client.connect_exn cluster ~client_id:1 in
      let r = Client.connect_exn cluster ~client_id:2 in
      (match Client.with_txn a (fun txn -> Client.put a txn "node1:w" "0") with
      | Ok () -> ()
      | Error e -> Alcotest.failf "setup: %s" (Types.abort_reason_to_string e));
      match Client.begin_txn a ~coord:1 () with
      | Error _ -> Alcotest.fail "begin"
      | Ok txa ->
          (* The write is buffered until the transaction's next request:
             a read of the key sends it and takes its write lock. *)
          ignore (Client.put a txa "node1:w" "1");
          (match Client.get a txa "node1:w" with
          | Ok (Some "1") -> ()
          | Ok _ -> Alcotest.fail "the writer did not read its own write"
          | Error e -> Alcotest.failf "put: %s" (Types.abort_reason_to_string e));
          let got = ref None in
          Sim.spawn sim (fun () -> got := Some (Client.read_only r [ "node1:w" ]));
          (* Enough time for the reader to reach the node and park on the
             guard (backoff is 100 µs; the lock-timeout budget is 40 ms). *)
          Sim.sleep sim 2_000_000;
          Alcotest.(check bool) "reader parked while the write is in flight"
            true (!got = None);
          (match Client.commit a txa with
          | Ok () -> ()
          | Error e ->
              Alcotest.failf "commit: %s" (Types.abort_reason_to_string e));
          Sim.sleep sim 10_000_000;
          (match !got with
          | Some (Ok [ ("node1:w", Some "1") ]) -> ()
          | Some (Ok _) -> Alcotest.fail "reader saw a stale or wrong value"
          | Some (Error e) ->
              Alcotest.failf "ro: %s" (Types.abort_reason_to_string e)
          | None -> Alcotest.fail "reader never unparked");
          check_serializable cluster;
          Client.disconnect a;
          Client.disconnect r)

(* The read-only fast path asks its owners at once: three owners cost about
   one owner's round trip, not three. *)
let ro_owners_in_parallel () =
  with_cluster ~isolation:Types.Optimistic ~route:explicit_route (fun sim cluster ->
      let c = Client.connect_exn cluster ~client_id:1 in
      let keys = [ "node1:p"; "node2:p"; "node3:p" ] in
      (match Client.with_txn c (fun txn -> put_all c txn (List.map (fun k -> (k, k)) keys)) with
      | Ok () -> ()
      | Error e -> Alcotest.failf "setup: %s" (Types.abort_reason_to_string e));
      let timed keys =
        let t0 = Sim.now sim in
        (match Client.read_only c keys with
        | Ok kvs ->
            Alcotest.(check (list (pair string (option string))))
              "values" (List.map (fun k -> (k, Some k)) keys) kvs
        | Error e -> Alcotest.failf "ro: %s" (Types.abort_reason_to_string e));
        Sim.now sim - t0
      in
      (* Warm both shapes once, then time them. *)
      ignore (timed [ "node1:p" ]);
      ignore (timed keys);
      let one = timed [ "node1:p" ] and three = timed keys in
      Alcotest.(check bool)
        (Printf.sprintf "three owners (%d ns) < 1.5 x one owner (%d ns)" three one)
        true
        (2 * three < 3 * one);
      Client.disconnect c)

(* An owner that is down fails the call with its own error; the owners
   that answered still ran their read-only transaction and released its
   snapshot. *)
let ro_owner_down_releases_others () =
  with_cluster ~isolation:Types.Optimistic ~route:explicit_route (fun _sim cluster ->
      let c = Client.connect_exn cluster ~client_id:1 in
      (match
         Client.with_txn c (fun txn ->
             put_all c txn [ ("node1:d", "1"); ("node2:d", "2"); ("node3:d", "3") ])
       with
      | Ok () -> ()
      | Error e -> Alcotest.failf "setup: %s" (Types.abort_reason_to_string e));
      let served i = (Node.stats (Cluster.node cluster i)).Node.read_only_committed in
      let before = List.map served [ 0; 2 ] in
      Cluster.crash_node cluster 1;
      (match Client.read_only c [ "node1:d"; "node2:d"; "node3:d" ] with
      | Error Types.Participant_failed -> ()
      | Error e -> Alcotest.failf "failed as %s" (Types.abort_reason_to_string e)
      | Ok _ -> Alcotest.fail "read through a crashed owner");
      Alcotest.(check (list int)) "both live owners served their batch"
        (List.map succ before) (List.map served [ 0; 2 ]);
      List.iter
        (fun i ->
          Alcotest.(check int)
            (Printf.sprintf "node %d released its snapshot" (i + 1))
            0 (Node.residual_state (Cluster.node cluster i)).Node.res_snapshots)
        [ 0; 2 ];
      Client.disconnect c)

(* A restarted owner has forgotten the client: inside the fan-out the
   client re-registers with it once and asks again, and asks the other
   owners once each. *)
let ro_restarted_owner_reregisters_once () =
  with_cluster ~isolation:Types.Optimistic ~route:explicit_route (fun _sim cluster ->
      let c = Client.connect_exn cluster ~client_id:1 in
      (match
         Client.with_txn c (fun txn ->
             put_all c txn [ ("node1:r", "1"); ("node2:r", "2"); ("node3:r", "3") ])
       with
      | Ok () -> ()
      | Error e -> Alcotest.failf "setup: %s" (Types.abort_reason_to_string e));
      Cluster.crash_node cluster 1;
      (match Cluster.restart_node cluster 1 with
      | Ok () -> ()
      | Error m -> Alcotest.failf "restart: %s" m);
      let sent = Array.make 4 0 in
      Net.set_adversary (Cluster.net cluster) (fun pkt ->
          if pkt.Treaty_netsim.Packet.src = 1001 && pkt.dst <= 3 then
            sent.(pkt.dst) <- sent.(pkt.dst) + 1;
          Treaty_netsim.Adversary.Deliver);
      (match Client.read_only c [ "node1:r"; "node2:r"; "node3:r" ] with
      | Ok kvs ->
          Alcotest.(check (list (pair string (option string))))
            "values"
            [ ("node1:r", Some "1"); ("node2:r", Some "2"); ("node3:r", Some "3") ]
            kvs
      | Error e -> Alcotest.failf "ro: %s" (Types.abort_reason_to_string e));
      Net.clear_adversary (Cluster.net cluster);
      Alcotest.(check (list int))
        "packets per owner: one read each; the restarted one also a register and a retry"
        [ 1; 3; 1 ]
        [ sent.(1); sent.(2); sent.(3) ];
      Client.disconnect c)

(* --- crash / recovery matrix -------------------------------------------- *)

let committed_data_survives_crash () =
  with_cluster ~route:explicit_route (fun _sim cluster ->
      let c = Client.connect_exn cluster ~client_id:1 in
      (match
         Client.with_txn c (fun txn ->
             put_all c txn [ ("node2:durable", "yes"); ("node1:also", "yes") ])
       with
      | Ok () -> ()
      | Error e -> Alcotest.failf "commit: %s" (Types.abort_reason_to_string e));
      Cluster.crash_node cluster 1;
      (match Cluster.restart_node cluster 1 with
      | Ok () -> ()
      | Error m -> Alcotest.failf "restart: %s" m);
      (match
         Client.with_txn c (fun txn ->
             match Client.get c txn "node2:durable" with
             | Ok (Some "yes") -> Ok ()
             | _ -> Error Types.Integrity)
       with
      | Ok () -> ()
      | Error e -> Alcotest.failf "durability: %s" (Types.abort_reason_to_string e));
      Client.disconnect c)

(* Crash a participant between prepare and commit: the coordinator's stable
   decision must drive it to commit on recovery. *)
let participant_crash_mid_2pc () =
  with_cluster ~route:explicit_route (fun sim cluster ->
      let c = Client.connect_exn cluster ~client_id:1 in
      (* Delay commit messages to node 2 so we can crash it while prepared. *)
      Net.set_adversary (Cluster.net cluster)
        (Adversary.delay_matching
           (fun pkt -> pkt.Treaty_netsim.Packet.dst = 2)
           ~ns:30_000_000);
      let commit_result = ref None in
      Sim.spawn sim (fun () ->
          commit_result :=
            Some
              (Client.with_txn c ~coord:3 (fun txn ->
                   put_all c txn [ ("node2:pk", "pv"); ("node3:qk", "qv") ])));
      (* Let the prepare phase complete (prepare goes out, gets delayed,
         participant stabilizes, acks); then kill node 2. *)
      Sim.sleep sim 150_000_000;
      Net.clear_adversary (Cluster.net cluster);
      Cluster.crash_node cluster 1;
      Sim.sleep sim 400_000_000;
      (match Cluster.restart_node cluster 1 with
      | Ok () -> ()
      | Error m -> Alcotest.failf "restart: %s" m);
      Sim.sleep sim 500_000_000;
      (* Whatever the outcome (commit or abort), both shards must agree. *)
      match
        Client.with_txn c ~coord:3 (fun txn ->
            match (Client.get c txn "node2:pk", Client.get c txn "node3:qk") with
            | Ok a, Ok b -> (
                match (a, b) with
                | Some "pv", Some "qv" -> Ok ()
                | None, None -> Ok ()
                | _ -> Error Types.Integrity)
            | _ -> Error Types.Participant_failed)
      with
      | Ok () -> Client.disconnect c
      | Error e -> Alcotest.failf "atomicity violated: %s" (Types.abort_reason_to_string e))

let coordinator_crash_before_decision_aborts () =
  with_cluster ~route:explicit_route (fun sim cluster ->
      let c = Client.connect_exn cluster ~client_id:1 in
      (* Drop all prepare ACKs towards coordinator 1 so the decision never
         lands; crash it mid-protocol. *)
      Net.set_adversary (Cluster.net cluster)
        (Adversary.drop_matching (fun pkt ->
             pkt.Treaty_netsim.Packet.dst = 1 && pkt.Treaty_netsim.Packet.src <> 1001));
      Sim.spawn sim (fun () ->
          ignore
            (Client.with_txn c ~coord:1 (fun txn ->
                 put_all c txn [ ("node2:ck", "cv"); ("node3:dk", "dv") ])));
      Sim.sleep sim 80_000_000;
      Cluster.crash_node cluster 0;
      Net.clear_adversary (Cluster.net cluster);
      Sim.sleep sim 200_000_000;
      (match Cluster.restart_node cluster 0 with
      | Ok () -> ()
      | Error m -> Alcotest.failf "restart: %s" m);
      (* Allow cooperative termination (sweeper) to resolve in-doubt
         participants. *)
      Sim.sleep sim 1_500_000_000;
      (* The recovered coordinator aborts the in-doubt tx; participants must
         have released their prepared state. *)
      match
        Client.with_txn c ~coord:2 (fun txn ->
            match (Client.get c txn "node2:ck", Client.get c txn "node3:dk") with
            | Ok None, Ok None -> Ok ()
            | Ok (Some _), Ok (Some _) -> Ok () (* decision was already stable: fine *)
            | _ -> Error Types.Integrity)
      with
      | Ok () -> Client.disconnect c
      | Error e -> Alcotest.failf "in-doubt tx inconsistent: %s" (Types.abort_reason_to_string e))

(* A coordinator crashes after its op reached a participant and before
   any prepare: the participant's slice holds a write lock that no commit
   or abort will end. Once the restarted coordinator's first transaction
   carries its decision watermark past the slice, the next sweep aborts
   it, long before the slice is [part_stale_abort_ns] old. *)
let restarted_coordinator_watermark_frees_slice () =
  with_cluster ~route:explicit_route (fun sim cluster ->
      let cfg = Cluster.config cluster in
      let c = Client.connect_exn cluster ~client_id:1 in
      (match Client.begin_txn c ~coord:1 () with
      | Error e -> Alcotest.failf "begin: %s" (Types.abort_reason_to_string e)
      | Ok txn ->
          ignore (Client.put c txn "node2:k" "stale");
          Alcotest.(check bool) "the write reached its owner" true
            (Client.get c txn "node2:k" = Ok (Some "stale")));
      let locked_at = Sim.now sim in
      Cluster.crash_node cluster 0;
      (match Cluster.restart_node cluster 0 with
      | Ok () -> ()
      | Error m -> Alcotest.failf "restart: %s" m);
      (match Client.with_txn c ~coord:1 (fun txn -> Client.get c txn "node2:other") with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "after restart: %s" (Types.abort_reason_to_string e));
      Sim.sleep sim cfg.sweep_interval_ns;
      (match Client.with_txn c ~coord:2 (fun txn -> Client.put c txn "node2:k" "fresh") with
      | Ok () -> ()
      | Error e -> Alcotest.failf "the key stayed locked: %s" (Types.abort_reason_to_string e));
      Alcotest.(check bool) "written before the slice was stale" true
        (Sim.now sim - locked_at < cfg.part_stale_abort_ns);
      Client.disconnect c)

(* --- security: end-to-end attacks ---------------------------------------- *)

let rollback_attack_detected () =
  with_cluster (fun _sim cluster ->
      let c = Client.connect_exn cluster ~client_id:1 in
      (* Commit some stabilized state, snapshot the disk, commit more, then
         roll the disk back and reboot: freshness must fail. *)
      (match Client.with_txn c ~coord:1 (fun txn -> put_all c txn [ ("k1", "old") ]) with
      | Ok () -> ()
      | Error e -> Alcotest.failf "commit1: %s" (Types.abort_reason_to_string e));
      let ssd = Cluster.node_ssd cluster 0 in
      let snapshot = Ssd.snapshot ssd in
      (match Client.with_txn c ~coord:1 (fun txn -> put_all c txn [ ("k1", "new") ]) with
      | Ok () -> ()
      | Error e -> Alcotest.failf "commit2: %s" (Types.abort_reason_to_string e));
      Cluster.crash_node cluster 0;
      Ssd.restore ssd snapshot;
      (match Cluster.restart_node cluster 0 with
      | Error _ -> () (* detected: recovery refused *)
      | Ok () -> Alcotest.fail "rollback attack went undetected");
      Client.disconnect c)

let storage_tamper_detected () =
  with_cluster (fun _sim cluster ->
      let c = Client.connect_exn cluster ~client_id:1 in
      (match Client.with_txn c ~coord:1 (fun txn -> put_all c txn [ ("tk", "tv") ]) with
      | Ok () -> ()
      | Error e -> Alcotest.failf "commit: %s" (Types.abort_reason_to_string e));
      Cluster.crash_node cluster 0;
      let ssd = Cluster.node_ssd cluster 0 in
      (* Corrupt every persistent file a little. *)
      List.iter (fun f -> Ssd.tamper ssd f ~off:(Ssd.size ssd f / 2)) (Ssd.list_files ssd);
      (match Cluster.restart_node cluster 0 with
      | Error _ -> ()
      | Ok () -> Alcotest.fail "tampered storage accepted");
      Client.disconnect c)

let cas_down_blocks_recovery () =
  with_cluster (fun _sim cluster ->
      Cluster.crash_node cluster 2;
      Cluster.crash_cas cluster;
      match Cluster.restart_node cluster 2 with
      | Error m ->
          Alcotest.(check bool) "reason mentions CAS" true
            (String.length m > 0)
      | Ok () -> Alcotest.fail "recovered without attestation (CAS is down)")

(* A restart that fails after it built its incarnation leaves that
   incarnation fenced, as a crash does: with every node down the trusted
   counter group is unreachable, so node 1's recovery fails, and then a
   packet to node 1 is dropped just as one to crashed node 2 is. *)
let failed_restart_is_fenced () =
  with_cluster (fun sim cluster ->
      List.iter (Cluster.crash_node cluster) [ 0; 1; 2 ];
      (match Cluster.restart_node cluster 0 with
      | Error m ->
          Alcotest.(check string) "restart fails" "trusted counter group unreachable" m
      | Ok () -> Alcotest.fail "recovered without a counter quorum");
      let net = Cluster.net cluster in
      let dropped_to dst =
        let before = (Net.stats net).Net.dropped in
        Net.send net ~src:Cluster.cas_id ~dst "probe";
        Sim.sleep sim 1_000_000;
        (Net.stats net).Net.dropped - before
      in
      Alcotest.(check int) "crashed node 2 drops the packet" 1 (dropped_to 2);
      Alcotest.(check int) "node 1 after its failed restart drops it" 1 (dropped_to 1))

let forged_client_rejected () =
  with_cluster (fun _sim cluster ->
      (* A node rejects a made-up token. *)
      let node = Cluster.node cluster 0 in
      Alcotest.(check bool) "forged token" false
        (Node.authenticate_client node ~client_id:77 ~token:(String.make 32 'z'));
      let ok_token =
        match Cluster.client_token cluster ~client_id:77 with
        | Ok t -> t
        | Error `Cas_down -> Alcotest.fail "cas"
      in
      Alcotest.(check bool) "real token" true
        (Node.authenticate_client node ~client_id:77 ~token:ok_token))

(* An op reply cut to its status byte must end as a typed failure, never as
   an exception out of a handler fiber: on the coordinator when a
   participant sends it, on the client when the coordinator does. *)
let with_metrics_cluster f =
  with_cluster
    ~profile:{ Config.treaty_enc_stab with Config.metrics = true }
    ~route:explicit_route f

let truncated_participant_reply_aborts () =
  with_metrics_cluster (fun _sim cluster ->
      let c = Client.connect_exn cluster ~client_id:1 in
      Treaty_rpc.Erpc.register
        (Node.rpc (Cluster.node cluster 1))
        ~kind:Txn_wire.k_txn_op
        (fun _meta _payload -> "\000");
      (match Client.begin_txn c ~coord:1 () with
      | Error e -> Alcotest.failf "begin: %s" (Types.abort_reason_to_string e)
      | Ok txn ->
          (* The write is buffered; it fails with the next request, which
             carries it. The coordinator answers a failed op with the
             lock-timeout status, whatever the participant's failure
             was. *)
          Alcotest.(check bool) "the put is buffered" true
            (Client.put c txn "node2:x" "v" = Ok ());
          Alcotest.(check bool) "the op fails" true
            (Client.get c txn "node2:y" = Error Types.Lock_timeout));
      Alcotest.(check int) "aborted as participant_failed" 1
        (Treaty_obs.Metrics.value "n1.abort.participant_failed");
      Alcotest.(check int) "coordinator context dropped" 0
        (Node.residual_state (Cluster.node cluster 0)).Node.res_coord_txs;
      Client.disconnect c)

let truncated_client_reply_fails_typed () =
  with_cluster ~route:explicit_route (fun _sim cluster ->
      let c = Client.connect_exn cluster ~client_id:1 in
      Treaty_rpc.Erpc.register
        (Node.rpc (Cluster.node cluster 0))
        ~kind:Txn_wire.k_client_op
        (fun _meta _payload -> "\000");
      match Client.begin_txn c ~coord:1 () with
      | Error e -> Alcotest.failf "begin: %s" (Types.abort_reason_to_string e)
      | Ok txn ->
          Alcotest.(check bool) "get fails as a failed participant" true
            (Client.get c txn "node1:x" = Error Types.Participant_failed);
          Client.rollback c txn;
          Client.disconnect c)

(* A transaction's writes are buffered at the client and sent, in order,
   with its next request: a read after two writes of one key sees the
   last, whether the key is the coordinator's own or a participant's. *)
let put_put_get_reads_the_last_write () =
  with_cluster ~route:explicit_route (fun _sim cluster ->
      let c = Client.connect_exn cluster ~client_id:1 in
      let keys = [ "node1:k" (* the coordinator's *); "node2:k" (* a participant's *) ] in
      List.iter
        (fun key ->
          match
            Client.with_txn c ~coord:1 (fun txn ->
                ignore (Client.put c txn key "first");
                ignore (Client.put c txn key "last");
                Client.get c txn key)
          with
          | Ok (Some "last") -> ()
          | Ok v -> Alcotest.failf "%s read %s" key (Option.value v ~default:"nothing")
          | Error e -> Alcotest.failf "%s: %s" key (Types.abort_reason_to_string e))
        keys;
      (match
         Client.with_txn c ~coord:2 (fun txn ->
             Result.map
               (fun a -> (a, Client.get c txn "node2:k"))
               (Client.get c txn "node1:k"))
       with
      | Ok (Some "last", Ok (Some "last")) -> ()
      | Ok _ | Error _ -> Alcotest.fail "the last writes were not committed");
      check_serializable cluster;
      Client.disconnect c)

let no_slices_left cluster =
  for i = 0 to Cluster.n_nodes cluster - 1 do
    let r = Node.residual_state (Cluster.node cluster i) in
    Alcotest.(check int) (Printf.sprintf "node %d: no locked keys" (i + 1)) 0
      r.Node.res_locked_keys;
    Alcotest.(check int) (Printf.sprintf "node %d: no participant slices" (i + 1)) 0
      r.Node.res_part_txs;
    Alcotest.(check int) (Printf.sprintf "node %d: no coordinator contexts" (i + 1)) 0
      r.Node.res_coord_txs
  done

(* A write sent with the commit that cannot take its lock aborts the
   transaction, and the commit reply says why. *)
let buffered_write_lock_timeout_on_commit () =
  with_cluster ~route:explicit_route (fun sim cluster ->
      let a = Client.connect_exn cluster ~client_id:1 in
      let b = Client.connect_exn cluster ~client_id:2 in
      match (Client.begin_txn a ~coord:1 (), Client.begin_txn b ~coord:1 ()) with
      | Ok txa, Ok txb ->
          (* [a] read-locks the participant's key until it rolls back. *)
          Alcotest.(check bool) "reader holds the key" true
            (Client.get a txa "node2:k" = Ok None);
          ignore (Client.put b txb "node1:k" "v");
          ignore (Client.put b txb "node2:k" "v");
          Alcotest.(check bool) "the commit carries the lock timeout" true
            (Client.commit b txb = Error Types.Lock_timeout);
          Client.rollback a txa;
          Sim.sleep sim 1_000_000;
          no_slices_left cluster;
          Client.disconnect a;
          Client.disconnect b
      | Error e, _ | _, Error e -> Alcotest.failf "begin: %s" (Types.abort_reason_to_string e))

(* Writes that were never sent need no participant: a rollback leaves no
   slice anywhere. *)
let rollback_of_unsent_writes () =
  with_cluster ~route:explicit_route (fun sim cluster ->
      let c = Client.connect_exn cluster ~client_id:1 in
      let served () =
        List.init (Cluster.n_nodes cluster) (fun i ->
            (Node.stats (Cluster.node cluster i)).Node.remote_ops_served)
      in
      let before = served () in
      (match Client.begin_txn c ~coord:1 () with
      | Error e -> Alcotest.failf "begin: %s" (Types.abort_reason_to_string e)
      | Ok txn ->
          List.iter
            (fun key -> ignore (Client.put c txn key "dirty"))
            [ "node1:x"; "node2:x"; "node3:x" ];
          Client.rollback c txn);
      Sim.sleep sim 1_000_000;
      Alcotest.(check (list int)) "no participant served an op" before (served ());
      no_slices_left cluster;
      (match
         Client.with_txn c (fun txn ->
             Result.map (fun v -> v = None) (Client.get c txn "node2:x"))
       with
      | Ok true -> ()
      | Ok false | Error _ -> Alcotest.fail "a rolled-back write became visible");
      Client.disconnect c)

(* The participant's reply to a commit's batched writes is lost: the
   coordinator aborts the transaction as a failed participant, and the
   abort reaches the participant, which ran the writes. *)
let lost_batched_reply_aborts_the_participant () =
  with_metrics_cluster (fun sim cluster ->
      let c = Client.connect_exn cluster ~client_id:1 in
      match Client.begin_txn c ~coord:1 () with
      | Error e -> Alcotest.failf "begin: %s" (Types.abort_reason_to_string e)
      | Ok txn ->
          ignore (Client.put c txn "node2:x" "v");
          ignore (Client.put c txn "node2:y" "w");
          let net = Cluster.net cluster in
          Net.set_adversary net
            (Adversary.drop_matching (fun pkt ->
                 pkt.Treaty_netsim.Packet.src = 2 && pkt.Treaty_netsim.Packet.dst = 1));
          let outcome = Client.commit c txn in
          Net.clear_adversary net;
          Alcotest.(check bool) "the commit fails as a failed participant" true
            (outcome = Error Types.Participant_failed);
          Alcotest.(check int) "aborted as participant_failed" 1
            (Treaty_obs.Metrics.value "n1.abort.participant_failed");
          Alcotest.(check bool) "the participant ran the writes" true
            ((Node.stats (Cluster.node cluster 1)).Node.remote_ops_served >= 2);
          Sim.sleep sim 1_000_000;
          no_slices_left cluster;
          Client.disconnect c)

(* A scan is one more op: the writes buffered before it go with it, in
   one request, and the participant that owns them runs them ahead of its
   share of the scan, so the scan sees them. The request is counted on
   the wire: the coordinator's own reply count also holds its replies to
   its peers' counter rounds. *)
let scan_carries_buffered_writes () =
  with_cluster ~route:explicit_route (fun _sim cluster ->
      let c = Client.connect_exn cluster ~client_id:1 in
      let net = Cluster.net cluster in
      (match
         Client.with_txn c ~coord:1 (fun txn ->
             ignore (Client.put c txn "node2:s1" "mine");
             ignore (Client.put c txn "node3:t0" "outside");
             let requests = ref 0 in
             Net.set_adversary net (fun pkt ->
                 if pkt.Treaty_netsim.Packet.src = 1001 && pkt.dst = 1 then incr requests;
                 Adversary.Deliver);
             let rows = Client.scan c txn ~lo:"node1:s0" ~hi:"node2:s9" in
             Net.clear_adversary net;
             Alcotest.(check int) "one request to the coordinator" 1 !requests;
             rows)
       with
      | Ok rows ->
          Alcotest.(check (list (pair string string))) "the scan sees the write"
            [ ("node2:s1", "mine") ] rows
      | Error e -> Alcotest.failf "scan tx: %s" (Types.abort_reason_to_string e));
      check_serializable cluster;
      Client.disconnect c)

(* A participant's scan reply is lost: the coordinator aborts the
   transaction as a failed participant, as for any op, and the abort
   reaches every node the scan went to. *)
let lost_scan_reply_aborts () =
  with_metrics_cluster (fun sim cluster ->
      let c = Client.connect_exn cluster ~client_id:1 in
      (match Client.begin_txn c ~coord:1 () with
      | Error e -> Alcotest.failf "begin: %s" (Types.abort_reason_to_string e)
      | Ok txn ->
          ignore (Client.put c txn "node2:x" "v");
          let net = Cluster.net cluster in
          Net.set_adversary net
            (Adversary.drop_matching (fun pkt ->
                 pkt.Treaty_netsim.Packet.src = 3 && pkt.Treaty_netsim.Packet.dst = 1));
          let outcome = Client.scan c txn ~lo:"node1:a" ~hi:"node3:z" in
          Net.clear_adversary net;
          Alcotest.(check bool) "the scan fails" true (outcome = Error Types.Lock_timeout);
          Alcotest.(check int) "aborted as participant_failed" 1
            (Treaty_obs.Metrics.value "n1.abort.participant_failed"));
      Client.disconnect c;
      Sim.sleep sim 3_000_000_000;
      match Cluster.check_quiescent cluster with
      | Ok () -> ()
      | Error m -> Alcotest.failf "residual state: %s" m)

(* A multi-get reads keys of every owner in one request, with each key's
   lock mode: the values come back in request order, a key written earlier
   in the transaction reads that write, and an absent key reads [None]. *)
let multi_get_across_owners () =
  with_cluster ~route:explicit_route (fun _sim cluster ->
      let c = Client.connect_exn cluster ~client_id:1 in
      (match Client.with_txn c (fun txn -> put_all c txn [ ("node1:a", "1"); ("node2:b", "2") ]) with
      | Ok () -> ()
      | Error e -> Alcotest.failf "setup: %s" (Types.abort_reason_to_string e));
      let net = Cluster.net cluster in
      (match
         Client.with_txn c ~coord:1 (fun txn ->
             ignore (Client.put c txn "node2:w" "mine");
             let requests = ref 0 in
             Net.set_adversary net (fun pkt ->
                 if pkt.Treaty_netsim.Packet.src = 1001 && pkt.dst = 1 then incr requests;
                 Adversary.Deliver);
             let values =
               Client.get_many c txn
                 [ ("node2:b", Lock_table.Read);
                   ("node1:a", Lock_table.Write);
                   ("node3:c", Lock_table.Read);
                   ("node2:w", Lock_table.Read);
                   ("node1:a", Lock_table.Read) ]
             in
             Net.clear_adversary net;
             Alcotest.(check int) "one request to the coordinator" 1 !requests;
             values)
       with
      | Ok values ->
          Alcotest.(check (list (option string)))
            "values in request order"
            [ Some "2"; Some "1"; None; Some "mine"; Some "1" ]
            values
      | Error e -> Alcotest.failf "multi-get: %s" (Types.abort_reason_to_string e));
      check_serializable cluster;
      Client.disconnect c)

(* One share of a multi-get cannot take its lock: the whole request fails,
   the transaction aborts with [Lock_timeout], and nothing is left behind
   once the holder ends. *)
let multi_get_share_lock_timeout () =
  with_cluster ~route:explicit_route (fun sim cluster ->
      let a = Client.connect_exn cluster ~client_id:1 in
      let b = Client.connect_exn cluster ~client_id:2 in
      match (Client.begin_txn a ~coord:2 (), Client.begin_txn b ~coord:1 ()) with
      | Ok txa, Ok txb ->
          Alcotest.(check bool) "the holder write-locks the key" true
            (Client.get_many a txa [ ("node2:k", Lock_table.Write) ] = Ok [ None ]);
          Alcotest.(check bool) "the multi-get times out" true
            (Client.get_many b txb
               [ ("node1:x", Lock_table.Read); ("node2:k", Lock_table.Read);
                 ("node3:y", Lock_table.Read) ]
            = Error Types.Lock_timeout);
          Alcotest.(check bool) "the transaction is gone" true
            (Client.commit b txb = Error Types.Rolled_back);
          Client.rollback a txa;
          Sim.sleep sim 1_000_000;
          no_slices_left cluster;
          Client.disconnect a;
          Client.disconnect b
      | Error e, _ | _, Error e -> Alcotest.failf "begin: %s" (Types.abort_reason_to_string e))

(* A locking get takes the key's write lock: a second locking get of the
   key waits until the first transaction commits, and then reads its
   write. *)
let locking_get_blocks_until_commit () =
  with_cluster ~route:explicit_route (fun sim cluster ->
      let a = Client.connect_exn cluster ~client_id:1 in
      let b = Client.connect_exn cluster ~client_id:2 in
      match Client.begin_txn a ~coord:1 () with
      | Error e -> Alcotest.failf "begin: %s" (Types.abort_reason_to_string e)
      | Ok txa ->
          Alcotest.(check bool) "first locking get" true
            (Client.get_many a txa [ ("node2:k", Lock_table.Write) ] = Ok [ None ]);
          let second = ref None in
          Sim.spawn sim (fun () ->
              second :=
                Some
                  (Client.with_txn b ~coord:1 (fun txb ->
                       Client.get_many b txb [ ("node2:k", Lock_table.Write) ])));
          Sim.sleep sim 5_000_000;
          Alcotest.(check bool) "the second locking get waits" true (!second = None);
          ignore (Client.put a txa "node2:k" "a");
          (match Client.commit a txa with
          | Ok () -> ()
          | Error e -> Alcotest.failf "commit: %s" (Types.abort_reason_to_string e));
          Sim.sleep sim 5_000_000;
          Alcotest.(check bool) "then reads the committed write" true
            (!second = Some (Ok [ Some "a" ]));
          check_serializable cluster;
          Client.disconnect a;
          Client.disconnect b)

(* Two transactions read one row and then write it. Reading it with a
   plain get, both hold its read lock and neither can upgrade, so one
   times out; reading it for update, the second queues behind the first
   and both commit. *)
let read_for_update_then_write () =
  with_cluster ~route:explicit_route (fun sim cluster ->
      let clients = List.init 2 (fun i -> Client.connect_exn cluster ~client_id:(i + 1)) in
      (match Client.with_txn (List.hd clients) (fun txn -> Client.put (List.hd clients) txn "node2:n" "0") with
      | Ok () -> ()
      | Error e -> Alcotest.failf "setup: %s" (Types.abort_reason_to_string e));
      let increment mode c =
        Client.with_txn c ~coord:1 (fun txn ->
            match Client.get_many c txn [ ("node2:n", mode) ] with
            | Ok [ Some v ] ->
                (* Both reads are in before either write goes out. *)
                Sim.sleep sim 1_000_000;
                Client.put c txn "node2:n" (string_of_int (int_of_string v + 1))
            | Ok _ -> Error Types.Integrity
            | Error e -> Error e)
      in
      let run mode =
        let (), outcomes =
          Sim.fan_out sim clients ~local:ignore (fun c -> increment mode c)
        in
        outcomes
      in
      Alcotest.(check bool) "plain reads: one upgrade times out" true
        (List.mem (Error Types.Lock_timeout) (run Lock_table.Read));
      Alcotest.(check bool) "reads for update: both commit" true
        (run Lock_table.Write = [ Ok (); Ok () ]);
      (match
         Client.with_txn (List.hd clients) (fun txn ->
             Client.get (List.hd clients) txn "node2:n")
       with
      | Ok (Some "3") -> ()
      | Ok v -> Alcotest.failf "counter reads %s" (Option.value v ~default:"nothing")
      | Error e -> Alcotest.failf "read back: %s" (Types.abort_reason_to_string e));
      check_serializable cluster;
      List.iter Client.disconnect clients)

let network_tamper_aborts_but_stays_consistent () =
  with_cluster ~route:explicit_route (fun sim cluster ->
      let c = Client.connect_exn cluster ~client_id:1 in
      (* Tamper every third packet on the fabric between storage nodes. *)
      let n = ref 0 in
      Net.set_adversary (Cluster.net cluster) (fun pkt ->
          if pkt.Treaty_netsim.Packet.src <= 3 && pkt.Treaty_netsim.Packet.dst <= 3 then begin
            incr n;
            if !n mod 3 = 0 then
              Adversary.Tamper
                (fun payload ->
                  let b = Bytes.of_string payload in
                  if Bytes.length b > 30 then
                    Bytes.set b 30 (Char.chr (Char.code (Bytes.get b 30) lxor 1));
                  Bytes.to_string b)
            else Adversary.Deliver
          end
          else Adversary.Deliver);
      let committed = ref 0 and aborted = ref 0 in
      for i = 0 to 9 do
        match
          Client.with_txn c (fun txn ->
              put_all c txn
                [ (Printf.sprintf "node2:t%d" i, "v"); (Printf.sprintf "node3:t%d" i, "v") ])
        with
        | Ok () -> incr committed
        | Error _ -> incr aborted
      done;
      Net.clear_adversary (Cluster.net cluster);
      Alcotest.(check bool) "adversary caused aborts" true (!aborted > 0);
      (* Allow in-doubt prepared participants (lost commit messages) to be
         driven to resolution before checking. *)
      Sim.sleep sim 1_500_000_000;
      (* Atomicity held throughout: both shards agree for every i. *)
      (match
         Client.with_txn c (fun txn ->
             let ok = ref true in
             for i = 0 to 9 do
               match
                 ( Client.get c txn (Printf.sprintf "node2:t%d" i),
                   Client.get c txn (Printf.sprintf "node3:t%d" i) )
               with
               | Ok (Some _), Ok (Some _) | Ok None, Ok None -> ()
               | _ -> ok := false
             done;
             if !ok then Ok () else Error Types.Integrity)
       with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "tampering broke atomicity");
      check_serializable cluster;
      Client.disconnect c)

(* --- IVs across incarnations --------------------------------------------- *)

(* The network key, a node's storage key and its fuse key outlive the
   endpoints that seal with them. Crash and restart node 2 and reconnect
   client 1 under its id: no sealed packet may repeat an IV its sender used
   before, and node 2's storage seals after the restart must not repeat one
   from before it. *)
let ivs_unique_across_restart () =
  with_cluster ~route:explicit_route (fun _sim cluster ->
      let net = Cluster.net cluster in
      Net.capture net ~limit:1_000_000;
      let commit c i =
        match
          Client.with_txn c (fun txn ->
              put_all c txn
                [ (Printf.sprintf "node1:k%d" i, "v"); (Printf.sprintf "node2:k%d" i, "v") ])
        with
        | Ok () -> ()
        | Error e -> Alcotest.failf "commit %d: %s" i (Types.abort_reason_to_string e)
      in
      let storage_ivs () =
        let sec = Engine.sec (Node.engine (Cluster.node cluster 1)) in
        List.init 500 (fun _ -> String.sub (Treaty_storage.Sec.protect sec "x") 0 12)
      in
      let c = Client.connect_exn cluster ~client_id:1 in
      for i = 1 to 10 do commit c i done;
      let before = storage_ivs () in
      Client.disconnect c;
      Cluster.crash_node cluster 1;
      (match Cluster.restart_node cluster 1 with
      | Ok () -> ()
      | Error m -> Alcotest.failf "restart: %s" m);
      let c = Client.connect_exn cluster ~client_id:1 in
      for i = 11 to 20 do commit c i done;
      let after = storage_ivs () in
      Client.disconnect c;
      let seen = Hashtbl.create 1024 in
      List.iter (fun iv -> Hashtbl.replace seen iv ()) before;
      Alcotest.(check int) "storage seals after the restart reuse no IV" 0
        (List.length (List.filter (Hashtbl.mem seen) after));
      let sealed = ref 0 and repeats = Hashtbl.create 8 in
      let ivs = Hashtbl.create 4096 in
      List.iter
        (fun (pkt : Treaty_netsim.Packet.t) ->
          (* Attestation traffic to and from the CAS is plain. *)
          if pkt.src <> Cluster.cas_id && pkt.dst <> Cluster.cas_id then begin
            incr sealed;
            let key = (pkt.src, String.sub pkt.payload 1 12) in
            if Hashtbl.mem ivs key then
              Hashtbl.replace repeats pkt.src
                (1 + Option.value (Hashtbl.find_opt repeats pkt.src) ~default:0)
            else Hashtbl.replace ivs key ()
          end)
        (Net.captured net);
      Alcotest.(check bool) "packets were captured" true (!sealed > 100);
      let repeated =
        Hashtbl.fold (fun src n acc -> (src, n) :: acc) repeats []
        |> List.sort compare
        |> List.map (fun (src, n) -> Printf.sprintf "%d:%d" src n)
      in
      Alcotest.(check (list string)) "senders that repeated an IV (id:count)" []
        repeated)

(* A commit point whose round fails aborts the transaction, and the abort
   must become trusted on its own: the failed round may have left the
   Begin_2pc and every prepare trusted at one replica, so recovery could
   commit the transaction without the abort, and on an idle coordinator
   no later append would start a round that carries it. *)
let failed_commit_point_abort_is_stabilized () =
  with_cluster ~route:explicit_route (fun sim cluster ->
      let module CC = Treaty_counter.Counter_client in
      let c = Client.connect_exn cluster ~client_id:1 in
      let coord = Cluster.node cluster 0 in
      let cc =
        match Node.counter_client coord with
        | Some cc -> cc
        | None -> Alcotest.fail "the profile stabilizes"
      in
      (* Once every slice has voted, the transaction appends its Begin_2pc
         to node 1's Clog: from then on, cut node 1 off from the other
         nodes until the transaction has ended, so the commit point's round
         cannot reach a quorum. *)
      let clog_counter () =
        List.assoc "CLOG" (Engine.log_last_counters (Node.engine coord))
      in
      let begun = clog_counter () + 1 in
      Net.set_adversary (Cluster.net cluster)
        (Adversary.drop_matching (fun pkt ->
             pkt.Treaty_netsim.Packet.src = 1
             && pkt.Treaty_netsim.Packet.dst < Cluster.cas_id
             && clog_counter () >= begun));
      let aborted = (Node.stats coord).Node.aborted in
      Sim.spawn sim (fun () ->
          match
            Client.with_txn c ~coord:1 (fun txn ->
                put_all c txn [ ("node2:sk", "sv"); ("node3:tk", "tv") ])
          with
          | Ok () -> Alcotest.fail "committed without a trusted commit point"
          | Error _ -> ());
      (* The commit point's round gives up after its retry budget (~0.5 s),
         and so does the abort's first wait. *)
      let rec await n =
        if (Node.stats coord).Node.aborted = aborted && n > 0 then begin
          Sim.sleep sim 10_000_000;
          await (n - 1)
        end
      in
      await 200;
      Alcotest.(check int) "the coordinator aborted" (aborted + 1)
        (Node.stats coord).Node.aborted;
      Alcotest.(check bool) "an abort followed the Begin_2pc" true
        (clog_counter () > begun);
      Net.clear_adversary (Cluster.net cluster);
      Sim.sleep sim 200_000_000;
      Alcotest.(check int) "the abort is trusted" (clog_counter ())
        (CC.stable_value cc ~log:"CLOG");
      Client.disconnect c)

(* Two restarts of one crashed node overlap, the second begun while the
   first is attesting on a bootstrap endpoint under the node's own wire id.
   Whatever the second attempt does, the node that comes up must keep its
   endpoint: a finished attestation's shutdown once unregistered whatever
   handler held the id, the live node's included, and the node went deaf. *)
let overlapping_restarts_keep_the_node_reachable () =
  with_cluster ~route:explicit_route (fun sim cluster ->
      Cluster.crash_node cluster 0;
      let outcomes = ref [] in
      let attempt delay =
        Sim.spawn sim (fun () ->
            Sim.sleep sim delay;
            let outcome = Cluster.restart_node cluster 0 in
            outcomes := outcome :: !outcomes)
      in
      attempt 0;
      attempt 50_000;
      Sim.sleep sim 30_000_000_000;
      Alcotest.(check int) "both attempts returned" 2 (List.length !outcomes);
      Alcotest.(check bool) "the node is up" true
        (List.exists Result.is_ok !outcomes);
      (match Client.connect cluster ~client_id:7 with
      | Ok c -> Client.disconnect c
      | Error `Timeout -> Alcotest.fail "the restarted node does not answer"
      | Error (`Auth_failed | `Cas_down) -> Alcotest.fail "register refused");
      let c = Client.connect_exn cluster ~client_id:8 in
      (match
         Client.with_txn c ~coord:1 (fun txn -> put_all c txn [ ("node1:up", "1") ])
       with
      | Ok () -> ()
      | Error e -> Alcotest.failf "commit on the node: %s" (Types.abort_reason_to_string e));
      Client.disconnect c)

(* Each attestation runs on a bootstrap endpoint under the node's wire id,
   and the CAS keeps its replies in an at-most-once cache for its dedup
   TTL. A restart inside that TTL attests on a new endpoint: its call must
   not carry the previous endpoint's non-transactional identity, or the
   CAS answers from the cache with the provision sealed for the previous
   handshake's nonce, and the restart is rejected. *)
let restart_inside_dedup_ttl_attests_afresh () =
  with_cluster ~route:explicit_route (fun sim cluster ->
      let ttl =
        (Treaty_rpc.Erpc.default_config ~security:Treaty_rpc.Secure_msg.Plain)
          .dedup_ttl_ns
      in
      for round = 1 to 2 do
        Cluster.crash_node cluster 0;
        match Cluster.restart_node cluster 0 with
        | Ok () -> ()
        | Error m -> Alcotest.failf "restart %d: %s" round m
      done;
      Alcotest.(check bool) "every attestation ran inside the CAS's TTL" true
        (Sim.now sim < ttl);
      let c = Client.connect_exn cluster ~client_id:1 in
      (match
         Client.with_txn c ~coord:1 (fun txn -> put_all c txn [ ("node1:up", "1") ])
       with
      | Ok () -> ()
      | Error e -> Alcotest.failf "commit on the node: %s" (Types.abort_reason_to_string e));
      Client.disconnect c)

(* --- the commit point (DESIGN §7) ----------------------------------------- *)

let clog_of cluster i =
  List.assoc "CLOG" (Engine.log_last_counters (Node.engine (Cluster.node cluster i)))

let read_back c ~coord keys =
  Client.with_txn c ~coord (fun txn ->
      List.fold_left
        (fun acc k ->
          match acc with
          | Error e -> Error e
          | Ok vs -> (
              match Client.get c txn k with
              | Ok v -> Ok (vs @ [ v ])
              | Error e -> Error e))
        (Ok []) keys)

(* A participant votes YES and crashes before the coordinator's round has
   made its prepare trusted: the round cannot reach the participant, the
   coordinator aborts, and the participant's recovery drops the untrusted
   prepare, so neither slice installs. *)
let participant_crash_before_commit_point () =
  with_cluster ~route:explicit_route (fun sim cluster ->
      let c = Client.connect_exn cluster ~client_id:1 in
      let before = clog_of cluster 0 in
      let result = ref None in
      Sim.spawn sim (fun () ->
          result :=
            Some
              (Client.with_txn c ~coord:1 (fun txn ->
                   put_all c txn [ ("node1:pc", "v"); ("node3:pc", "v") ])));
      (* The Begin_2pc is appended once every slice has voted YES; the
         commit point's round starts after its epoch alignment. *)
      let rec await n =
        if n = 0 then Alcotest.fail "the votes never came in";
        if clog_of cluster 0 = before then begin
          Sim.sleep sim 10_000;
          await (n - 1)
        end
      in
      await 10_000;
      Alcotest.(check int) "the participant holds the prepare" 1
        (List.length (Engine.prepared_txs (Node.engine (Cluster.node cluster 2))));
      Cluster.crash_node cluster 2;
      Sim.sleep sim 1_000_000_000;
      (match !result with
      | Some (Error Types.Stabilization_unavailable) -> ()
      | Some (Error e) -> Alcotest.failf "aborted as %s" (Types.abort_reason_to_string e)
      | Some (Ok ()) -> Alcotest.fail "committed without the participant's prepare"
      | None -> Alcotest.fail "the commit never returned");
      (match Cluster.restart_node cluster 2 with
      | Ok () -> ()
      | Error m -> Alcotest.failf "restart: %s" m);
      Alcotest.(check int) "recovery dropped the untrusted prepare" 0
        (List.length (Engine.prepared_txs (Node.engine (Cluster.node cluster 2))));
      Sim.sleep sim 500_000_000;
      (match read_back c ~coord:2 [ "node1:pc"; "node3:pc" ] with
      | Ok [ None; None ] -> ()
      | Ok _ -> Alcotest.fail "an aborted slice was installed"
      | Error e -> Alcotest.failf "read back: %s" (Types.abort_reason_to_string e));
      Client.disconnect c)

(* The coordinator crashes in the instant its client's ack lands: its
   commit decision is not trusted yet. Recovery finds the trusted
   Begin_2pc, asks the participant, which still holds its trusted prepare,
   and commits; the acked writes are read back from both shards. *)
let coordinator_crash_after_ack_commits () =
  with_cluster ~route:explicit_route (fun sim cluster ->
      let c = Client.connect_exn cluster ~client_id:1 in
      let coord_cc =
        match Node.counter_client (Cluster.node cluster 0) with
        | Some cc -> cc
        | None -> Alcotest.fail "the profile stabilizes"
      in
      (match
         Client.with_txn c ~coord:1 (fun txn ->
             put_all c txn [ ("node1:ca", "acked"); ("node3:ca", "acked") ])
       with
      | Ok () -> ()
      | Error e -> Alcotest.failf "commit: %s" (Types.abort_reason_to_string e));
      Alcotest.(check bool) "the decision is not trusted at the ack" true
        (Treaty_counter.Counter_client.stable_value coord_cc ~log:"CLOG"
        < clog_of cluster 0);
      Cluster.crash_node cluster 0;
      (match Cluster.restart_node cluster 0 with
      | Ok () -> ()
      | Error m -> Alcotest.failf "restart: %s" m);
      Sim.sleep sim 1_000_000_000;
      (match read_back c ~coord:2 [ "node1:ca"; "node3:ca" ] with
      | Ok [ Some "acked"; Some "acked" ] -> ()
      | Ok _ -> Alcotest.fail "an acked write was lost"
      | Error e -> Alcotest.failf "read back: %s" (Types.abort_reason_to_string e));
      Alcotest.(check int) "the participant resolved" 0
        (List.length (Engine.prepared_txs (Node.engine (Cluster.node cluster 2))));
      Client.disconnect c)

(* Seven nodes: node 1's protection group is [1; 2; 3]. With 2 and 3 down
   it has lost its quorum, while the coordinator's group [5; 6; 7] and
   node 4's [4; 5; 6] are whole. A transaction writing on nodes 1 and 4
   fails its commit point and aborts, and neither participant installs. *)
let participant_group_without_quorum_aborts () =
  let sim = Sim.create () in
  Sim.run sim (fun () ->
      let config = { (mk_config ()) with Config.nodes = 7 } in
      match Cluster.create sim config ~route:explicit_route () with
      | Error m -> Alcotest.failf "cluster bootstrap: %s" m
      | Ok cluster ->
          let c = Client.connect_exn cluster ~client_id:1 in
          Cluster.crash_node cluster 1;
          Cluster.crash_node cluster 2;
          (match
             Client.with_txn c ~coord:5 (fun txn ->
                 put_all c txn [ ("node1:gq", "v"); ("node4:gq", "v") ])
           with
          | Error Types.Stabilization_unavailable -> ()
          | Error e -> Alcotest.failf "aborted as %s" (Types.abort_reason_to_string e)
          | Ok () -> Alcotest.fail "committed without node 1's quorum");
          Sim.sleep sim 500_000_000;
          List.iter
            (fun i ->
              Alcotest.(check int)
                (Printf.sprintf "node %d holds no prepare" (i + 1))
                0
                (List.length (Engine.prepared_txs (Node.engine (Cluster.node cluster i)))))
            [ 0; 3 ];
          (match Client.read_only c [ "node1:gq"; "node4:gq" ] with
          | Ok [ (_, None); (_, None) ] -> ()
          | Ok _ -> Alcotest.fail "a participant installed"
          | Error e -> Alcotest.failf "read back: %s" (Types.abort_reason_to_string e));
          Client.disconnect c;
          Cluster.shutdown cluster)

(* Five nodes: coordinator 1's group is [1; 2; 3] and participant 3's is
   [3; 4; 5]. Node 1 seals its own entry once its group has confirmed it,
   while participant 3 is still sealing its vote. The coordinator crashes
   after that seal and before participant 3's ack reaches it (held up on
   the wire). Its Begin_2pc is trusted, so its recovery asks the
   participant, which still holds its prepare: both slices commit, and
   the participant's prepare is resolved. *)
let coordinator_crash_after_own_seal_agrees () =
  let sim = Sim.create () in
  Sim.run sim (fun () ->
      let config = { (mk_config ()) with Config.nodes = 5 } in
      match Cluster.create sim config ~route:explicit_route () with
      | Error m -> Alcotest.failf "cluster bootstrap: %s" m
      | Ok cluster ->
          let c = Client.connect_exn cluster ~client_id:1 in
          Sim.sleep sim 10_000_000;
          let coord = Cluster.node cluster 0 in
          let rounds () = (Treaty_counter.Rote.stats (Node.rote coord)).rounds in
          let writes () = (Ssd.stats (Cluster.node_ssd cluster 0)).writes in
          let before = rounds () in
          let result = ref None in
          Sim.spawn sim (fun () ->
              result :=
                Some
                  (Client.with_txn c ~coord:1 (fun txn ->
                       put_all c txn [ ("node1:os", "v"); ("node3:os", "v") ])));
          let rec poll what n cond =
            if n = 0 then Alcotest.failf "%s never happened" what;
            if not (cond ()) then begin
              Sim.sleep sim 5_000;
              poll what (n - 1) cond
            end
          in
          (* The commit point's second phase has begun: hold participant 3's
             replies to the coordinator, its sealed ack among them. *)
          poll "the commit point's second phase" 100_000 (fun () -> rounds () >= before + 2);
          Net.set_adversary (Cluster.net cluster) (fun pkt ->
              if pkt.Treaty_netsim.Packet.src = 3 && pkt.dst = 1 then Adversary.Delay 5_000_000
              else Adversary.Deliver);
          (* The next write on the coordinator's disk is its seal. *)
          let w = writes () in
          poll "the coordinator's seal" 1_000 (fun () -> writes () > w);
          Alcotest.(check bool) "no ack before the participant's" true (!result = None);
          Cluster.crash_node cluster 0;
          Net.clear_adversary (Cluster.net cluster);
          (match Cluster.restart_node cluster 0 with
          | Ok () -> ()
          | Error m -> Alcotest.failf "restart: %s" m);
          Sim.sleep sim 1_000_000_000;
          (match read_back c ~coord:2 [ "node1:os"; "node3:os" ] with
          | Ok [ Some "v"; Some "v" ] -> ()
          | Ok [ None; None ] -> Alcotest.fail "aborted, though the Begin_2pc was trusted"
          | Ok _ -> Alcotest.fail "the slices disagree"
          | Error e -> Alcotest.failf "read back: %s" (Types.abort_reason_to_string e));
          Alcotest.(check int) "the participant resolved" 0
            (List.length (Engine.prepared_txs (Node.engine (Cluster.node cluster 2))));
          Client.disconnect c;
          Cluster.shutdown cluster)

(* --- commit marks: the window between the fan-out and a trusted decision *)

let restart cluster i =
  match Cluster.restart_node cluster i with
  | Ok () -> ()
  | Error m -> Alcotest.failf "restart of node %d: %s" (i + 1) m

let part_engine cluster = Node.engine (Cluster.node cluster 2)
let marks cluster = List.map fst (Engine.committed_txs (part_engine cluster))

(* Commit [key] on nodes 1 and 3 through coordinator 1 and wait until
   participant 3 has resolved it: it then holds a commit mark, while the
   coordinator's commit decision is not yet trusted. Returns the
   transaction's number. *)
let commit_until_marked sim cluster c key =
  let txn =
    match Client.begin_txn c ~coord:1 () with
    | Ok txn -> txn
    | Error e -> Alcotest.failf "begin: %s" (Types.abort_reason_to_string e)
  in
  (match put_all c txn [ ("node1:" ^ key, "v"); ("node3:" ^ key, "v") ] with
  | Ok () -> ()
  | Error e -> Alcotest.failf "puts: %s" (Types.abort_reason_to_string e));
  (match Client.commit c txn with
  | Ok () -> ()
  | Error e -> Alcotest.failf "commit: %s" (Types.abort_reason_to_string e));
  let rec await n =
    if n = 0 then Alcotest.fail "the participant never resolved the commit";
    if marks cluster = [] then begin
      Sim.sleep sim 10_000;
      await (n - 1)
    end
  in
  await 10_000;
  let tx_seq = Client.tx_seq txn in
  Alcotest.(check (list (pair int int))) "the participant holds the commit mark"
    [ (1, tx_seq) ] (marks cluster);
  Alcotest.(check int) "and no prepare" 0
    (List.length (Engine.prepared_txs (part_engine cluster)));
  (match Node.counter_client (Cluster.node cluster 0) with
  | Some cc ->
      Alcotest.(check bool) "the coordinator's decision is not trusted" true
        (Treaty_counter.Counter_client.stable_value cc ~log:"CLOG" < clog_of cluster 0)
  | None -> Alcotest.fail "the profile stabilizes");
  tx_seq

(* After recovery: the coordinator decided commit, both slices are
   installed, and the recovery's commit carried a watermark past the
   participant's mark. *)
let check_recovered_commit sim cluster c ~tx_seq key =
  Sim.sleep sim 1_000_000_000;
  Alcotest.(check (option bool)) "recovery decided commit" (Some true)
    (Node.decision (Cluster.node cluster 0) ~tx_seq);
  (match read_back c ~coord:2 [ "node1:" ^ key; "node3:" ^ key ] with
  | Ok [ Some "v"; Some "v" ] -> ()
  | Ok _ -> Alcotest.fail "a slice of the acked commit is missing"
  | Error e -> Alcotest.failf "read back: %s" (Types.abort_reason_to_string e));
  Alcotest.(check (list (pair int int))) "the mark is forgotten" [] (marks cluster);
  Alcotest.(check int) "no prepare is left" 0
    (List.length (Engine.prepared_txs (part_engine cluster)))

(* The participant resolved the commit, so it holds no prepare; the
   coordinator crashes before its decision is trusted. The mark answers
   its recovery's question, which commits. *)
let resolved_commit_survives_coordinator_crash () =
  with_cluster ~route:explicit_route (fun sim cluster ->
      let c = Client.connect_exn cluster ~client_id:1 in
      let tx_seq = commit_until_marked sim cluster c "ra" in
      Cluster.crash_node cluster 0;
      restart cluster 0;
      check_recovered_commit sim cluster c ~tx_seq "ra";
      Client.disconnect c)

(* As above, and the participant crashes too, after a round of its own (a
   single-node commit) made its Resolve trusted: replay rebuilds the mark
   from the Prepare and the Resolve. *)
let trusted_resolve_rebuilds_the_mark () =
  with_cluster ~route:explicit_route (fun sim cluster ->
      let c = Client.connect_exn cluster ~client_id:1 in
      let tx_seq = commit_until_marked sim cluster c "rb" in
      let wal, resolved = List.nth (Engine.log_last_counters (part_engine cluster)) 2 in
      (match Client.with_txn c ~coord:3 (fun txn -> Client.put c txn "node3:own" "x") with
      | Ok () -> ()
      | Error e -> Alcotest.failf "single-node commit: %s" (Types.abort_reason_to_string e));
      (match Node.counter_client (Cluster.node cluster 2) with
      | Some cc ->
          Alcotest.(check bool) "the Resolve is trusted" true
            (Treaty_counter.Counter_client.stable_value cc ~log:wal >= resolved)
      | None -> Alcotest.fail "the profile stabilizes");
      Cluster.crash_node cluster 0;
      Cluster.crash_node cluster 2;
      restart cluster 2;
      Alcotest.(check (list (pair int int))) "replay rebuilt the mark" [ (1, tx_seq) ]
        (marks cluster);
      restart cluster 0;
      check_recovered_commit sim cluster c ~tx_seq "rb";
      Client.disconnect c)

(* As above, but the participant crashes with its Resolve outside the
   trusted prefix: replay restores the trusted prepare, which recovery
   commits again. *)
let untrusted_resolve_restores_the_prepare () =
  with_cluster ~route:explicit_route (fun sim cluster ->
      let c = Client.connect_exn cluster ~client_id:1 in
      let tx_seq = commit_until_marked sim cluster c "rc" in
      let wal, resolved = List.nth (Engine.log_last_counters (part_engine cluster)) 2 in
      (match Node.counter_client (Cluster.node cluster 2) with
      | Some cc ->
          Alcotest.(check bool) "the Resolve is not trusted" true
            (Treaty_counter.Counter_client.stable_value cc ~log:wal < resolved)
      | None -> Alcotest.fail "the profile stabilizes");
      Cluster.crash_node cluster 0;
      Cluster.crash_node cluster 2;
      restart cluster 2;
      Alcotest.(check (list (pair int int))) "replay restored the prepare" [ (1, tx_seq) ]
        (Engine.prepared_txs (part_engine cluster));
      Alcotest.(check (list (pair int int))) "and no mark" [] (marks cluster);
      restart cluster 0;
      check_recovered_commit sim cluster c ~tx_seq "rc";
      Client.disconnect c)

(* A memtable flush between the resolve and the watermark waits for the
   mark: the WAL holding its Prepare stays live, so a crash of the
   participant in that window still replays the mark. *)
let flush_keeps_a_marked_wal () =
  with_cluster ~route:explicit_route (fun sim cluster ->
      let c = Client.connect_exn cluster ~client_id:1 in
      let tx_seq = commit_until_marked sim cluster c "rd" in
      (* No watermark can arrive from a crashed coordinator. *)
      Cluster.crash_node cluster 0;
      let flushed = ref false in
      let eng = part_engine cluster in
      Sim.spawn sim (fun () ->
          Engine.flush_now eng;
          flushed := true);
      Sim.sleep sim 5_000_000;
      Alcotest.(check bool) "the flush waits for the mark" false !flushed;
      Cluster.crash_node cluster 2;
      restart cluster 2;
      Alcotest.(check (list (pair int int))) "the mark survived the flush" [ (1, tx_seq) ]
        (marks cluster);
      restart cluster 0;
      check_recovered_commit sim cluster c ~tx_seq "rd";
      Client.disconnect c)

(* An OCC slice begins while a write set on its key is prepared (the
   commit to its node is held up on the wire) and reads after the resolve:
   it must see the write, which its client was acked for. *)
let occ_read_after_resolved_prepare () =
  with_cluster ~isolation:Types.Optimistic ~route:explicit_route (fun sim cluster ->
      let c = Client.connect_exn cluster ~client_id:1 in
      Net.set_adversary (Cluster.net cluster) (fun pkt ->
          if pkt.Treaty_netsim.Packet.src = 3 && pkt.dst = 1 then Adversary.Delay 2_000_000
          else Adversary.Deliver);
      (match Client.with_txn c ~coord:3 (fun txn -> Client.put c txn "node1:k" "0") with
      | Ok () -> ()
      | Error e -> Alcotest.failf "setup: %s" (Types.abort_reason_to_string e));
      (match Client.begin_txn c ~coord:1 () with
      | Error _ -> Alcotest.fail "begin"
      | Ok txn ->
          Alcotest.(check int) "the slice began with the write prepared" 1
            (List.length (Engine.prepared_txs (Node.engine (Cluster.node cluster 0))));
          Sim.sleep sim 5_000_000;
          Net.clear_adversary (Cluster.net cluster);
          (match Client.get c txn "node1:k" with
          | Ok (Some "0") -> ()
          | Ok _ -> Alcotest.fail "the read missed an acked write"
          | Error e -> Alcotest.failf "read: %s" (Types.abort_reason_to_string e));
          Client.rollback c txn);
      check_serializable cluster;
      Client.disconnect c)

let suite =
  [
    Alcotest.test_case "lock modes" `Quick lock_modes;
    Alcotest.test_case "lock upgrade" `Quick lock_upgrade;
    Alcotest.test_case "lock waiter granted" `Quick lock_waiter_granted_on_release;
    Alcotest.test_case "deadlock resolved by timeout" `Quick lock_deadlock_resolved_by_timeout;
    Alcotest.test_case "checker detects write skew" `Quick checker_detects_cycle;
    QCheck_alcotest.to_alcotest prop_checker_no_false_positives;
    Alcotest.test_case "distributed commit visible everywhere" `Quick
      distributed_commit_visible_everywhere;
    Alcotest.test_case "abort leaves no trace" `Quick abort_leaves_no_trace;
    Alcotest.test_case "read own writes" `Quick read_own_writes;
    Alcotest.test_case "cross-shard scan" `Quick (cross_shard_scan Types.Pessimistic);
    Alcotest.test_case "cross-shard scan under OCC" `Quick
      (cross_shard_scan Types.Optimistic);
    Alcotest.test_case "concurrent pessimistic serializable" `Slow
      (concurrent_serializable Types.Pessimistic);
    Alcotest.test_case "concurrent optimistic serializable" `Slow
      (concurrent_serializable Types.Optimistic);
    Alcotest.test_case "occ conflicts abort cleanly" `Quick occ_conflicts_abort;
    Alcotest.test_case "occ conflict matrix" `Quick occ_conflict_matrix;
    Alcotest.test_case "occ distributed validation abort" `Quick
      occ_distributed_validation_abort;
    Alcotest.test_case "read-only fast path (2pl)" `Quick
      (ro_fast_path Types.Pessimistic);
    Alcotest.test_case "read-only fast path (occ)" `Quick
      (ro_fast_path Types.Optimistic);
    Alcotest.test_case "read-only waits for in-flight writer" `Quick
      ro_waits_for_inflight_writer;
    Alcotest.test_case "committed data survives crash" `Quick committed_data_survives_crash;
    Alcotest.test_case "participant crash mid-2PC" `Slow participant_crash_mid_2pc;
    Alcotest.test_case "coordinator crash before decision" `Slow
      coordinator_crash_before_decision_aborts;
    Alcotest.test_case "rollback attack detected" `Quick rollback_attack_detected;
    Alcotest.test_case "storage tampering detected" `Quick storage_tamper_detected;
    Alcotest.test_case "CAS down blocks recovery" `Quick cas_down_blocks_recovery;
    Alcotest.test_case "a failed restart is fenced like a crash" `Quick
      failed_restart_is_fenced;
    Alcotest.test_case "forged client token rejected" `Quick forged_client_rejected;
    Alcotest.test_case "truncated participant op reply aborts the tx" `Quick
      truncated_participant_reply_aborts;
    Alcotest.test_case "truncated coordinator op reply fails typed" `Quick
      truncated_client_reply_fails_typed;
    Alcotest.test_case "network tampering: aborts, stays atomic" `Slow
      network_tamper_aborts_but_stays_consistent;
    Alcotest.test_case "IVs unique across restart and reconnect" `Quick
      ivs_unique_across_restart;
    Alcotest.test_case "failed commit point's abort is trusted" `Quick
      failed_commit_point_abort_is_stabilized;
    Alcotest.test_case "overlapping restarts keep the node reachable" `Quick
      overlapping_restarts_keep_the_node_reachable;
    Alcotest.test_case "a restart inside the dedup TTL attests afresh" `Quick
      restart_inside_dedup_ttl_attests_afresh;
    Alcotest.test_case "participant crash before the commit point aborts" `Quick
      participant_crash_before_commit_point;
    Alcotest.test_case "coordinator crash after the ack commits" `Quick
      coordinator_crash_after_ack_commits;
    Alcotest.test_case "participant group without quorum aborts" `Quick
      participant_group_without_quorum_aborts;
    Alcotest.test_case "coordinator crash after its own seal agrees" `Quick
      coordinator_crash_after_own_seal_agrees;
    Alcotest.test_case "read-only asks its owners in parallel" `Quick
      ro_owners_in_parallel;
    Alcotest.test_case "read-only with an owner down releases the others" `Quick
      ro_owner_down_releases_others;
    Alcotest.test_case "read-only re-registers a restarted owner once" `Quick
      ro_restarted_owner_reregisters_once;
    Alcotest.test_case "resolved commit survives a coordinator crash" `Quick
      resolved_commit_survives_coordinator_crash;
    Alcotest.test_case "a trusted Resolve rebuilds the commit mark" `Quick
      trusted_resolve_rebuilds_the_mark;
    Alcotest.test_case "an untrusted Resolve restores the prepare" `Quick
      untrusted_resolve_restores_the_prepare;
    Alcotest.test_case "a flush keeps a committed mark's WAL" `Quick
      flush_keeps_a_marked_wal;
    Alcotest.test_case "occ read after a resolved prepare" `Quick
      occ_read_after_resolved_prepare;
    Alcotest.test_case "put-put-get reads the last write" `Quick
      put_put_get_reads_the_last_write;
    Alcotest.test_case "a buffered write's lock timeout comes back on commit" `Quick
      buffered_write_lock_timeout_on_commit;
    Alcotest.test_case "a rollback of unsent writes leaves no slice" `Quick
      rollback_of_unsent_writes;
    Alcotest.test_case "a lost batched reply aborts the participant" `Quick
      lost_batched_reply_aborts_the_participant;
    Alcotest.test_case "a scan carries the buffered writes in one request" `Quick
      scan_carries_buffered_writes;
    Alcotest.test_case "a multi-get across owners answers in request order" `Quick
      multi_get_across_owners;
    Alcotest.test_case "a lock timeout in one share aborts the multi-get" `Quick
      multi_get_share_lock_timeout;
    Alcotest.test_case "a locking get blocks a second until commit" `Quick
      locking_get_blocks_until_commit;
    Alcotest.test_case "read-for-update then write: both commit" `Quick
      read_for_update_then_write;
    Alcotest.test_case "a lost scan reply aborts the transaction" `Quick
      lost_scan_reply_aborts;
    Alcotest.test_case "a restarted coordinator's watermark frees its slices" `Quick
      restarted_coordinator_watermark_frees_slice;
  ]
