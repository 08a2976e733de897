(* Durability and stabilization semantics at the cluster level.

   The central promise of the stabilization protocol (§VI): once a client is
   acknowledged, the transaction survives any crash — even an immediate one,
   even a disk rolled back to the latest "consistent" state an adversary can
   fabricate. These tests crash nodes at the worst possible moments. *)

open Treaty_core
module Sim = Treaty_sim.Sim
module Engine = Treaty_storage.Engine
module Net = Treaty_netsim.Net
module Adversary = Treaty_netsim.Adversary
module Secure_msg = Treaty_rpc.Secure_msg

let mk_config profile =
  {
    (Config.with_profile Config.default profile) with
    Config.record_history = false;
    engine =
      {
        (Config.with_profile Config.default profile).Config.engine with
        Engine.memtable_max_bytes = 64 * 1024;
      };
  }

(* Route by explicit prefix, as in test_core. *)
let explicit_route key =
  match String.index_opt key ':' with
  | Some i -> ( try int_of_string (String.sub key 4 (i - 4)) - 1 with _ -> 0)
  | None -> Hashtbl.hash key

let ack_implies_durable_under_immediate_crash () =
  let sim = Sim.create () in
  Sim.run sim (fun () ->
      match Cluster.create sim (mk_config Config.treaty_enc_stab) ~route:explicit_route () with
      | Error m -> Alcotest.failf "bootstrap: %s" m
      | Ok cluster ->
          let c = Client.connect_exn cluster ~client_id:1 in
          (* Commit through node 2 and crash it in the same instant the ack
             lands — zero grace time. The stabilization protocol must have
             made the WAL entry (and the manifest entry registering that
             WAL) trusted *before* the ack. *)
          (match
             Client.with_txn c ~coord:2 (fun txn ->
                 Client.put c txn "node2:acked" "must-survive")
           with
          | Ok () -> ()
          | Error e -> Alcotest.failf "commit: %s" (Types.abort_reason_to_string e));
          Cluster.crash_node cluster 1;
          (match Cluster.restart_node cluster 1 with
          | Ok () -> ()
          | Error m -> Alcotest.failf "restart: %s" m);
          (match
             Client.with_txn c ~coord:3 (fun txn ->
                 match Client.get c txn "node2:acked" with
                 | Ok (Some "must-survive") -> Ok ()
                 | Ok _ -> Error Types.Integrity
                 | Error e -> Error e)
           with
          | Ok () -> ()
          | Error e ->
              Alcotest.failf "acked transaction lost: %s"
                (Types.abort_reason_to_string e));
          Client.disconnect c;
          Cluster.shutdown cluster)

let distributed_ack_durable_on_participant_crash () =
  let sim = Sim.create () in
  Sim.run sim (fun () ->
      match Cluster.create sim (mk_config Config.treaty_enc_stab) ~route:explicit_route () with
      | Error m -> Alcotest.failf "bootstrap: %s" m
      | Ok cluster ->
          let c = Client.connect_exn cluster ~client_id:1 in
          (* A distributed tx acked by coordinator 1; participant 3 crashes
             immediately. Its local commit record may not be stable — but
             the coordinator's stabilized decision must drive recovery to
             commit. *)
          (match
             Client.with_txn c ~coord:1 (fun txn ->
                 match Client.put c txn "node1:a" "1" with
                 | Ok () -> Client.put c txn "node3:b" "2"
                 | Error e -> Error e)
           with
          | Ok () -> ()
          | Error e -> Alcotest.failf "commit: %s" (Types.abort_reason_to_string e));
          Cluster.crash_node cluster 2;
          (match Cluster.restart_node cluster 2 with
          | Ok () -> ()
          | Error m -> Alcotest.failf "restart: %s" m);
          (* Give the recovered participant time to resolve with the
             coordinator. *)
          Sim.sleep sim 1_000_000_000;
          (match
             Client.with_txn c ~coord:1 (fun txn ->
                 match (Client.get c txn "node1:a", Client.get c txn "node3:b") with
                 | Ok (Some "1"), Ok (Some "2") -> Ok ()
                 | _ -> Error Types.Integrity)
           with
          | Ok () -> ()
          | Error e ->
              Alcotest.failf "acked distributed tx lost: %s"
                (Types.abort_reason_to_string e));
          Client.disconnect c;
          Cluster.shutdown cluster)

let coordinator_crash_between_decision_and_fanout () =
  (* The narrowest 2PC window: the commit decision is stabilized in the
     Clog but the k_commit fan-out never reaches the participants, and the
     coordinator then dies. The in-doubt participants must learn the
     outcome through the Clog-backed decision query against the restarted
     coordinator — and the acked writes must survive on every shard. *)
  let sim = Sim.create () in
  Sim.run sim (fun () ->
      (* Stabilization on, encryption off, so the adversary can classify
         packets by their (plaintext) RPC kind. *)
      let profile = { Config.treaty_no_enc with Config.stabilization = true } in
      let cfg =
        {
          (mk_config profile) with
          Config.rpc_timeout_ns = 60_000_000;
          sweep_interval_ns = 50_000_000;
          part_prepared_resolve_ns = 150_000_000;
        }
      in
      match Cluster.create sim cfg ~route:explicit_route () with
      | Error m -> Alcotest.failf "bootstrap: %s" m
      | Ok cluster ->
          let net = Cluster.net cluster in
          let k_commit = Txn_wire.k_commit in
          (* Every packet is a burst: drop any that carries a k_commit
             request, and count the drops so the test cannot pass without
             ever exercising the window. *)
          let dropped = ref 0 in
          Net.set_adversary net
            (Adversary.drop_matching (fun pkt ->
                 let drop =
                   pkt.Treaty_netsim.Packet.src = 1
                   && pkt.Treaty_netsim.Packet.dst < 1000
                   && pkt.Treaty_netsim.Packet.dst <> Cluster.cas_id
                   &&
                   match
                     Secure_msg.Burst.decode Secure_msg.Plain
                       ~buf:(Bytes.create (String.length pkt.payload))
                       pkt.payload
                   with
                   | Ok msgs ->
                       List.exists
                         (fun ((m : Secure_msg.meta), _) ->
                           (not m.is_response) && m.kind = k_commit)
                         msgs
                   | Error _ -> false
                 in
                 if drop then incr dropped;
                 drop));
          let c = Client.connect_exn cluster ~client_id:1 in
          (* The ack arrives only after the fan-out attempt times out — the
             decision itself was stabilized before it. *)
          (match
             Client.with_txn c ~coord:1 (fun txn ->
                 match Client.put c txn "node1:dw" "local" with
                 | Ok () -> Client.put c txn "node3:dw" "remote"
                 | Error e -> Error e)
           with
          | Ok () -> ()
          | Error e -> Alcotest.failf "commit: %s" (Types.abort_reason_to_string e));
          Cluster.crash_node cluster 0;
          (match Cluster.restart_node cluster 0 with
          | Ok () -> ()
          | Error m -> Alcotest.failf "restart: %s" m);
          (* The adversary stays installed: only the participant-initiated
             k_query_decision path can resolve the in-doubt tx. *)
          Sim.sleep sim 1_000_000_000;
          (match
             Client.with_txn c ~coord:2 (fun txn ->
                 match (Client.get c txn "node1:dw", Client.get c txn "node3:dw") with
                 | Ok (Some "local"), Ok (Some "remote") -> Ok ()
                 | _ -> Error Types.Integrity)
           with
          | Ok () -> ()
          | Error e ->
              Alcotest.failf "acked write lost in the decision/fan-out window: %s"
                (Types.abort_reason_to_string e));
          Alcotest.(check bool) "the k_commit fan-out was dropped" true
            (!dropped > 0);
          Alcotest.(check bool) "participants resolved via decision query" true
            ((Node.stats (Cluster.node cluster 0)).Node.decisions_queried > 0);
          Client.disconnect c;
          Cluster.shutdown cluster)

let no_stab_profile_vulnerable_to_rollback () =
  (* The contrapositive: without stabilization, a disk rollback after a
     crash is NOT detected — this is precisely the attack surface the
     protocol exists to close. *)
  let sim = Sim.create () in
  Sim.run sim (fun () ->
      match Cluster.create sim (mk_config Config.treaty_enc) ~route:explicit_route () with
      | Error m -> Alcotest.failf "bootstrap: %s" m
      | Ok cluster ->
          let c = Client.connect_exn cluster ~client_id:1 in
          (match
             Client.with_txn c ~coord:1 (fun txn -> Client.put c txn "node1:v" "old")
           with
          | Ok () -> ()
          | Error e -> Alcotest.failf "commit: %s" (Types.abort_reason_to_string e));
          let ssd = Cluster.node_ssd cluster 0 in
          let snapshot = Treaty_storage.Ssd.snapshot ssd in
          (match
             Client.with_txn c ~coord:1 (fun txn -> Client.put c txn "node1:v" "new")
           with
          | Ok () -> ()
          | Error e -> Alcotest.failf "commit2: %s" (Types.abort_reason_to_string e));
          Cluster.crash_node cluster 0;
          Treaty_storage.Ssd.restore ssd snapshot;
          (match Cluster.restart_node cluster 0 with
          | Ok () -> () (* accepted the stale state: the vulnerability *)
          | Error m -> Alcotest.failf "w/o Stab should not detect rollback: %s" m);
          (match
             Client.with_txn c ~coord:2 (fun txn ->
                 match Client.get c txn "node1:v" with
                 | Ok (Some "old") -> Ok () (* stale data served: QED *)
                 | Ok (Some "new") -> Error Types.Integrity
                 | _ -> Error Types.Participant_failed)
           with
          | Ok () -> ()
          | Error _ -> Alcotest.fail "expected the stale value to be served");
          Client.disconnect c;
          Cluster.shutdown cluster)

let stabilization_batches_across_concurrent_commits () =
  let sim = Sim.create () in
  Sim.run sim (fun () ->
      match Cluster.create sim (mk_config Config.treaty_enc_stab) ~route:explicit_route () with
      | Error m -> Alcotest.failf "bootstrap: %s" m
      | Ok cluster ->
          let latch = Treaty_sched.Scheduler.Latch.create 8 in
          for cid = 1 to 8 do
            Sim.spawn sim (fun () ->
                (match Client.connect cluster ~client_id:cid with
                | Error _ -> ()
                | Ok c ->
                    for i = 1 to 5 do
                      ignore
                        (Client.with_txn c ~coord:1 (fun txn ->
                             Client.put c txn
                               (Printf.sprintf "node1:k%d-%d" cid i)
                               "v"))
                    done;
                    Client.disconnect c);
                Treaty_sched.Scheduler.Latch.arrive latch)
          done;
          Treaty_sched.Scheduler.Latch.wait (Sim.sched sim) latch;
          let node = Cluster.node cluster 0 in
          (match Node.counter_client node with
          | None -> Alcotest.fail "stab profile must have a counter client"
          | Some cc ->
              (* Batching happens at two levels: group commit merges the 40
                 transactions into a handful of WAL entries (submits), and
                 the counter client coalesces in-flight rounds. The 40
                 commits must have cost far fewer than 40 ROTE rounds. *)
              let s = Treaty_counter.Counter_client.stats cc in
              Alcotest.(check bool)
                (Printf.sprintf "rounds (%d) well below commits (40)"
                   s.Treaty_counter.Counter_client.rounds_started)
                true
                (s.Treaty_counter.Counter_client.rounds_started <= 20
                && s.Treaty_counter.Counter_client.rounds_started
                   <= s.Treaty_counter.Counter_client.submits));
          Cluster.shutdown cluster)

let unstable_resolve_rederived_after_participant_crash () =
  (* A participant's Resolve starts no counter round, so a crash right after
     the ack can leave it outside the trusted WAL prefix. Recovery must then
     re-lock the stable prepare and resolve it from the coordinator's stable
     decision: the writes are installed once (a later transaction's write to
     the key is never overwritten by a re-installed earlier one), the
     history stays serializable and no lock is left behind. *)
  Treaty_util.Sanitizer.reset ();
  let sim = Sim.create () in
  Sim.run sim (fun () ->
      let profile = { Config.treaty_enc_stab with Config.sanitize = true } in
      (* Short dedup TTL and sweep, as in the chaos sweep, so residual
         state drains within the run. *)
      let cfg =
        {
          (mk_config profile) with
          Config.record_history = true;
          dedup_ttl_ns = 600_000_000;
          sweep_interval_ns = 100_000_000;
        }
      in
      match Cluster.create sim cfg ~route:explicit_route () with
      | Error m -> Alcotest.failf "bootstrap: %s" m
      | Ok cluster ->
          let c = Client.connect_exn cluster ~client_id:1 in
          let commit value =
            match
              Client.with_txn c ~coord:1 (fun txn ->
                  match Client.put c txn "node1:a" value with
                  | Ok () -> Client.put c txn "node3:b" value
                  | Error e -> Error e)
            with
            | Ok () -> ()
            | Error e ->
                Alcotest.failf "commit %s: %s" value (Types.abort_reason_to_string e)
          in
          let crash_participant what =
            (* The ack has landed; the participant's Resolve is appended but
               no round has carried it. *)
            let node = Cluster.node cluster 2 in
            let wal, last =
              match Engine.log_last_counters (Node.engine node) with
              | [ _; _; wal ] -> wal
              | _ -> Alcotest.fail "log_last_counters: MANIFEST, Clog, WAL"
            in
            (match Node.counter_client node with
            | None -> Alcotest.fail "stab profile must have a counter client"
            | Some cc ->
                Alcotest.(check bool)
                  (what ^ ": Resolve outside the trusted prefix")
                  true
                  (Treaty_counter.Counter_client.stable_value cc ~log:wal < last));
            Cluster.crash_node cluster 2;
            (match Cluster.restart_node cluster 2 with
            | Ok () -> ()
            | Error m -> Alcotest.failf "%s: restart: %s" what m);
            let node = Cluster.node cluster 2 in
            Alcotest.(check int)
              (what ^ ": the stable prepare is back")
              1
              (List.length (Engine.prepared_txs (Node.engine node)));
            Alcotest.(check bool)
              (what ^ ": and re-locked")
              true
              (Lock_table.write_locked (Node.locks node) ~key:"node3:b");
            (* Let the recovered participant resolve with the coordinator. *)
            Sim.sleep sim 1_000_000_000;
            Alcotest.(check int)
              (what ^ ": resolved from the decision")
              0
              (List.length (Engine.prepared_txs (Node.engine node)));
            Alcotest.(check bool)
              (what ^ ": lock released")
              false
              (Lock_table.write_locked (Node.locks node) ~key:"node3:b")
          in
          let read () =
            match
              Client.with_txn c ~coord:1 (fun txn ->
                  match (Client.get c txn "node1:a", Client.get c txn "node3:b") with
                  | Ok (Some a), Ok (Some b) -> Ok (a, b)
                  | _ -> Error Types.Integrity)
            with
            | Ok v -> v
            | Error e -> Alcotest.failf "read: %s" (Types.abort_reason_to_string e)
          in
          commit "1";
          crash_participant "first";
          Alcotest.(check (pair string string)) "acked writes installed" ("1", "1") (read ());
          commit "2";
          crash_participant "second";
          Alcotest.(check (pair string string))
            "the later write is not overwritten" ("2", "2") (read ());
          Client.disconnect c;
          Sim.sleep sim 1_000_000_000;
          (match Cluster.check_quiescent cluster with
          | Ok () -> ()
          | Error m -> Alcotest.failf "residual state: %s" m);
          (match Cluster.sanitize_check cluster with
          | Ok () -> ()
          | Error m -> Alcotest.failf "sanitizer: %s" m);
          (match Cluster.history cluster with
          | None -> Alcotest.fail "history recording was off"
          | Some h -> (
              match Serializability.check h with
              | Serializability.Serializable -> ()
              | Serializability.Cycle txs ->
                  Alcotest.failf "not serializable: %s"
                    (Serializability.dump_cycle h txs)));
          Cluster.shutdown cluster)

let zombie_abort_after_restart_is_fenced () =
  (* The coordinator crashes while its commit point waits for its round,
     and is restarted at once. Its dead incarnation's fibers run on: the
     commit point's wait runs out of counter retries and the abort path
     writes its abort Decision — by then the new incarnation has replayed
     the Clog and appended past that point. That write must not reach the
     disk, or the next replay finds the Clog's MAC chain broken. *)
  let sim = Sim.create () in
  Sim.run sim (fun () ->
      match Cluster.create sim (mk_config Config.treaty_enc_stab) ~route:explicit_route () with
      | Error m -> Alcotest.failf "bootstrap: %s" m
      | Ok cluster ->
          let c = Client.connect_exn cluster ~client_id:1 in
          let node = Cluster.node cluster 0 in
          let cc =
            match Node.counter_client node with
            | Some cc -> cc
            | None -> Alcotest.fail "stab profile must have a counter client"
          in
          let clog () = List.assoc "CLOG" (Engine.log_last_counters (Node.engine node)) in
          let before = clog () in
          Sim.spawn sim (fun () ->
              ignore
                (Client.with_txn c ~coord:1 (fun txn ->
                     match Client.put c txn "node1:z" "1" with
                     | Ok () -> Client.put c txn "node3:z" "1"
                     | Error e -> Error e)));
          (* The Begin_2pc is appended; the commit point has not made it
             trusted yet. *)
          let rec await_decision steps =
            if steps = 0 then Alcotest.fail "the Begin_2pc was never appended";
            if
              clog () >= before + 1
              && Treaty_counter.Counter_client.stable_value cc ~log:"CLOG" < clog ()
            then ()
            else begin
              Sim.sleep sim 10_000;
              await_decision (steps - 1)
            end
          in
          await_decision 10_000;
          Cluster.crash_node cluster 0;
          (match Cluster.restart_node cluster 0 with
          | Ok () -> ()
          | Error m -> Alcotest.failf "restart: %s" m);
          Sim.sleep sim 1_000_000_000;
          Alcotest.(check bool) "the dead incarnation's commit point ran out" true
            ((Treaty_counter.Counter_client.stats cc).failed_waits > 0);
          Cluster.crash_node cluster 0;
          (match Cluster.restart_node cluster 0 with
          | Ok () -> ()
          | Error m -> Alcotest.failf "second restart: %s" m);
          (match
             Client.with_txn c ~coord:2 (fun txn ->
                 match (Client.get c txn "node1:z", Client.get c txn "node3:z") with
                 | Ok None, Ok None -> Ok ()
                 | _ -> Error Types.Integrity)
           with
          | Ok () -> ()
          | Error e ->
              Alcotest.failf "the undecided transaction was not aborted: %s"
                (Types.abort_reason_to_string e));
          Client.disconnect c;
          Cluster.shutdown cluster)

let crash_mid_seal_keeps_newest_seal () =
  (* A node seals its counter table into two slot files, deleting the
     older one before it writes the new record. Crash it inside that
     window, three times, restarting in between: the slot left on the
     device must be the one written last, or the node's own confirmed
     counters — which its recovery query counts — are gone. The first
     seals after a restart are the ones that must pick the right slot
     from what the disk holds. *)
  let sim = Sim.create () in
  Sim.run sim (fun () ->
      match Cluster.create sim (mk_config Config.treaty_enc_stab) ~route:explicit_route () with
      | Error m -> Alcotest.failf "bootstrap: %s" m
      | Ok cluster ->
          let device = Cluster.node_ssd cluster 0 in
          (* A slot is deleted and recreated empty at once; its record lands
             when the device write completes. *)
          let holds slot = Treaty_storage.Ssd.size device slot > 0 in
          let slots = [| "rote.seal.0"; "rote.seal.1" |] in
          (* Node 1 seals after its own rounds (its single-node commits)
             and before it confirms its votes in node 2's commit points
             (transactions that write on both): two sources of seals that
             run at once. *)
          let stop = ref false in
          let load ~coord write =
            let c = Client.connect_exn cluster ~client_id:(10 + coord) in
            Sim.spawn sim (fun () ->
                let i = ref 0 in
                while not !stop do
                  ignore (Client.with_txn c ~coord (fun txn -> write c txn (!i mod 16)));
                  incr i
                done;
                Client.disconnect c)
          in
          load ~coord:1 (fun c txn i -> Client.put c txn (Printf.sprintf "node1:s%d" i) "v");
          load ~coord:2 (fun c txn i ->
              match Client.put c txn (Printf.sprintf "node2:d%d" i) "v" with
              | Ok () -> Client.put c txn (Printf.sprintf "node1:d%d" i) "v"
              | Error e -> Error e);
          (* Watch the device every microsecond (a seal's delete-to-append
             window lasts its write's syscall and device time), through the
             crashes and restarts: [newest] is the slot that last
             reappeared, and deleting it is a violation. Every deletion
             opens a window for the crash. *)
          let newest = ref None and violations = ref 0 in
          let deleted = ref (Sim.ivar ()) in
          Sim.spawn sim (fun () ->
              let present = ref (Array.map holds slots) in
              while not !stop do
                Sim.sleep sim 1_000;
                let now = Array.map holds slots in
                Array.iteri
                  (fun i p ->
                    if p && not !present.(i) then newest := Some i;
                    if !present.(i) && not p then begin
                      if !newest = Some i then incr violations;
                      ignore (Sim.try_fill !deleted ())
                    end)
                  now;
                present := now
              done);
          for round = 1 to 3 do
            deleted := Sim.ivar ();
            (match Sim.read_timeout sim ~ns:5_000_000_000 !deleted with
            | Some () -> ()
            | None -> Alcotest.failf "crash %d: no seal was caught mid-write" round);
            Cluster.crash_node cluster 0;
            Alcotest.(check bool)
              (Printf.sprintf "crash %d: a slot holds a seal" round)
              true
              (Array.exists holds slots);
            match Cluster.restart_node cluster 0 with
            | Ok () -> ()
            | Error m -> Alcotest.failf "restart %d: %s" round m
          done;
          Sim.sleep sim 50_000_000;
          Alcotest.(check int) "no write replaced the newest seal" 0 !violations;
          stop := true;
          Sim.sleep sim 100_000_000;
          Cluster.shutdown cluster)

let suite =
  [
    Alcotest.test_case "ack implies durable (immediate crash)" `Quick
      ack_implies_durable_under_immediate_crash;
    Alcotest.test_case "distributed ack durable on participant crash" `Quick
      distributed_ack_durable_on_participant_crash;
    Alcotest.test_case "coordinator crash between decision and fan-out" `Quick
      coordinator_crash_between_decision_and_fanout;
    Alcotest.test_case "w/o Stab: rollback goes undetected (by design)" `Quick
      no_stab_profile_vulnerable_to_rollback;
    Alcotest.test_case "stabilization batches counter rounds" `Slow
      stabilization_batches_across_concurrent_commits;
    Alcotest.test_case "unstable Resolve re-derived after participant crash"
      `Quick unstable_resolve_rederived_after_participant_crash;
    Alcotest.test_case "zombie abort after a restart is fenced off the disk" `Quick
      zombie_abort_after_restart_is_fenced;
    Alcotest.test_case "crash mid-seal keeps the newest seal" `Quick
      crash_mid_seal_keeps_newest_seal;
  ]
