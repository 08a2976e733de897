(* Trusted counter service (ROTE) and the asynchronous stabilization
   client: quorum behaviour, monotonicity, batching, recovery queries. *)

module Sim = Treaty_sim.Sim
module Enclave = Treaty_tee.Enclave
module Net = Treaty_netsim.Net
module Erpc = Treaty_rpc.Erpc
module Rote = Treaty_counter.Rote
module CC = Treaty_counter.Counter_client

(* One replica per node id in [members], each joined to its own
   protection group — the whole membership while [n <= 2f+1]. *)
let mk_replica ?incarnation ?persist ?restore sim net ~members id =
  let enclave =
    Enclave.create ?incarnation sim ~mode:Enclave.Scone
      ~cost:Treaty_sim.Costmodel.default ~cores:4 ~node_id:id
      ~code_identity:"rote-test"
  in
  let pool = Treaty_memalloc.Mempool.create enclave in
  let rpc =
    Erpc.create sim ~net ~enclave ~pool
      ~config:(Erpc.default_config ~security:Treaty_rpc.Secure_msg.Plain)
      ~node_id:id ()
  in
  ( rpc,
    Rote.create_replica rpc ~group:(Rote.protection_group ~self:id ~members) ~members
      ?persist ?restore () )

let mk_group ?(n = 3) sim net =
  let members = List.init n (fun j -> j + 1) in
  List.map (mk_replica sim net ~members) members

let with_group ?n f =
  let sim = Sim.create () in
  let net = Net.create sim Treaty_sim.Costmodel.default in
  Sim.run sim (fun () -> f sim (mk_group ?n sim net))

let increment_and_query () =
  with_group (fun _sim group ->
      let _, r1 = List.hd group in
      (match Rote.increment r1 ~owner:1 ~log:"WAL" ~value:5 with
      | Ok () -> ()
      | Error `No_quorum -> Alcotest.fail "quorum available");
      List.iteri
        (fun i (_, r) ->
          Alcotest.(check int)
            (Printf.sprintf "replica %d holds the value" i)
            5
            (Rote.local_value r ~owner:1 ~log:"WAL"))
        group;
      match Rote.query r1 ~owner:1 ~log:"WAL" with
      | Ok 5 -> ()
      | Ok v -> Alcotest.failf "query returned %d" v
      | Error `No_quorum -> Alcotest.fail "query quorum")

let counters_are_namespaced () =
  with_group (fun _sim group ->
      let (_, r1), (_, r2) = match group with a :: b :: _ -> (a, b) | _ -> assert false in
      ignore (Rote.increment r1 ~owner:1 ~log:"A" ~value:3);
      ignore (Rote.increment r1 ~owner:1 ~log:"B" ~value:7);
      (* Node 2's value rides node 1's round as a vote would. *)
      Rote.note_vote r2 [ ("A", 11) ];
      ignore (Rote.increment r1 ~owner:2 ~log:"A" ~value:11);
      Alcotest.(check int) "owner1/A" 3 (Rote.local_value r1 ~owner:1 ~log:"A");
      Alcotest.(check int) "owner1/B" 7 (Rote.local_value r1 ~owner:1 ~log:"B");
      Alcotest.(check int) "owner2/A" 11 (Rote.local_value r1 ~owner:2 ~log:"A"))

let survives_minority_crash () =
  with_group (fun _sim group ->
      let (_, r1), (rpc2, _), _ =
        match group with [ a; b; c ] -> (a, b, c) | _ -> assert false
      in
      ignore (Rote.increment r1 ~owner:1 ~log:"L" ~value:4);
      Erpc.shutdown rpc2;
      (match Rote.increment r1 ~owner:1 ~log:"L" ~value:5 with
      | Ok () -> ()
      | Error `No_quorum -> Alcotest.fail "2/3 should still be a quorum");
      match Rote.query r1 ~owner:1 ~log:"L" with
      | Ok 5 -> ()
      | _ -> Alcotest.fail "query after minority crash")

let no_quorum_fails () =
  with_group (fun _sim group ->
      let (_, r1), (rpc2, _), (rpc3, _) =
        match group with [ a; b; c ] -> (a, b, c) | _ -> assert false
      in
      Erpc.shutdown rpc2;
      Erpc.shutdown rpc3;
      match Rote.increment r1 ~owner:1 ~log:"L" ~value:1 with
      | Error `No_quorum -> ()
      | Ok () -> Alcotest.fail "1/3 is not a quorum")

let recovery_query_from_peers () =
  (* The owner crashes and loses its replica state; the group remembers. *)
  with_group (fun _sim group ->
      let (_, r1), (_, r2), _ =
        match group with [ a; b; c ] -> (a, b, c) | _ -> assert false
      in
      ignore (Rote.increment r1 ~owner:1 ~log:"WAL" ~value:42);
      (* A fresh replica (recovering node 1) queries the group through any
         member; here through replica 2's endpoint. *)
      match Rote.query r2 ~owner:1 ~log:"WAL" with
      | Ok 42 -> ()
      | Ok v -> Alcotest.failf "peers returned %d" v
      | Error `No_quorum -> Alcotest.fail "quorum")

(* One batched increment of the replica's own logs, as its pump runs it. *)
let own_batch r targets =
  match Rote.increment_batch r ~entries:(fun () -> [ Rote.own_entry r targets ]) with
  | [ (_, `Trusted) ] -> Ok ()
  | _ -> Error `No_quorum

let expect_stable what = function
  | Ok () -> ()
  | Error `Stability_timeout -> Alcotest.failf "%s: stability timeout" what

let client_batches_rounds () =
  with_group (fun sim group ->
      let _, r1 = List.hd group in
      let cc = CC.create r1 ~owner:1 in
      (* A burst of submits coalesces: far fewer rounds than submits. *)
      for c = 1 to 50 do
        CC.submit cc ~log:"WAL" ~counter:c
      done;
      expect_stable "watermark" (CC.wait_stable cc ~log:"WAL" ~counter:50);
      Alcotest.(check int) "stable watermark" 50 (CC.stable_value cc ~log:"WAL");
      let rounds = (CC.stats cc).CC.rounds_started in
      Alcotest.(check bool)
        (Printf.sprintf "batched (%d rounds for 50 submits)" rounds)
        true (rounds <= 5);
      (* wait_stable below the watermark returns immediately. *)
      let t0 = Sim.now sim in
      expect_stable "below watermark" (CC.wait_stable cc ~log:"WAL" ~counter:10);
      Alcotest.(check int) "no wait below watermark" t0 (Sim.now sim))

let client_wakes_waiters_in_order () =
  with_group (fun sim group ->
      let _, r1 = List.hd group in
      let cc = CC.create r1 ~owner:1 in
      let woken = ref [] in
      for c = 1 to 3 do
        Sim.spawn sim (fun () ->
            expect_stable "waiter" (CC.wait_stable cc ~log:"L" ~counter:c);
            woken := c :: !woken)
      done;
      Sim.sleep sim 100_000_000;
      Alcotest.(check int) "all waiters woken" 3 (List.length !woken);
      Alcotest.(check int) "watermark covers all" 3 (CC.stable_value cc ~log:"L"))

let multi_log_epoch_rounds () =
  (* The epoch pump drains every dirty log per round: submits spread over
     three logs cost barely more rounds than one log, and each log's stable
     watermark lands on its own highest submitted value. *)
  with_group (fun _sim group ->
      let _, r1 = List.hd group in
      let cc = CC.create r1 ~owner:1 in
      let logs = [ ("WAL", 30); ("MANIFEST", 7); ("Clog", 19) ] in
      List.iter
        (fun (log, hi) ->
          for c = 1 to hi do
            CC.submit cc ~log ~counter:c
          done)
        logs;
      List.iter
        (fun (log, hi) ->
          expect_stable log (CC.wait_stable cc ~log ~counter:hi);
          Alcotest.(check int)
            (log ^ " watermark") hi
            (CC.stable_value cc ~log))
        logs;
      let s = CC.stats cc in
      Alcotest.(check bool)
        (Printf.sprintf "cross-log batching (%d rounds)" s.CC.rounds_started)
        true
        (s.CC.rounds_started <= 5);
      let rs = Rote.stats r1 in
      Alcotest.(check bool)
        (Printf.sprintf "rounds carry multiple targets (%d targets / %d incs)"
           rs.Rote.targets rs.Rote.increments)
        true
        (rs.Rote.targets > rs.Rote.increments))

let epoch_window_coalesces_staggered_submits () =
  (* A round's batch forms during ROTE's echo1 alignment wait (300 us),
     which every round pays before it reads its targets: a submit to another
     log landing inside that wait rides the same round, and nothing is
     stable before the wait has passed. *)
  with_group (fun sim group ->
      let _, r1 = List.hd group in
      let cc = CC.create r1 ~owner:1 in
      let t0 = Sim.now sim in
      CC.submit cc ~log:"WAL" ~counter:1;
      Sim.sleep sim 100_000;
      CC.submit cc ~log:"MANIFEST" ~counter:1;
      expect_stable "WAL" (CC.wait_stable cc ~log:"WAL" ~counter:1);
      let waited = Sim.now sim - t0 in
      Alcotest.(check bool)
        (Printf.sprintf "window paid before the round (%d ns)" waited)
        true (waited >= 250_000);
      expect_stable "MANIFEST" (CC.wait_stable cc ~log:"MANIFEST" ~counter:1);
      Alcotest.(check int) "one round for both logs" 1
        (CC.stats cc).CC.rounds_started;
      (* A submit after the round has finished starts a fresh one. *)
      CC.submit cc ~log:"WAL" ~counter:2;
      expect_stable "WAL again" (CC.wait_stable cc ~log:"WAL" ~counter:2);
      Alcotest.(check int) "second round" 2 (CC.stats cc).CC.rounds_started)

let abandoned_round_fails_waiters () =
  (* Quorum loss past the retry budget must fail pending waiters with
     [`Stability_timeout], not strand their fibers forever. *)
  with_group (fun sim group ->
      let (_, r1), (rpc2, _), (rpc3, _) =
        match group with [ a; b; c ] -> (a, b, c) | _ -> assert false
      in
      Erpc.shutdown rpc2;
      Erpc.shutdown rpc3;
      let cc = CC.create r1 ~owner:1 in
      let outcome = ref `Pending in
      Sim.spawn sim (fun () ->
          match CC.wait_stable cc ~log:"WAL" ~counter:1 with
          | Ok () -> outcome := `Stable
          | Error `Stability_timeout -> outcome := `Failed);
      (* The pump's budget, 40 rounds without a quorum 2 ms apart, runs out
         after about half a second. *)
      Sim.sleep sim 1_000_000_000;
      (match !outcome with
      | `Failed -> ()
      | `Stable -> Alcotest.fail "stabilized without a quorum"
      | `Pending -> Alcotest.fail "waiter hung on the abandoned round");
      Alcotest.(check int) "failure counted" 1 (CC.stats cc).CC.failed_waits;
      Alcotest.(check int) "nothing stable" 0 (CC.stable_value cc ~log:"WAL"))

let protection_groups () =
  let size = (2 * Rote.fault_threshold) + 1 in
  for n = 1 to 120 do
    let members = List.init n (fun i -> i + 1) in
    let load = Array.make (n + 1) 0 in
    List.iter
      (fun self ->
        let g = Rote.protection_group ~self ~members in
        let what = Printf.sprintf "N=%d self=%d" n self in
        Alcotest.(check bool) (what ^ ": contains self") true (List.mem self g);
        Alcotest.(check int) (what ^ ": size") (min n size) (List.length g);
        Alcotest.(check (list int)) (what ^ ": deterministic") g
          (Rote.protection_group ~self ~members);
        Alcotest.(check int) (what ^ ": distinct members") (List.length g)
          (List.length (List.sort_uniq compare g));
        if n <= size then
          Alcotest.(check (list int)) (what ^ ": whole membership") members g;
        List.iter (fun m -> load.(m) <- load.(m) + 1) g)
      members;
    List.iter
      (fun m ->
        Alcotest.(check int)
          (Printf.sprintf "N=%d: node %d replica load" n m)
          (min n size) load.(m))
      members
  done;
  (* Small memberships keep their given order (it fixes the round's spawn
     order, hence the trace); larger ones are ring successors by id. *)
  Alcotest.(check (list int)) "N<=2f+1 keeps order" [ 3; 1; 2 ]
    (Rote.protection_group ~self:1 ~members:[ 3; 1; 2 ]);
  Alcotest.(check (list int)) "ring wraps" [ 1; 4; 5 ]
    (Rote.protection_group ~self:4 ~members:[ 5; 4; 3; 2; 1 ])

let malformed_payloads_are_refused () =
  (* A peer that authenticates but sends garbage must get a typed refusal,
     not kill the replica's handler fiber. *)
  with_group (fun sim group ->
      let (rpc1, r1), (_, r2), _ =
        match group with [ a; b; c ] -> (a, b, c) | _ -> assert false
      in
      let truncated = "\001\002\003" in
      let call kind = Erpc.call rpc1 ~dst:2 ~kind ~timeout_ns:10_000_000 truncated in
      (match call Rote.kind_echo1 with
      | Ok "nack" -> ()
      | Ok r -> Alcotest.failf "echo1 replied %S" r
      | Error _ -> Alcotest.fail "echo1 got no reply");
      (match call Rote.kind_echo2 with
      | Ok "nack" -> ()
      | Ok r -> Alcotest.failf "echo2 replied %S" r
      | Error _ -> Alcotest.fail "echo2 got no reply");
      (match call Rote.kind_query with
      | Ok "" -> ()
      | Ok r -> Alcotest.failf "query replied %S" r
      | Error _ -> Alcotest.fail "query got no reply");
      (* The simulation and the replicas keep working. *)
      let t0 = Sim.now sim in
      Sim.sleep sim 1_000_000;
      Alcotest.(check int) "clock advances" (t0 + 1_000_000) (Sim.now sim);
      (match Rote.increment r1 ~owner:1 ~log:"WAL" ~value:3 with
      | Ok () -> ()
      | Error `No_quorum -> Alcotest.fail "quorum after malformed traffic");
      Alcotest.(check int) "peer holds the value" 3
        (Rote.local_value r2 ~owner:1 ~log:"WAL"))

(* Five replicas: every protection group is a proper subset (node 1's is
   [1; 2; 3]), so these pin down that rounds stay inside the group. *)
let with_five f =
  let sim = Sim.create () in
  let net = Net.create sim Treaty_sim.Costmodel.default in
  Sim.run sim (fun () -> f sim net (Array.of_list (mk_group ~n:5 sim net)))

let increment_stays_in_group () =
  with_five (fun _sim _net g ->
      (match Rote.increment (snd g.(0)) ~owner:1 ~log:"WAL" ~value:9 with
      | Ok () -> ()
      | Error `No_quorum -> Alcotest.fail "quorum available");
      Array.iteri
        (fun i (_, r) ->
          Alcotest.(check int)
            (Printf.sprintf "replica %d" (i + 1))
            (if i < 3 then 9 else 0)
            (Rote.local_value r ~owner:1 ~log:"WAL"))
        g)

let wiped_owner_recovers_from_group () =
  with_five (fun sim net g ->
      ignore (Rote.increment (snd g.(0)) ~owner:1 ~log:"WAL" ~value:42);
      (* Node 1 loses its replica state and comes back on a new endpoint. *)
      Erpc.shutdown (fst g.(0));
      let _, fresh = mk_replica ~incarnation:1 sim net ~members:[ 1; 2; 3; 4; 5 ] 1 in
      Alcotest.(check int) "wiped" 0 (Rote.local_value fresh ~owner:1 ~log:"WAL");
      match Rote.query fresh ~owner:1 ~log:"WAL" with
      | Ok 42 -> ()
      | Ok v -> Alcotest.failf "group returned %d" v
      | Error `No_quorum -> Alcotest.fail "group quorum")

let non_members_do_not_matter () =
  with_five (fun sim _net g ->
      (* Nodes 4 and 5 hold none of node 1's counters: with both down a
         round neither fails nor waits out their RPC timeouts. *)
      Erpc.shutdown (fst g.(3));
      Erpc.shutdown (fst g.(4));
      let t0 = Sim.now sim in
      (match Rote.increment (snd g.(0)) ~owner:1 ~log:"L" ~value:1 with
      | Ok () -> ()
      | Error `No_quorum -> Alcotest.fail "owner's group is intact");
      let took = Sim.now sim - t0 in
      Alcotest.(check bool)
        (Printf.sprintf "no timeout waited (%d ns)" took)
        true (took < 10_000_000);
      (* One crashed member is within f: still a quorum. *)
      Erpc.shutdown (fst g.(1));
      match Rote.increment (snd g.(0)) ~owner:1 ~log:"L" ~value:2 with
      | Ok () -> ()
      | Error `No_quorum -> Alcotest.fail "2 of 3 is a quorum")

let round_finishes_at_quorum () =
  (* A round needs f+1 of 2f+1 replies: with one replica down, an increment
     takes its two echo rounds over the live pair and must not wait out the
     dead member's 10 ms RPC timeout in either of them. *)
  with_group (fun sim group ->
      let (_, r1), (rpc2, _), (_, r3) =
        match group with [ a; b; c ] -> (a, b, c) | _ -> assert false
      in
      Erpc.shutdown rpc2;
      let t0 = Sim.now sim in
      (match own_batch r1 [ ("WAL", 4); ("Clog", 2) ] with
      | Ok () -> ()
      | Error `No_quorum -> Alcotest.fail "2 of 3 is a quorum");
      let took = Sim.now sim - t0 in
      Alcotest.(check bool)
        (Printf.sprintf "increment under 2 ms with a member down (%d ns)" took)
        true (took < 2_000_000);
      Alcotest.(check int) "live peer holds WAL" 4 (Rote.local_value r3 ~owner:1 ~log:"WAL");
      Alcotest.(check int) "live peer holds Clog" 2 (Rote.local_value r3 ~owner:1 ~log:"Clog");
      (* The stragglers time out on their own; the next round still works
         and a late echo never rolls a pending value back. *)
      Sim.sleep sim 20_000_000;
      (match Rote.increment r1 ~owner:1 ~log:"WAL" ~value:5 with
      | Ok () -> ()
      | Error `No_quorum -> Alcotest.fail "second increment");
      match Rote.query r1 ~owner:1 ~log:"WAL" with
      | Ok 5 -> ()
      | Ok v -> Alcotest.failf "query returned %d" v
      | Error `No_quorum -> Alcotest.fail "query quorum")

let only_waited_appends_start_rounds () =
  (* An engine over a real counter client: a participant's Prepare and
     Resolve, a Begin_2pc, a commit Decision and a Finished appended on
     their own start no ROTE round; the next waited append's wait (here an
     abort decision's) starts one, and it carries all of their counters. *)
  with_group (fun sim group ->
      let module Engine = Treaty_storage.Engine in
      let module Clog_record = Treaty_storage.Clog_record in
      let _, r1 = List.hd group in
      let cc = CC.create r1 ~owner:1 in
      let enclave =
        Enclave.create sim ~mode:Enclave.Scone ~cost:Treaty_sim.Costmodel.default
          ~cores:4 ~node_id:1 ~code_identity:"engine-test"
      in
      let sec =
        Treaty_storage.Sec.create ~enclave ~auth:true
          ~enc:(Some (Treaty_crypto.Aead.key_of_string "sk")) ()
      in
      let ssd = Treaty_storage.Ssd.create sim Treaty_sim.Costmodel.default in
      let eng = Engine.create ssd sec Engine.default_config (Some (CC.stability cc)) in
      (* Engine creation's MANIFEST edits submit theirs; let that round
         finish first. *)
      Sim.sleep sim 10_000_000;
      (* A prepare is on disk when it returns, but nobody waits for it
         there: the coordinator's commit point makes it trusted. *)
      let rounds = (CC.stats cc).CC.rounds_started in
      Engine.prepare eng ~tx:(2, 7) ~writes:[ ("k", Treaty_storage.Op.Put "v") ];
      let wal, prepared =
        match Engine.log_last_counters eng with
        | [ _; _; wal ] -> wal
        | _ -> Alcotest.fail "log_last_counters: MANIFEST, Clog, WAL"
      in
      Sim.sleep sim 10_000_000;
      Alcotest.(check int) "a prepare starts no round" rounds
        (CC.stats cc).CC.rounds_started;
      Alcotest.(check bool) "prepare not yet trusted" true
        (CC.stable_value cc ~log:wal < prepared);
      Alcotest.(check (list (pair string int))) "the vote's targets: the WAL"
        [ (wal, prepared) ] (CC.pending_targets cc);
      ignore
        (Engine.clog_append eng (Clog_record.Begin_2pc { tx_seq = 1; participants = [ 2 ] }));
      (match Engine.resolve eng ~tx:(2, 7) ~commit:true with
      | Some _ -> ()
      | None -> Alcotest.fail "prepared tx resolves");
      ignore
        (Engine.clog_append eng (Clog_record.Decision { tx_seq = 1; commit = true }));
      let finished = Engine.clog_append eng (Clog_record.Finished { tx_seq = 1 }) in
      let resolved = List.assoc wal (Engine.log_last_counters eng) in
      Sim.sleep sim 10_000_000;
      Alcotest.(check int)
        "Begin_2pc, Resolve, a commit Decision and Finished start no round" rounds
        (CC.stats cc).CC.rounds_started;
      Alcotest.(check bool) "Resolve not yet trusted" true
        (CC.stable_value cc ~log:wal < resolved);
      Alcotest.(check bool) "Finished not yet trusted" true
        (CC.stable_value cc ~log:"CLOG" < finished);
      let decision =
        Engine.clog_append eng (Clog_record.Decision { tx_seq = 2; commit = false })
      in
      expect_stable "abort decision" (Engine.clog_wait_stable eng ~counter:decision ());
      Alcotest.(check int) "the abort decision's wait starts one round" (rounds + 1)
        (CC.stats cc).CC.rounds_started;
      Alcotest.(check bool) "the round covers Begin_2pc, the commit and Finished" true
        (CC.stable_value cc ~log:"CLOG" >= finished);
      Alcotest.(check bool) "the round covers the Resolve" true
        (CC.stable_value cc ~log:wal >= resolved))

let restarted_owner_reuses_unconfirmed_values () =
  (* The owner crashes after its echo1 for WAL=10, WAL-2=4 reached both
     peers but before any echo2 confirmed it. Recovery trusts 0, so the
     new incarnation appends counter values from 1 again, and it reopens
     WAL-2 without querying it (a log whose creation was never trusted).
     Once its recovery query has run, a round carrying WAL=9, WAL-2=2
     must not be nacked by the peers' leftover pending values. *)
  let sim = Sim.create () in
  let net = Net.create sim Treaty_sim.Costmodel.default in
  Sim.run sim (fun () ->
      let (rpc1, r1), (_, r2), (_, r3) =
        match mk_group sim net with [ a; b; c ] -> (a, b, c) | _ -> assert false
      in
      (* Let node 1's two echo1 requests through, drop everything after. *)
      let sent = ref 0 in
      Net.set_adversary net
        (Treaty_netsim.Adversary.drop_matching (fun pkt ->
             pkt.Treaty_netsim.Packet.src = 1
             && (incr sent;
                 !sent > 2)));
      (match own_batch r1 [ ("WAL", 10); ("WAL-2", 4) ] with
      | Error `No_quorum -> ()
      | Ok () -> Alcotest.fail "echo2 never left the owner");
      Alcotest.(check int) "nothing confirmed at a peer" 0
        (Rote.local_value r2 ~owner:1 ~log:"WAL");
      Erpc.shutdown rpc1;
      Net.clear_adversary net;
      let _, fresh = mk_replica ~incarnation:1 sim net ~members:[ 1; 2; 3 ] 1 in
      (match Rote.query fresh ~owner:1 ~log:"WAL" with
      | Ok 0 -> ()
      | Ok v -> Alcotest.failf "group trusted %d" v
      | Error `No_quorum -> Alcotest.fail "query quorum");
      (match own_batch fresh [ ("WAL", 9); ("WAL-2", 2) ] with
      | Ok () -> ()
      | Error `No_quorum -> Alcotest.fail "leftover pending value nacked the new round");
      List.iter
        (fun (i, r) ->
          Alcotest.(check int) (Printf.sprintf "peer %d holds WAL 9" i) 9
            (Rote.local_value r ~owner:1 ~log:"WAL");
          Alcotest.(check int) (Printf.sprintf "peer %d holds WAL-2 2" i) 2
            (Rote.local_value r ~owner:1 ~log:"WAL-2"))
        [ (2, r2); (3, r3) ])

let alignment_wait_batches_late_submits () =
  (* The pump adds no window of its own: the round's targets are read when
     ROTE's echo1 alignment ends, so a submit 260 us after the one that
     started the round still rides it. *)
  with_group (fun sim group ->
      let _, r1 = List.hd group in
      let cc = CC.create r1 ~owner:1 in
      CC.submit cc ~log:"WAL" ~counter:1;
      Sim.sleep sim 260_000;
      CC.submit cc ~log:"MANIFEST" ~counter:1;
      expect_stable "WAL" (CC.wait_stable cc ~log:"WAL" ~counter:1);
      expect_stable "MANIFEST" (CC.wait_stable cc ~log:"MANIFEST" ~counter:1);
      Alcotest.(check int) "one round for both submits" 1
        (CC.stats cc).CC.rounds_started;
      Alcotest.(check int) "the round carried both logs" 2
        (Rote.stats r1).Rote.targets)

let dead_incarnation_echo_is_ignored () =
  (* The owner's echo1 for WAL=10 is held up on its way to peer 2 (and
     lost on its way to peer 3), and the owner crashes. Its next
     incarnation's recovery query runs before the stale echo1 lands. Peer 2
     must not install it: with peer 3 down, the new incarnation's round
     carrying WAL=9 needs peer 2's ack. *)
  let sim = Sim.create () in
  let net = Net.create sim Treaty_sim.Costmodel.default in
  Sim.run sim (fun () ->
      let (rpc1, r1), (_, r2), (rpc3, _) =
        match mk_group sim net with [ a; b; c ] -> (a, b, c) | _ -> assert false
      in
      let from_owner_to dst (pkt : Treaty_netsim.Packet.t) =
        pkt.src = 1 && pkt.dst = dst
      in
      Net.set_adversary net (fun pkt ->
          if from_owner_to 2 pkt then Treaty_netsim.Adversary.Delay 5_000_000
          else if from_owner_to 3 pkt then Treaty_netsim.Adversary.Drop
          else Treaty_netsim.Adversary.Deliver);
      Sim.spawn sim (fun () ->
          ignore (Rote.increment r1 ~owner:1 ~log:"WAL" ~value:10));
      Sim.sleep sim 1_000_000;
      Erpc.shutdown rpc1;
      Net.clear_adversary net;
      let _, fresh = mk_replica ~incarnation:1 sim net ~members:[ 1; 2; 3 ] 1 in
      (match Rote.query fresh ~owner:1 ~log:"WAL" with
      | Ok 0 -> ()
      | Ok v -> Alcotest.failf "group trusted %d" v
      | Error `No_quorum -> Alcotest.fail "query quorum");
      (* The held-up echo1 lands at peer 2 now. *)
      Sim.sleep sim 10_000_000;
      Erpc.shutdown rpc3;
      (match Rote.increment fresh ~owner:1 ~log:"WAL" ~value:9 with
      | Ok () -> ()
      | Error `No_quorum -> Alcotest.fail "the dead incarnation's echo1 was installed");
      Alcotest.(check int) "peer 2 holds WAL 9" 9 (Rote.local_value r2 ~owner:1 ~log:"WAL"))

(* A participant's own round and a coordinator's commit point carry
   different values for one of its logs, at the same time: the round that
   carries the smaller one must still be confirmed, and each member keeps
   the larger one. *)
let owner_and_coordinator_rounds_differ () =
  with_group (fun sim group ->
      let (_, r1), (_, r2), (_, r3) =
        match group with [ a; b; c ] -> (a, b, c) | _ -> assert false
      in
      let own = ref None and coordinator = ref None in
      (* Owner 2 voted WAL 8 in a transaction node 1 coordinates. *)
      Rote.note_vote r2 [ ("WAL", 8) ];
      Sim.spawn sim (fun () ->
          own := Some (Rote.increment r2 ~owner:2 ~log:"WAL" ~value:10));
      Sim.spawn sim (fun () ->
          coordinator :=
            Some
              (Rote.increment_batch r1 ~entries:(fun () ->
                   [ Rote.own_entry r1 [ ("CLOG", 3) ];
                     { Rote.owner = 2; incarnation = 0; targets = [ ("WAL", 8) ] } ])));
      Sim.sleep sim 20_000_000;
      (match !own with
      | Some (Ok ()) -> ()
      | Some (Error `No_quorum) -> Alcotest.fail "the owner's round was nacked"
      | None -> Alcotest.fail "the owner's round never returned");
      (match !coordinator with
      | Some [ (_, `Trusted); (_, `Trusted) ] -> ()
      | Some _ -> Alcotest.fail "the coordinator's round was nacked"
      | None -> Alcotest.fail "the coordinator's round never returned");
      List.iter
        (fun (i, r) ->
          Alcotest.(check int) (Printf.sprintf "replica %d keeps the larger value" i) 10
            (Rote.local_value r ~owner:2 ~log:"WAL"))
        [ (1, r1); (2, r2); (3, r3) ])

(* Seven replicas: a coordinator's round carries its own entry and two
   voters' entries whose groups are disjoint from its own but for itself,
   and each reaches a quorum of its own owner's group. *)
let one_round_three_groups () =
  let sim = Sim.create () in
  let net = Net.create sim Treaty_sim.Costmodel.default in
  Sim.run sim (fun () ->
      let g = Array.of_list (mk_group ~n:7 sim net) in
      let r i = snd g.(i - 1) in
      let entry owner targets = { Rote.owner; incarnation = 0; targets } in
      (* The voters voted: a vote is its owner's first-phase echo. *)
      Rote.note_vote (r 4) [ ("WAL", 7); ("MANIFEST", 2) ];
      Rote.note_vote (r 6) [ ("WAL", 9) ];
      let rounds = (Rote.stats (r 1)).Rote.increments in
      (match
         Rote.increment_batch (r 1) ~entries:(fun () ->
             [ Rote.own_entry (r 1) [ ("CLOG", 5) ];
               entry 4 [ ("WAL", 7); ("MANIFEST", 2) ];
               entry 6 [ ("WAL", 9) ] ])
       with
      | [ (_, `Trusted); (_, `Trusted); (_, `Trusted) ] -> ()
      | _ -> Alcotest.fail "an owner's group missed its quorum");
      Alcotest.(check int) "one round" (rounds + 1) (Rote.stats (r 1)).Rote.increments;
      let holders ~owner ~log ~value =
        List.length
          (List.filter
             (fun m -> Rote.local_value (r m) ~owner ~log >= value)
             (Rote.protection_group ~self:owner ~members:(List.init 7 succ)))
      in
      let quorum = Rote.fault_threshold + 1 in
      Alcotest.(check bool) "owner 1's group holds CLOG 5" true
        (holders ~owner:1 ~log:"CLOG" ~value:5 >= quorum);
      Alcotest.(check bool) "owner 4's group holds WAL 7" true
        (holders ~owner:4 ~log:"WAL" ~value:7 >= quorum);
      Alcotest.(check bool) "owner 4's group holds MANIFEST 2" true
        (holders ~owner:4 ~log:"MANIFEST" ~value:2 >= quorum);
      Alcotest.(check bool) "owner 6's group holds WAL 9" true
        (holders ~owner:6 ~log:"WAL" ~value:9 >= quorum);
      Alcotest.(check int) "nodes outside owner 4's group hold nothing of it" 0
        (List.length
           (List.filter
              (fun m -> Rote.local_value (r m) ~owner:4 ~log:"WAL" > 0)
              [ 1; 2; 3; 7 ])))

(* A replica whose seals take [disk_ns] of disk time after the enclave's
   sealing cost, logging each persisted blob with the time it landed. *)
let sealing_replica sim net ~members ~disk_ns id =
  let seals = ref [] in
  let persist blob =
    Sim.sleep sim disk_ns;
    seals := (Sim.now sim, blob) :: !seals
  in
  let rpc, r = mk_replica ~persist sim net ~members id in
  (rpc, r, seals)

let voter_entry owner targets = { Rote.owner; incarnation = 0; targets }

(* Five replicas: coordinator 1's group is [1; 2; 3] and voter 3's is
   [3; 4; 5], so node 1 confirms nothing of the voter's. The voter's seal
   is slow (a busy disk). The coordinator seals its own entry as soon as
   its group has confirmed it, while the voter is still sealing, so the
   round ends one hop after the voter's sealed ack instead of one seal
   later. *)
let own_seal_overlaps_voter_seal () =
  let sim = Sim.create () in
  let net = Net.create sim Treaty_sim.Costmodel.default in
  Sim.run sim (fun () ->
      let members = [ 1; 2; 3; 4; 5 ] in
      let _, r1, coord_seals = sealing_replica sim net ~members ~disk_ns:100_000 1 in
      let _, r3, voter_seals = sealing_replica sim net ~members ~disk_ns:1_000_000 3 in
      List.iter (fun id -> ignore (mk_replica sim net ~members id)) [ 2; 4; 5 ];
      Rote.note_vote r3 [ ("WAL", 7) ];
      (match
         Rote.increment_batch r1 ~entries:(fun () ->
             [ Rote.own_entry r1 [ ("CLOG", 5) ]; voter_entry 3 [ ("WAL", 7) ] ])
       with
      | [ (_, `Trusted); (_, `Trusted) ] -> ()
      | _ -> Alcotest.fail "an entry missed its quorum");
      let ended = Sim.now sim in
      let coord_sealed, voter_sealed =
        match (!coord_seals, !voter_seals) with
        | [ (c, _) ], [ (v, _) ] -> (c, v)
        | _ -> Alcotest.fail "expected one seal at the coordinator and one at the voter"
      in
      Alcotest.(check bool)
        (Printf.sprintf "own seal (%d ns) done before the voter's (%d ns)" coord_sealed
           voter_sealed)
        true (coord_sealed < voter_sealed);
      (* A seal costs the coordinator 100 us of disk after its enclave's
         sealing cost; the round must not pay it after the voter's ack. *)
      Alcotest.(check bool)
        (Printf.sprintf "round ends %d ns after the voter's seal" (ended - voter_sealed))
        true
        (ended - voter_sealed < 100_000))

(* Three replicas: coordinator 1 sits in voter 2's group and confirms the
   voter's entry itself, last. The seal the round waits for must start
   after that confirmation: restored into a fresh replica, it holds the
   voter's value. *)
let seal_holds_confirmed_vote () =
  let sim = Sim.create () in
  let net = Net.create sim Treaty_sim.Costmodel.default in
  Sim.run sim (fun () ->
      let members = [ 1; 2; 3 ] in
      let rpc1, r1, coord_seals = sealing_replica sim net ~members ~disk_ns:100_000 1 in
      let _, r2, _ = sealing_replica sim net ~members ~disk_ns:1_000_000 2 in
      ignore (mk_replica sim net ~members 3);
      Rote.note_vote r2 [ ("WAL", 8) ];
      (match
         Rote.increment_batch r1 ~entries:(fun () ->
             [ Rote.own_entry r1 [ ("CLOG", 3) ]; voter_entry 2 [ ("WAL", 8) ] ])
       with
      | [ (_, `Trusted); (_, `Trusted) ] -> ()
      | _ -> Alcotest.fail "an entry missed its quorum");
      Alcotest.(check int) "the coordinator confirmed the vote" 8
        (Rote.local_value r1 ~owner:2 ~log:"WAL");
      let blob =
        match !coord_seals with
        | (_, blob) :: _ -> blob
        | [] -> Alcotest.fail "the round returned before a seal"
      in
      Erpc.shutdown rpc1;
      let _, restored =
        mk_replica ~incarnation:1 ~restore:(fun () -> [ blob ]) sim net ~members 1
      in
      Alcotest.(check int) "the seal holds the coordinator's entry" 3
        (Rote.local_value restored ~owner:1 ~log:"CLOG");
      Alcotest.(check int) "the seal holds the confirmed vote" 8
        (Rote.local_value restored ~owner:2 ~log:"WAL"))

(* A coordinator starts a round as its prepare fan-out begins. If the
   prepare fails, nobody waits: the round reads nothing when its alignment
   ends, sends no echo, seals nothing and is not counted, and the pump
   stops. A waiter that comes during the alignment rides the round and
   saves what of the alignment had passed. *)
let early_round_without_waiter_sends_nothing () =
  let sim = Sim.create () in
  let net = Net.create sim Treaty_sim.Costmodel.default in
  Sim.run sim (fun () ->
      let members = [ 1; 2; 3 ] in
      let rpc1, r1, seals = sealing_replica sim net ~members ~disk_ns:100_000 1 in
      List.iter (fun id -> ignore (mk_replica sim net ~members id)) [ 2; 3 ];
      let cc = CC.create r1 ~owner:1 in
      (* The coordinator's local prepare is noted, never waited for. *)
      CC.note cc ~log:"WAL" ~counter:1;
      CC.start_early cc;
      Sim.sleep sim 10_000_000;
      Alcotest.(check int) "no round counted" 0 (CC.stats cc).CC.rounds_started;
      Alcotest.(check int) "no echo phase" 0 (Rote.stats r1).Rote.rounds;
      Alcotest.(check int) "no echo sent" 0 (Erpc.stats rpc1).Erpc.requests_sent;
      Alcotest.(check int) "no seal" 0 (List.length !seals);
      (* The pump stopped: a wait starts a round, as it would have. *)
      let t0 = Sim.now sim in
      expect_stable "WAL" (CC.wait_stable cc ~log:"WAL" ~counter:1);
      let plain = Sim.now sim - t0 in
      Alcotest.(check int) "the wait's round" 1 (CC.stats cc).CC.rounds_started;
      (* An early round that a waiter joins 200 us into its alignment. *)
      CC.note cc ~log:"WAL" ~counter:2;
      CC.start_early cc;
      Sim.sleep sim 200_000;
      let t0 = Sim.now sim in
      expect_stable "WAL" (CC.wait_stable cc ~log:"WAL" ~counter:2);
      let early = Sim.now sim - t0 in
      Alcotest.(check int) "the early round carried the waiter" 2
        (CC.stats cc).CC.rounds_started;
      Alcotest.(check bool)
        (Printf.sprintf "the joined wait (%d ns) is 200 us shorter than %d ns" early
           plain)
        true
        (early <= plain - 200_000))

let suite =
  [
    Alcotest.test_case "increment + quorum query" `Quick increment_and_query;
    Alcotest.test_case "counters namespaced by (owner, log)" `Quick counters_are_namespaced;
    Alcotest.test_case "survives minority crash" `Quick survives_minority_crash;
    Alcotest.test_case "no quorum -> unavailable" `Quick no_quorum_fails;
    Alcotest.test_case "recovery queries the group" `Quick recovery_query_from_peers;
    Alcotest.test_case "stabilization batches rounds" `Quick client_batches_rounds;
    Alcotest.test_case "waiters woken at watermark" `Quick client_wakes_waiters_in_order;
    Alcotest.test_case "epoch rounds span all logs" `Quick multi_log_epoch_rounds;
    Alcotest.test_case "epoch window coalesces staggered submits" `Quick
      epoch_window_coalesces_staggered_submits;
    Alcotest.test_case "abandoned round fails waiters" `Quick abandoned_round_fails_waiters;
    Alcotest.test_case "protection groups for N = 1..120" `Quick protection_groups;
    Alcotest.test_case "malformed payloads are refused" `Quick
      malformed_payloads_are_refused;
    Alcotest.test_case "5 replicas: increment stays in group" `Quick
      increment_stays_in_group;
    Alcotest.test_case "5 replicas: wiped owner recovers from group" `Quick
      wiped_owner_recovers_from_group;
    Alcotest.test_case "5 replicas: non-members do not matter" `Quick
      non_members_do_not_matter;
    Alcotest.test_case "round finishes at quorum" `Quick round_finishes_at_quorum;
    Alcotest.test_case "only waited appends start rounds" `Quick
      only_waited_appends_start_rounds;
    Alcotest.test_case "restarted owner reuses unconfirmed values" `Quick
      restarted_owner_reuses_unconfirmed_values;
    Alcotest.test_case "alignment wait batches late submits" `Quick
      alignment_wait_batches_late_submits;
    Alcotest.test_case "dead incarnation's echo is ignored" `Quick
      dead_incarnation_echo_is_ignored;
    Alcotest.test_case "owner's and coordinator's rounds carry different values"
      `Quick owner_and_coordinator_rounds_differ;
    Alcotest.test_case "7 replicas: one round reaches three groups' quorums" `Quick
      one_round_three_groups;
    Alcotest.test_case "5 replicas: own seal overlaps the voter's" `Quick
      own_seal_overlaps_voter_seal;
    Alcotest.test_case "the round's seal holds the vote it confirmed" `Quick
      seal_holds_confirmed_vote;
    Alcotest.test_case "an early round nobody waits for sends nothing" `Quick
      early_round_without_waiter_sends_nothing;
  ]
