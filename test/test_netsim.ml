(* Network simulation: delivery, serialization/propagation timing, crashed
   endpoints, and every adversary action. *)

module Sim = Treaty_sim.Sim
module Net = Treaty_netsim.Net
module Packet = Treaty_netsim.Packet
module Adversary = Treaty_netsim.Adversary

let always () = true

let with_net f =
  let sim = Sim.create () in
  let net = Net.create sim Treaty_sim.Costmodel.default in
  Sim.run sim (fun () -> f sim net)

let basic_delivery () =
  with_net (fun sim net ->
      let received = ref [] in
      Net.register net ~id:1 ~live:always (fun _ -> ());
      Net.register net ~id:2 ~live:always (fun pkt -> received := (Sim.now sim, pkt.Packet.payload) :: !received);
      Net.send net ~src:1 ~dst:2 "hello";
      Sim.sleep sim 1_000_000;
      match !received with
      | [ (t, "hello") ] ->
          (* transmission + propagation: strictly positive, sane bound *)
          Alcotest.(check bool) "took wire time" true (t > 0 && t < 100_000)
      | _ -> Alcotest.fail "delivery failed")

let nic_serialization () =
  with_net (fun sim net ->
      (* Two back-to-back big packets from one NIC serialize: the second
         arrives later by at least one transmission time. *)
      let times = ref [] in
      Net.register net ~id:1 ~live:always (fun _ -> ());
      Net.register net ~id:2 ~live:always (fun _ -> times := Sim.now sim :: !times);
      let big = String.make 100_000 'x' in
      Net.send net ~src:1 ~dst:2 big;
      Net.send net ~src:1 ~dst:2 big;
      Sim.sleep sim 10_000_000;
      match List.rev !times with
      | [ t1; t2 ] ->
          let tx_time = 100_000 * 8 / 40 in
          Alcotest.(check bool) "fifo serialization" true (t2 - t1 >= tx_time)
      | _ -> Alcotest.fail "expected two deliveries")

(* An owner's liveness: [halt] is its crash. *)
let owner () =
  let live = ref true in
  ((fun () -> !live), fun () -> live := false)

let crashed_endpoint_drops () =
  with_net (fun sim net ->
      let got = ref 0 in
      Net.register net ~id:1 ~live:always (fun _ -> ());
      let live, halt = owner () in
      Net.register net ~id:2 ~live (fun _ -> incr got);
      halt ();
      Net.send net ~src:1 ~dst:2 "lost";
      Sim.sleep sim 1_000_000;
      Alcotest.(check int) "no delivery to crashed node" 0 !got;
      Alcotest.(check int) "counted as dropped" 1 (Net.stats net).dropped;
      (* Restart: a new owner's registration replaces the handler. *)
      let live, _ = owner () in
      Net.register net ~id:2 ~live (fun _ -> incr got);
      Net.send net ~src:1 ~dst:2 "back";
      Sim.sleep sim 1_000_000;
      Alcotest.(check int) "delivery after re-register" 1 !got)

(* Two owners share wire id 2, the newer registered while the older still
   runs (a bootstrap endpoint and the node it attested). The older one
   halting afterwards must not silence the newer, and the newer one's halt
   drops what arrives after it, even in flight. *)
let stale_owner_halt_keeps_newer () =
  with_net (fun sim net ->
      let old_got = ref 0 and new_got = ref 0 in
      Net.register net ~id:1 ~live:always (fun _ -> ());
      let old_live, old_halt = owner () in
      Net.register net ~id:2 ~live:old_live (fun _ -> incr old_got);
      let new_live, new_halt = owner () in
      Net.register net ~id:2 ~live:new_live (fun _ -> incr new_got);
      old_halt ();
      Net.send net ~src:1 ~dst:2 "to the newer owner";
      Sim.sleep sim 1_000_000;
      Alcotest.(check (pair int int)) "the newer owner got it" (0, 1)
        (!old_got, !new_got);
      Alcotest.(check int) "nothing dropped" 0 (Net.stats net).dropped;
      Net.send net ~src:1 ~dst:2 "in flight";
      new_halt ();
      Sim.sleep sim 1_000_000;
      Alcotest.(check (pair int int)) "a halted owner gets nothing" (0, 1)
        (!old_got, !new_got);
      Alcotest.(check int) "counted as dropped" 1 (Net.stats net).dropped)

let adversary_actions () =
  with_net (fun sim net ->
      let payloads = ref [] in
      Net.register net ~id:1 ~live:always (fun _ -> ());
      Net.register net ~id:2 ~live:always (fun pkt -> payloads := pkt.Packet.payload :: !payloads);
      (* Drop. *)
      Net.set_adversary net (Adversary.drop_matching (fun _ -> true));
      Net.send net ~src:1 ~dst:2 "dropped";
      Sim.sleep sim 1_000_000;
      Alcotest.(check int) "dropped" 0 (List.length !payloads);
      (* Delay. *)
      Net.set_adversary net (Adversary.delay_matching (fun _ -> true) ~ns:5_000_000);
      let t0 = Sim.now sim in
      Net.send net ~src:1 ~dst:2 "late";
      Sim.sleep sim 10_000_000;
      Alcotest.(check (list string)) "delivered late" [ "late" ] !payloads;
      ignore t0;
      (* Duplicate. *)
      payloads := [];
      Net.set_adversary net (Adversary.duplicate_matching (fun _ -> true));
      Net.send net ~src:1 ~dst:2 "twice";
      Sim.sleep sim 1_000_000;
      Alcotest.(check int) "duplicated" 2 (List.length !payloads);
      (* Tamper. *)
      payloads := [];
      Net.set_adversary net (Adversary.flip_byte ~at:0 (fun _ -> true));
      Net.send net ~src:1 ~dst:2 "abc";
      Sim.sleep sim 1_000_000;
      (match !payloads with
      | [ p ] -> Alcotest.(check bool) "modified" true (p <> "abc")
      | _ -> Alcotest.fail "tampered packet lost");
      (* nth_matching targets exactly one packet. *)
      payloads := [];
      Net.set_adversary net (Adversary.nth_matching (fun _ -> true) ~n:2 Adversary.Drop);
      List.iter (fun p -> Net.send net ~src:1 ~dst:2 p) [ "a"; "b"; "c" ];
      Sim.sleep sim 1_000_000;
      Alcotest.(check (list string)) "only 2nd dropped" [ "a"; "c" ] (List.rev !payloads);
      Net.clear_adversary net)

let capture_and_replay () =
  with_net (fun sim net ->
      let count = ref 0 in
      Net.register net ~id:1 ~live:always (fun _ -> ());
      Net.register net ~id:2 ~live:always (fun _ -> incr count);
      Net.capture net ~limit:10;
      Net.send net ~src:1 ~dst:2 "original";
      Sim.sleep sim 1_000_000;
      let captured = Net.captured net in
      Alcotest.(check int) "captured" 1 (List.length captured);
      List.iter (Net.replay net) captured;
      Sim.sleep sim 1_000_000;
      Alcotest.(check int) "replay delivered" 2 !count)

let capture_ring_wraps () =
  with_net (fun sim net ->
      (* The capture buffer is a fixed ring: past [limit] packets it
         overwrites the oldest in place instead of rebuilding a list per
         delivery. Send more than [limit] and check both the window and
         the oldest-first order. *)
      Net.register net ~id:1 ~live:always (fun _ -> ());
      Net.register net ~id:2 ~live:always (fun _ -> ());
      Net.capture net ~limit:4;
      for i = 1 to 7 do
        Net.send net ~src:1 ~dst:2 (Printf.sprintf "p%d" i);
        Sim.sleep sim 1_000_000
      done;
      let payloads =
        List.map (fun p -> p.Packet.payload) (Net.captured net)
      in
      Alcotest.(check (list string))
        "last [limit] packets, oldest first"
        [ "p4"; "p5"; "p6"; "p7" ] payloads)

let same_tick_batch_order () =
  with_net (fun sim net ->
      (* Two packets arriving on the same tick ride one delivery event but
         must be handed to their endpoints in send order, at the same
         simulated instant — the batch is a throughput optimization, not a
         reordering. *)
      let arrivals = ref [] in
      Net.register net ~id:1 ~live:always (fun _ -> ());
      Net.register net ~id:2 ~live:always (fun _ -> ());
      Net.register net ~id:3 ~live:always (fun pkt ->
          arrivals := (Sim.now sim, pkt.Packet.payload) :: !arrivals);
      (* same payload size + same NIC configs => same arrival tick *)
      Net.send net ~src:1 ~dst:3 "a";
      Net.send net ~src:2 ~dst:3 "b";
      Sim.sleep sim 1_000_000;
      (match List.rev !arrivals with
      | [ (ta, "a"); (tb, "b") ] ->
          Alcotest.(check int) "one tick, one instant" ta tb
      | l -> Alcotest.failf "unexpected arrivals (%d)" (List.length l));
      (* A later send must not be folded into the spent batch. *)
      arrivals := [];
      Net.send net ~src:1 ~dst:3 "c";
      Sim.sleep sim 1_000_000;
      Alcotest.(check int) "separate tick delivers alone" 1
        (List.length !arrivals))

let client_vs_fabric_nic () =
  with_net (fun sim net ->
      (* A client-NIC endpoint sees much higher latency than fabric peers. *)
      let fabric_t = ref 0 and client_t = ref 0 in
      Net.register net ~id:1 ~live:always (fun _ -> ());
      Net.register net ~id:2 ~live:always (fun _ -> fabric_t := Sim.now sim);
      Net.register net ~id:1001 ~live:always ~config:Net.client_config (fun _ -> client_t := Sim.now sim);
      Net.send net ~src:1 ~dst:2 "f";
      let t0 = Sim.now sim in
      Sim.sleep sim 1_000_000;
      Net.send net ~src:1 ~dst:1001 "c";
      let t1 = Sim.now sim in
      Sim.sleep sim 1_000_000;
      Alcotest.(check bool) "client link slower" true
        (!client_t - t1 > !fabric_t - t0))

let suite =
  [
    Alcotest.test_case "basic delivery" `Quick basic_delivery;
    Alcotest.test_case "nic serialization" `Quick nic_serialization;
    Alcotest.test_case "crashed endpoint drops" `Quick crashed_endpoint_drops;
    Alcotest.test_case "stale owner's halt keeps a newer registration" `Quick
      stale_owner_halt_keeps_newer;
    Alcotest.test_case "adversary actions" `Quick adversary_actions;
    Alcotest.test_case "capture and replay" `Quick capture_and_replay;
    Alcotest.test_case "capture ring wraps" `Quick capture_ring_wraps;
    Alcotest.test_case "same-tick batch preserves order" `Quick
      same_tick_batch_order;
    Alcotest.test_case "client vs fabric NIC" `Quick client_vs_fabric_nic;
  ]
