(* RPC layer: the secure message format, transport cost structure, the eRPC
   engine (request/response, timeouts), and the at-most-once / integrity
   guarantees under an active network adversary. *)

module Sim = Treaty_sim.Sim
module Enclave = Treaty_tee.Enclave
module Net = Treaty_netsim.Net
module Adversary = Treaty_netsim.Adversary
module Erpc = Treaty_rpc.Erpc
module Secure_msg = Treaty_rpc.Secure_msg
module Transport = Treaty_rpc.Transport
module Aead = Treaty_crypto.Aead

let meta =
  {
    Secure_msg.coord = 3;
    tx_seq = 12345;
    op_id = 42;
    src = 3;
    kind = 7;
    is_response = false;
    req_id = 99;
    acked = 0;
  }

(* Seal [msgs] as one packet; checks the bytes written against
   [Burst.wire_size]. *)
(* Open a packet in a scratch buffer of its own size, as a receiver does
   in a mempool buffer. *)
let open_burst security packet =
  Secure_msg.Burst.decode security ~buf:(Bytes.create (String.length packet)) packet

let seal security ~iv_gen msgs =
  let data_lens = List.map (fun (_, d) -> String.length d) msgs in
  let buf = Bytes.create (Secure_msg.Burst.wire_size security ~data_lens) in
  let n = Secure_msg.Burst.encode_into security ~iv_gen buf msgs in
  Alcotest.(check int) "bytes written = wire_size" (Bytes.length buf) n;
  Bytes.to_string buf

let secure_msg_roundtrip () =
  let key = Aead.key_of_string "net" in
  List.iter
    (fun security ->
      let ivg = Aead.Iv_gen.create ~incarnation:0 ~node_id:1 in
      let packet = seal security ~iv_gen:ivg [ (meta, "payload-data") ] in
      match open_burst security packet with
      | Ok [ (m, data) ] ->
          Alcotest.(check bool) "meta preserved" true (m = meta);
          Alcotest.(check string) "data preserved" "payload-data" data
      | Ok _ -> Alcotest.fail "decoded the wrong number of messages"
      | Error _ -> Alcotest.fail "decode failed")
    [ Secure_msg.Plain; Secure_msg.Secure key ]

let secure_msg_confidentiality () =
  let key = Aead.key_of_string "net" in
  let ivg = Aead.Iv_gen.create ~incarnation:0 ~node_id:1 in
  let msgs = [ (meta, "SECRETVALUE") ] in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  let wire = seal (Secure_msg.Secure key) ~iv_gen:ivg msgs in
  Alcotest.(check bool) "payload not on the wire" false (contains wire "SECRETVALUE");
  let plain = seal Secure_msg.Plain ~iv_gen:ivg msgs in
  Alcotest.(check bool) "plain mode leaks (by design)" true (contains plain "SECRETVALUE")

let secure_msg_tamper () =
  let key = Aead.key_of_string "net" in
  let ivg = Aead.Iv_gen.create ~incarnation:0 ~node_id:1 in
  let wire = seal (Secure_msg.Secure key) ~iv_gen:ivg [ (meta, "data") ] in
  for i = 0 to String.length wire - 1 do
    let b = Bytes.of_string wire in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x01));
    match open_burst (Secure_msg.Secure key) (Bytes.to_string b) with
    | Error (`Tampered | `Malformed) -> ()
    | Ok _ -> Alcotest.failf "bit flip at %d undetected" i
  done

let at_most_once_key () =
  Alcotest.(check (triple int int int)) "triple" (3, 12345, 42)
    (Secure_msg.at_most_once_key meta)

let transport_shape () =
  let p = Transport.default_params and c = Treaty_sim.Costmodel.default in
  let cost mode kind bytes =
    Transport.per_msg_ns p c mode kind ~rpc_layer:false ~dir:`Tx ~bytes
  in
  (* SCONE is always dearer, and the gap grows with message size on the
     syscall-based paths. *)
  List.iter
    (fun kind ->
      Alcotest.(check bool) "scone dearer" true
        (cost Enclave.Scone kind 1024 > cost Enclave.Native kind 1024))
    [ Transport.Kernel_tcp; Transport.Kernel_udp; Transport.Dpdk ];
  let gap b = cost Enclave.Scone Transport.Kernel_tcp b - cost Enclave.Native Transport.Kernel_tcp b in
  Alcotest.(check bool) "socket scone gap grows with size" true (gap 4096 > gap 64);
  Alcotest.(check bool) "dpdk cheapest natively" true
    (cost Enclave.Native Transport.Dpdk 64 < cost Enclave.Native Transport.Kernel_tcp 64);
  Alcotest.(check int) "no syscalls on dpdk" 0 (Transport.syscalls_per_msg Transport.Dpdk);
  Alcotest.(check int) "udp fragments" 3 (Transport.fragments c ~bytes:4000)

(* --- eRPC over the simulated network ----------------------------------- *)

let mk_endpoint ?incarnation sim net ~security ~node_id =
  let enclave =
    Enclave.create ?incarnation sim ~mode:Enclave.Scone
      ~cost:Treaty_sim.Costmodel.default ~cores:4 ~node_id
      ~code_identity:"rpc-test"
  in
  let pool = Treaty_memalloc.Mempool.create enclave in
  Erpc.create sim ~net ~enclave ~pool ~config:(Erpc.default_config ~security) ~node_id ()

let with_pair ~security f =
  let sim = Sim.create () in
  let net = Net.create sim Treaty_sim.Costmodel.default in
  Sim.run sim (fun () ->
      let a = mk_endpoint sim net ~security ~node_id:1 in
      let b = mk_endpoint sim net ~security ~node_id:2 in
      f sim net a b)

let rpc_request_response () =
  let key = Aead.key_of_string "net" in
  with_pair ~security:(Secure_msg.Secure key) (fun _sim _net a b ->
      Erpc.register b ~kind:1 (fun m payload ->
          Printf.sprintf "echo:%s:%d" payload m.Secure_msg.coord);
      match Erpc.call a ~dst:2 ~kind:1 "hello" with
      | Ok reply -> Alcotest.(check string) "reply" "echo:hello:1" reply
      | Error _ -> Alcotest.fail "call failed")

let rpc_timeout_on_dead_peer () =
  let key = Aead.key_of_string "net" in
  with_pair ~security:(Secure_msg.Secure key) (fun _sim _net a b ->
      Erpc.shutdown b;
      match Erpc.call a ~dst:2 ~kind:1 ~timeout_ns:5_000_000 "hello" with
      | Error `Timeout -> Alcotest.(check int) "timeout counted" 1 (Erpc.stats a).timeouts
      | _ -> Alcotest.fail "expected timeout")

let rpc_tampered_dropped () =
  let key = Aead.key_of_string "net" in
  with_pair ~security:(Secure_msg.Secure key) (fun _sim net a b ->
      Erpc.register b ~kind:1 (fun _ _ -> "ok");
      Net.set_adversary net
        (Adversary.flip_byte ~at:20 (fun pkt -> pkt.Treaty_netsim.Packet.dst = 2));
      (match Erpc.call a ~dst:2 ~kind:1 ~timeout_ns:5_000_000 "hello" with
      | Error `Timeout -> ()
      | _ -> Alcotest.fail "tampered request should never be answered");
      Alcotest.(check bool) "receiver saw MAC failure" true ((Erpc.stats b).mac_failures > 0))

let rpc_duplicate_not_reexecuted () =
  let key = Aead.key_of_string "net" in
  with_pair ~security:(Secure_msg.Secure key) (fun _sim net a b ->
      let executions = ref 0 in
      Erpc.register b ~kind:1 (fun _ _ ->
          incr executions;
          "ok");
      (* Duplicate every request packet towards b. *)
      Net.set_adversary net
        (Adversary.duplicate_matching (fun pkt -> pkt.Treaty_netsim.Packet.dst = 2));
      (match Erpc.call a ~dst:2 ~kind:1 ~coord:1 ~tx_seq:7 ~op_id:1 "hello" with
      | Ok "ok" -> ()
      | _ -> Alcotest.fail "call failed");
      Alcotest.(check int) "handler ran exactly once" 1 !executions;
      Alcotest.(check bool) "duplicate answered from cache" true
        ((Erpc.stats b).replays_suppressed > 0))

let rpc_replay_attack_suppressed () =
  let key = Aead.key_of_string "net" in
  with_pair ~security:(Secure_msg.Secure key) (fun sim net a b ->
      let executions = ref 0 in
      Erpc.register b ~kind:1 (fun _ _ ->
          incr executions;
          "done");
      Net.capture net ~limit:16;
      (match Erpc.call a ~dst:2 ~kind:1 ~coord:1 ~tx_seq:9 ~op_id:5 "op" with
      | Ok _ -> ()
      | Error _ -> Alcotest.fail "call failed");
      (* Adversary replays the captured request wholesale. *)
      let request =
        List.find (fun p -> p.Treaty_netsim.Packet.dst = 2) (Net.captured net)
      in
      Net.replay net request;
      Net.replay net request;
      Sim.sleep sim 5_000_000;
      Alcotest.(check int) "replays did not re-execute" 1 !executions;
      Alcotest.(check bool) "suppressions recorded" true
        ((Erpc.stats b).replays_suppressed >= 2))

let rpc_plain_mode_vulnerable () =
  (* Sanity check of the baseline: without the secure format, tampering is
     NOT detected (that is what Treaty adds). *)
  with_pair ~security:Secure_msg.Plain (fun _sim net a b ->
      Erpc.register b ~kind:1 (fun _ payload -> payload);
      Net.set_adversary net
        (Adversary.nth_matching
           (fun pkt -> pkt.Treaty_netsim.Packet.dst = 2)
           ~n:1
           (Adversary.Tamper
              (fun payload ->
                (* Flip a byte inside the (plaintext) data section. *)
                let b = Bytes.of_string payload in
                let i = String.length payload - 2 in
                Bytes.set b i 'X';
                Bytes.to_string b)));
      match Erpc.call a ~dst:2 ~kind:1 "AAAA" with
      | Ok reply -> Alcotest.(check bool) "silently corrupted" true (reply <> "AAAA")
      | Error _ -> Alcotest.fail "plain call failed")

let rpc_handler_can_block () =
  let key = Aead.key_of_string "net" in
  with_pair ~security:(Secure_msg.Secure key) (fun sim _net a b ->
      Erpc.register b ~kind:1 (fun _ _ ->
          Sim.sleep sim 2_000_000;
          "slow");
      Erpc.register b ~kind:2 (fun _ _ -> "fast");
      let r1 = ref None and r2 = ref None in
      let t0 = Sim.now sim in
      Sim.spawn sim (fun () -> r1 := Some (Erpc.call a ~dst:2 ~kind:1 "x"));
      Sim.spawn sim (fun () -> r2 := Some (Sim.now sim, Erpc.call a ~dst:2 ~kind:2 "y"));
      Sim.sleep sim 10_000_000;
      (match !r1 with Some (Ok "slow") -> () | _ -> Alcotest.fail "slow call");
      match !r2 with
      | Some (_, Ok "fast") -> Alcotest.(check bool) "fast not stuck behind slow" true (Sim.now sim - t0 < 20_000_000)
      | _ -> Alcotest.fail "fast call")

(* Bursts flush at the end of the simulated instant in which they were
   queued, with no timer; the instant is the burst window. Each check runs
   on a fresh Secure pair. *)
let burst_key = Aead.key_of_string "net"

let with_burst_pair f =
  let sim = Sim.create () in
  let net = Net.create sim Treaty_sim.Costmodel.default in
  Sim.run sim (fun () ->
      let mk node_id =
        let enclave =
          Enclave.create sim ~mode:Enclave.Scone
            ~cost:Treaty_sim.Costmodel.default ~cores:4 ~node_id
            ~code_identity:"rpc-test"
        in
        let pool = Treaty_memalloc.Mempool.create enclave in
        ( enclave,
          Erpc.create sim ~net ~enclave ~pool
            ~config:(Erpc.default_config ~security:(Secure_msg.Secure burst_key))
            ~node_id () )
      in
      let ea, a = mk 1 and _, b = mk 2 in
      Erpc.register b ~kind:1 (fun _ payload -> "r:" ^ payload);
      f sim net ea a)

(* [n] callers, caller [i] starting [i * stagger_ns] after the first;
   returns requests sent and packets carrying them. *)
let run_burst_callers ~n ~stagger_ns =
  let result = ref (0, 0) in
  with_burst_pair (fun sim _net _ea a ->
      let answered = ref 0 in
      for i = 0 to n - 1 do
        Sim.spawn sim (fun () ->
            Sim.sleep sim (i * stagger_ns);
            match Erpc.call a ~dst:2 ~kind:1 (Printf.sprintf "m%d" i) with
            | Ok r when r = Printf.sprintf "r:m%d" i -> incr answered
            | Ok r -> Alcotest.failf "wrong reply %S for m%d" r i
            | Error _ -> Alcotest.fail "burst call failed")
      done;
      Sim.sleep sim 100_000_000;
      Alcotest.(check int) "all calls answered" n !answered;
      let sa = Erpc.stats a in
      result := (sa.Erpc.burst_msgs, sa.Erpc.bursts_sent));
  !result

(* Calls issued in one instant share packets; so do callers staggered 1 µs
   apart (the micro bench's shape), because messages queued while a flush
   is being charged go out in the flusher's next burst. *)
let rpc_burst_coalescing () =
  let msgs, pkts = run_burst_callers ~n:8 ~stagger_ns:0 in
  Alcotest.(check bool)
    (Printf.sprintf "one instant: %d pkts carry %d msgs" pkts msgs)
    true (pkts < msgs);
  let msgs, pkts = run_burst_callers ~n:32 ~stagger_ns:1_000 in
  Alcotest.(check bool)
    (Printf.sprintf "staggered 1 us: %d pkts carry %d msgs" pkts msgs)
    true (pkts < msgs)

(* A lone call's request reaches [Net] after only its own transport and
   AEAD charges: the end-of-instant flush adds no wait. *)
let rpc_burst_end_of_instant () =
  with_burst_pair (fun sim net ea a ->
      let t0 = Sim.now sim in
      let charged0 = (Enclave.stats ea).Enclave.compute_ns in
      let handed = ref None in
      Net.set_adversary net (fun pkt ->
          if pkt.Treaty_netsim.Packet.dst = 2 && !handed = None then
            handed :=
              Some (Sim.now sim - t0, (Enclave.stats ea).Enclave.compute_ns - charged0);
          Adversary.Deliver);
      (match Erpc.call a ~dst:2 ~kind:1 "lone" with
      | Ok _ -> ()
      | Error _ -> Alcotest.fail "lone call failed");
      match !handed with
      | None -> Alcotest.fail "request never reached Net"
      | Some (elapsed, charged) ->
          (* Endpoint [a] is otherwise idle, so the clock advanced by
             exactly what its flush charged (transport, AEAD). *)
          Alcotest.(check int) "lone request: elapsed = its own charges"
            charged elapsed;
          Alcotest.(check bool) "charges were made" true (charged > 0))

(* --- burst envelope ------------------------------------------------------ *)

let mk_meta i =
  {
    Secure_msg.coord = 1 + (i mod 5);
    tx_seq = 1000 + i;
    op_id = i;
    src = 2;
    kind = 1 + (i mod 3);
    is_response = i mod 2 = 0;
    req_id = 7000 + i;
    acked = 1000 * i;
  }

let burst_roundtrip_equiv =
  (* Property: a burst sealed as one packet decodes to exactly the
     (meta, data) list that went in, and to what sealing each message as
     its own one-message packet yields — coalescing changes the wire
     format, never the delivered messages. *)
  QCheck.Test.make ~name:"burst seal/decode = per-message seal/decode"
    ~count:100
    QCheck.(small_list (string_of_size Gen.(0 -- 300)))
    (fun payloads ->
      let msgs = List.mapi (fun i data -> (mk_meta i, data)) payloads in
      let key = Aead.key_of_string "burst" in
      List.for_all
        (fun security ->
          let decode packet =
            match open_burst security packet with
            | Ok decoded -> decoded
            | Error _ -> QCheck.Test.fail_report "burst decode failed"
          in
          let ivg = Aead.Iv_gen.create ~incarnation:0 ~node_id:2 in
          let per_message =
            List.concat_map (fun m -> decode (seal security ~iv_gen:ivg [ m ])) msgs
          in
          let decoded = decode (seal security ~iv_gen:ivg msgs) in
          decoded = msgs && per_message = msgs)
        [ Secure_msg.Plain; Secure_msg.Secure key ])

let burst_tamper_whole_packet () =
  (* One MAC covers the whole packet: flipping ANY byte must reject it, and
     flips inside the AAD-framed length table or the ciphertext must be
     [`Tampered] (a MAC mismatch), not a framing error — the length table is
     authenticated before it is parsed. *)
  let key = Aead.key_of_string "burst" in
  let security = Secure_msg.Secure key in
  let ivg = Aead.Iv_gen.create ~incarnation:0 ~node_id:2 in
  let msgs =
    [ (mk_meta 0, "alpha"); (mk_meta 1, ""); (mk_meta 2, String.make 100 'z') ]
  in
  let packet = seal security ~iv_gen:ivg msgs in
  (match open_burst security packet with
  | Ok m -> Alcotest.(check int) "clean packet decodes" 3 (List.length m)
  | Error _ -> Alcotest.fail "clean packet rejected");
  let iv_size = 12 and mac_size = 16 in
  let lens_off = 1 + iv_size + 4 in
  let body_off = lens_off + (4 * List.length msgs) in
  for i = 0 to String.length packet - 1 do
    let b = Bytes.of_string packet in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x01));
    match open_burst security (Bytes.to_string b) with
    | Ok _ -> Alcotest.failf "bit flip at %d undetected" i
    | Error `Tampered -> ()
    | Error `Malformed ->
        (* Only structural fields (version byte, count) may short-circuit
           before the MAC; the authenticated length table and the sealed
           bodies must always fail AS a MAC mismatch. *)
        if i >= lens_off && i < String.length packet - mac_size then
          Alcotest.failf
            "flip at %d (authenticated region) reported Malformed, not \
             Tampered"
            i
  done;
  ignore body_off

let rpc_rejects_v1_envelope () =
  (* Only the burst envelope exists: a packet leading with the retired v1
     version byte is malformed — one MAC failure, no handler run — even
     when everything after that byte is a well-sealed burst. *)
  let key = Aead.key_of_string "net" in
  let security = Secure_msg.Secure key in
  with_pair ~security (fun sim net _a b ->
      let runs = ref 0 in
      Erpc.register b ~kind:1 (fun _ _ ->
          incr runs;
          "ok");
      let ivg = Aead.Iv_gen.create ~incarnation:0 ~node_id:1 in
      let packet = seal security ~iv_gen:ivg [ ({ meta with kind = 1 }, "up") ] in
      let v1 = Bytes.of_string packet in
      Bytes.set v1 0 '\x01';
      Net.send net ~src:1 ~dst:2 (Bytes.to_string v1);
      Sim.sleep sim 5_000_000;
      Alcotest.(check int) "one MAC failure" 1 (Erpc.stats b).mac_failures;
      Alcotest.(check int) "no handler ran" 0 !runs;
      (* Control: the same packet with its real version byte is served. *)
      Net.send net ~src:1 ~dst:2 packet;
      Sim.sleep sim 5_000_000;
      Alcotest.(check int) "still one MAC failure" 1 (Erpc.stats b).mac_failures;
      Alcotest.(check int) "the intact packet ran its handler" 1 !runs)

(* --- caller acks ------------------------------------------------------ *)

(* [b] answers kind 1 at once and kind 2 after 1 ms; every execution is
   counted. *)
let with_ack_pair f =
  let key = Aead.key_of_string "net" in
  with_pair ~security:(Secure_msg.Secure key) (fun sim net a b ->
      let executions = ref 0 in
      Erpc.register b ~kind:1 (fun _ p ->
          incr executions;
          "r:" ^ p);
      Erpc.register b ~kind:2 (fun _ p ->
          incr executions;
          Sim.sleep sim 1_000_000;
          "slow:" ^ p);
      f sim net a b executions)

let call_ok a ~kind p =
  match Erpc.call a ~dst:2 ~kind p with
  | Ok _ -> ()
  | Error _ -> Alcotest.failf "call %S failed" p

(* The held entries and the per-caller index agree. *)
let check_held b what n =
  Alcotest.(check int) (what ^ ": dedup entries") n (Erpc.dedup_size b);
  Alcotest.(check int) (what ^ ": index keys") n (Erpc.ack_index_size b)

(* Once the caller's next request arrives, the peer holds only the calls
   still in flight when it was sent (that request's own among them). *)
let rpc_ack_frees_replies () =
  with_ack_pair (fun sim _net a b _executions ->
      for i = 1 to 5 do
        call_ok a ~kind:1 (string_of_int i);
        check_held b (Printf.sprintf "after sequential call %d" i) 1
      done;
      let slow_done = ref 0 in
      for i = 1 to 3 do
        Sim.spawn sim (fun () ->
            call_ok a ~kind:2 (Printf.sprintf "slow%d" i);
            incr slow_done)
      done;
      Sim.sleep sim 1_000;
      call_ok a ~kind:1 "during";
      check_held b "three slow calls and one fast one in flight" 4;
      Sim.sleep sim 5_000_000;
      Alcotest.(check int) "slow calls returned" 3 !slow_done;
      call_ok a ~kind:1 "after";
      check_held b "all returned, then one call" 1)

(* A captured non-transactional request replayed after its caller acked
   it, and again after the TTL, runs once and is never answered again. *)
let rpc_acked_replay_refused () =
  with_ack_pair (fun sim net a b executions ->
      Net.capture net ~limit:16;
      call_ok a ~kind:1 "once";
      let request =
        List.find (fun p -> p.Treaty_netsim.Packet.dst = 2) (Net.captured net)
      in
      call_ok a ~kind:1 "ack";
      Alcotest.(check int) "two executions" 2 !executions;
      let answered = (Erpc.stats b).responses_sent in
      let suppressed = (Erpc.stats b).replays_suppressed in
      Net.replay net request;
      Sim.sleep sim 1_000_000;
      Alcotest.(check int) "replay after the ack: not run" 2 !executions;
      Alcotest.(check int) "replay after the ack: not answered" answered
        (Erpc.stats b).responses_sent;
      Alcotest.(check int) "replay after the ack: suppressed" (suppressed + 1)
        (Erpc.stats b).replays_suppressed;
      Sim.sleep sim 2_100_000_000;
      Erpc.expire_dedup b;
      check_held b "after the TTL" 0;
      Net.replay net request;
      Sim.sleep sim 1_000_000;
      Alcotest.(check int) "replay after the TTL: not run" 2 !executions;
      Alcotest.(check int) "replay after the TTL: not answered" answered
        (Erpc.stats b).responses_sent)

(* A call that has not returned holds the watermark, and with it every
   later call's entry at the peer, until it returns by timeout. *)
let rpc_timed_out_call_holds_watermark () =
  with_ack_pair (fun sim net a b _executions ->
      (* The first request towards [b] is lost. *)
      Net.set_adversary net
        (Adversary.nth_matching
           (fun pkt -> pkt.Treaty_netsim.Packet.dst = 2)
           ~n:1 Adversary.Drop);
      let lost = ref None in
      Sim.spawn sim (fun () ->
          lost := Some (Erpc.call a ~dst:2 ~kind:1 ~timeout_ns:5_000_000 "lost"));
      Sim.sleep sim 1_000;
      for i = 1 to 3 do
        call_ok a ~kind:1 (string_of_int i)
      done;
      check_held b "lost call pending: every later call held" 3;
      Sim.sleep sim 6_000_000;
      (match !lost with
      | Some (Error `Timeout) -> ()
      | _ -> Alcotest.fail "the lost call should have timed out");
      call_ok a ~kind:1 "next";
      check_held b "lost call timed out: only the next call held" 1)

(* An ack covers its own incarnation only: a new incarnation under the
   caller's wire id leaves the old one's entry to the TTL, and the old
   one's acked calls stay refused. *)
let rpc_ack_per_incarnation () =
  let key = Aead.key_of_string "net" in
  let security = Secure_msg.Secure key in
  let sim = Sim.create () in
  let net = Net.create sim Treaty_sim.Costmodel.default in
  Sim.run sim (fun () ->
      let b = mk_endpoint sim net ~security ~node_id:2 in
      let executions = ref 0 in
      Erpc.register b ~kind:1 (fun _ p ->
          incr executions;
          "r:" ^ p);
      let old = mk_endpoint ~incarnation:1 sim net ~security ~node_id:1 in
      Net.capture net ~limit:16;
      call_ok old ~kind:1 "old-1";
      let request =
        List.find (fun p -> p.Treaty_netsim.Packet.dst = 2) (Net.captured net)
      in
      call_ok old ~kind:1 "old-2";
      check_held b "old incarnation acked its first call" 1;
      Erpc.shutdown old;
      let fresh = mk_endpoint ~incarnation:2 sim net ~security ~node_id:1 in
      call_ok fresh ~kind:1 "new-1";
      call_ok fresh ~kind:1 "new-2";
      check_held b "old incarnation's last call outlives the new acks" 2;
      Net.replay net request;
      Sim.sleep sim 1_000_000;
      Alcotest.(check int) "old incarnation's acked call not rerun" 4 !executions;
      Sim.sleep sim 2_100_000_000;
      Erpc.expire_dedup b;
      check_held b "after the TTL" 0)

(* A caller that goes quiet never acks its last call: the TTL frees it. *)
let rpc_silent_caller_ages_out () =
  with_ack_pair (fun sim _net a b _executions ->
      for i = 1 to 3 do
        call_ok a ~kind:1 (string_of_int i)
      done;
      check_held b "last call unacked" 1;
      Sim.sleep sim 1_000_000_000;
      Erpc.expire_dedup b;
      check_held b "inside the TTL" 1;
      Sim.sleep sim 1_100_000_000;
      Erpc.expire_dedup b;
      check_held b "after the TTL" 0)

(* --- coordinator watermarks ------------------------------------------ *)

(* A transactional call from [a], as coordinator 1, under the given ack. *)
let tx_call a ~kind ~tx_seq ~acked =
  match Erpc.call a ~dst:2 ~kind ~coord:1 ~tx_seq ~op_id:1 ~acked "t" with
  | Ok _ -> ()
  | Error _ -> Alcotest.failf "transaction %d's call failed" tx_seq

(* A transaction's entry outlives its handler and goes once a request of a
   later one carries a watermark above it; a non-transactional ack, in
   another space, leaves it. A request below the watermark still runs. *)
let rpc_watermark_frees_transactions () =
  with_ack_pair (fun sim net a b executions ->
      Net.capture net ~limit:16;
      tx_call a ~kind:1 ~tx_seq:5 ~acked:5;
      let request =
        List.find (fun p -> p.Treaty_netsim.Packet.dst = 2) (Net.captured net)
      in
      check_held b "transaction 5 answered, its reply held" 1;
      tx_call a ~kind:1 ~tx_seq:6 ~acked:5;
      check_held b "a watermark at 5 keeps 5" 2;
      for i = 1 to 8 do
        call_ok a ~kind:1 (string_of_int i)
      done;
      check_held b "non-transactional acks pass 5 and 6 only in their space" 3;
      tx_call a ~kind:1 ~tx_seq:7 ~acked:7;
      check_held b "a watermark at 7 frees 5 and 6" 2;
      Alcotest.(check int) "executions so far" 11 !executions;
      Net.replay net request;
      Sim.sleep sim 1_000_000;
      Alcotest.(check int) "a transaction below the watermark still runs" 12
        !executions)

(* A coordinator that goes quiet acks none of its last transactions: the
   TTL frees them. *)
let rpc_quiet_coordinator_ages_out () =
  with_ack_pair (fun sim _net a b _executions ->
      tx_call a ~kind:1 ~tx_seq:5 ~acked:0;
      tx_call a ~kind:2 ~tx_seq:6 ~acked:0;
      check_held b "no watermark" 2;
      Sim.sleep sim 1_000_000_000;
      Erpc.expire_dedup b;
      check_held b "inside the TTL" 2;
      Sim.sleep sim 1_100_000_000;
      Erpc.expire_dedup b;
      check_held b "after the TTL" 0)

(* A watermark can pass an entry whose handler is still running (a
   participant's op parked on a lock, say). Its reply then must not be
   cached when the handler returns: the entry would be in no caller's list
   and never freed. *)
let rpc_watermark_passes_running_handler () =
  let key = Aead.key_of_string "net" in
  with_pair ~security:(Secure_msg.Secure key) (fun sim _net a b ->
      Erpc.register b ~kind:3 (fun _ _ ->
          Sim.sleep sim 1_000_000;
          "committed");
      Erpc.register b ~kind:4 (fun _ _ -> "aborted");
      let slow = ref None in
      Sim.spawn sim (fun () ->
          slow := Some (Erpc.call a ~dst:2 ~kind:3 ~coord:1 ~tx_seq:5 ~op_id:1 ""));
      Sim.sleep sim 100_000;
      tx_call a ~kind:4 ~tx_seq:6 ~acked:6;
      check_held b "the watermark freed the running entry" 1;
      Sim.sleep sim 2_000_000;
      (match !slow with
      | Some (Ok "committed") -> ()
      | _ -> Alcotest.fail "the running handler's reply was lost");
      check_held b "no orphaned dedup entry" 1)

(* A duplicate of a participant's op that arrives after the participant's
   abort, while no watermark has passed the op, is answered from the cache
   and starts no second slice. Node 1 stands in for the coordinator of
   transaction (1, 9001) and acks nothing; the TTL frees its entries. *)
let rpc_duplicate_op_after_abort () =
  let open Treaty_core in
  let sim = Sim.create () in
  Sim.run sim (fun () ->
      let config =
        {
          (Config.with_profile Config.default Config.treaty_enc_stab) with
          Config.dedup_ttl_ns = 200_000_000;
        }
      in
      match Cluster.create sim config () with
      | Error m -> Alcotest.failf "bootstrap: %s" m
      | Ok cluster ->
          let coord = Cluster.node cluster 0 and part = Cluster.node cluster 1 in
          let net = Cluster.net cluster in
          let call kind ~op_id payload =
            Erpc.call (Node.rpc coord) ~dst:(Node.node_id part) ~kind
              ~coord:(Node.node_id coord) ~tx_seq:9001 ~op_id
              ~timeout_ns:1_000_000_000 payload
          in
          let to_part = ref [] in
          Net.set_adversary net (fun pkt ->
              if pkt.Treaty_netsim.Packet.dst = Node.node_id part then
                to_part := pkt :: !to_part;
              Adversary.Deliver);
          (match
             call Txn_wire.k_txn_op ~op_id:1
               (Txn_wire.encode_ops [ Txn_wire.Put ("dup:k", "v") ])
           with
          | Ok reply when Result.is_ok (Txn_wire.decode_op_reply reply) -> ()
          | _ -> Alcotest.fail "participant refused the write");
          Net.clear_adversary net;
          let part_txs () = (Node.residual_state part).Node.res_part_txs in
          Alcotest.(check int) "the op began a slice" 1 (part_txs ());
          (match call Txn_wire.k_abort ~op_id:1_000_000 "" with
          | Ok _ -> ()
          | Error _ -> Alcotest.fail "abort call failed");
          Alcotest.(check int) "the abort ended it" 0 (part_txs ());
          let suppressed = (Erpc.stats (Node.rpc part)).replays_suppressed in
          List.iter (Net.replay net) (List.rev !to_part);
          Sim.sleep sim 5_000_000;
          Alcotest.(check int) "the duplicate began no slice" 0 (part_txs ());
          Alcotest.(check bool) "the duplicate was answered from the cache" true
            ((Erpc.stats (Node.rpc part)).replays_suppressed > suppressed);
          Sim.sleep sim 3_000_000_000;
          (match Cluster.check_quiescent cluster with
          | Ok () -> ()
          | Error m -> Alcotest.failf "residual state: %s" m);
          Cluster.shutdown cluster)

let suite =
  [
    Alcotest.test_case "secure message roundtrip" `Quick secure_msg_roundtrip;
    Alcotest.test_case "message confidentiality" `Quick secure_msg_confidentiality;
    Alcotest.test_case "message tamper detection" `Quick secure_msg_tamper;
    Alcotest.test_case "at-most-once key" `Quick at_most_once_key;
    Alcotest.test_case "transport cost structure" `Quick transport_shape;
    Alcotest.test_case "rpc request/response" `Quick rpc_request_response;
    Alcotest.test_case "rpc timeout on dead peer" `Quick rpc_timeout_on_dead_peer;
    Alcotest.test_case "tampered message dropped" `Quick rpc_tampered_dropped;
    Alcotest.test_case "duplicate not re-executed" `Quick rpc_duplicate_not_reexecuted;
    Alcotest.test_case "replay attack suppressed" `Quick rpc_replay_attack_suppressed;
    Alcotest.test_case "plain mode is vulnerable (baseline)" `Quick rpc_plain_mode_vulnerable;
    Alcotest.test_case "a watermark passing a running handler's entry leaves none"
      `Quick rpc_watermark_passes_running_handler;
    Alcotest.test_case "handlers run on fibers" `Quick rpc_handler_can_block;
    Alcotest.test_case "burst window coalesces packets" `Quick rpc_burst_coalescing;
    QCheck_alcotest.to_alcotest burst_roundtrip_equiv;
    Alcotest.test_case "burst tamper rejects whole packet" `Quick
      burst_tamper_whole_packet;
    Alcotest.test_case "v1 envelope packet is rejected" `Quick
      rpc_rejects_v1_envelope;
    Alcotest.test_case "bursts flush at the end of the instant" `Quick
      rpc_burst_end_of_instant;
    Alcotest.test_case "the next request's ack frees replies" `Quick
      rpc_ack_frees_replies;
    Alcotest.test_case "acked replay refused, also after the TTL" `Quick
      rpc_acked_replay_refused;
    Alcotest.test_case "a timed-out call holds the watermark" `Quick
      rpc_timed_out_call_holds_watermark;
    Alcotest.test_case "an ack covers its own incarnation" `Quick
      rpc_ack_per_incarnation;
    Alcotest.test_case "a silent caller's entries age out" `Quick
      rpc_silent_caller_ages_out;
    Alcotest.test_case "a coordinator's watermark frees its transactions" `Quick
      rpc_watermark_frees_transactions;
    Alcotest.test_case "a quiet coordinator's entries age out" `Quick
      rpc_quiet_coordinator_ages_out;
    Alcotest.test_case "a duplicate op after its abort starts no slice" `Quick
      rpc_duplicate_op_after_abort;
  ]
