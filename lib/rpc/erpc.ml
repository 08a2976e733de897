module Sim = Treaty_sim.Sim
module Enclave = Treaty_tee.Enclave
module Mempool = Treaty_memalloc.Mempool
module Net = Treaty_netsim.Net
module Trace = Treaty_obs.Trace
module Metrics = Treaty_obs.Metrics

type config = {
  security : Secure_msg.security;
  naive_port : bool;
  timeout_ns : int;
  dedup_ttl_ns : int;
}

let default_config ~security =
  {
    security;
    naive_port = false;
    timeout_ns = 50_000_000 (* 50 ms *);
    dedup_ttl_ns = 2_000_000_000 (* 2 s *);
  }

let burst_max_msgs = 32 (* what one TxBurst carries *)

type error = [ `Timeout | `Tampered ]

type stats = {
  mutable requests_sent : int;
  mutable responses_sent : int;
  mutable mac_failures : int;
  mutable replays_suppressed : int;
  mutable timeouts : int;
  mutable bursts_sent : int;
  mutable burst_msgs : int;
}

type dedup_entry = Running of string Sim.ivar | Done of string

(* A non-transactional identity's number: the caller's incarnation in the
   high bits, its call sequence number in the low 32. Its [tx_seq] is the
   negated number, so it never meets a transaction's. *)
let seq_bits = 32
let nontx_number ~incarnation seq = (incarnation lsl seq_bits) lor seq
let incarnation_of n = n lsr seq_bits

(* An identity's space, the unit a caller acks: a coordinator's
   transactions (by its wire id: its transaction numbers keep growing
   across its incarnations), or one caller incarnation's
   non-transactional calls (by wire id and incarnation). *)
type space = Txns of int | Calls of int * int

let space_of (coord, tx_seq, _) =
  if tx_seq >= 0 then Txns coord
  else Calls (coord, incarnation_of (-tx_seq))

(* An identity's number in its space, the one its caller's ack counts. *)
let number (_, tx_seq, _) = abs tx_seq

(* What a receiver knows of one space's identities. *)
type caller = {
  mutable c_floor : int;
      (* Its highest ack: its identities numbered below it have finished at
         the caller. *)
  mutable c_live : (int * int * int) list;  (* its keys in [dedup] *)
  mutable c_seen : int;
      (* When its last request arrived: a caller quiet for the TTL before its
         ack freed its keys loses them. *)
}

type t = {
  sim : Sim.t;
  net : Net.t;
  enclave : Enclave.t;
  pool : Mempool.t;
  config : config;
  node_id : int;
  handlers : (int, Secure_msg.meta -> string -> string) Hashtbl.t;
  pending : (int, (string, error) result Sim.ivar) Hashtbl.t;
  dedup : (int * int * int, dedup_entry) Hashtbl.t;
  callers : (space, caller) Hashtbl.t;
      (* Kept after their keys drain, so an acked non-transactional
         identity stays refused. *)
  mutable next_expiry : int;
      (* No caller holding keys can have been quiet for the TTL before
         this time. *)
  mutable next_req_id : int;
  mutable next_tx_seq : int;
  unfinished : (int, unit) Hashtbl.t;
      (* Sequence numbers of this endpoint's own non-transactional calls
         that have not returned yet. *)
  mutable low : int;
      (* No own non-transactional call numbered below it is unfinished:
         the watermark every request acks. *)
  outq : (int, (Secure_msg.meta * string) list ref) Hashtbl.t;
      (* dst -> plaintext messages (newest first) awaiting the doorbell;
         sealing happens at flush, once per packet. *)
  mutable doorbell_active : bool;
  stats : stats;
}

let crypto_charge t ~bytes =
  match t.config.security with
  | Secure_msg.Plain -> ()
  | Secure_msg.Secure _ -> Enclave.charge_crypto t.enclave ~bytes

(* The whole burst framed into one mempool-backed buffer and sealed with a
   single packet-level AEAD ({!Secure_msg.Burst}) — one IV, one keystream
   pass, one MAC, one crypto charge per packet. The buffer is allocated for
   exactly the packet's lifetime — the paper's "buffers remain allocated
   until the entire request has been served" (TreatySan checks it
   drains). *)
(* The naive port keeps its message buffers in the enclave. *)
let msgbuf_region t = if t.config.naive_port then Mempool.Enclave else Mempool.Host

let encode_packet t msgs =
  let size =
    Secure_msg.Burst.wire_size t.config.security
      ~data_lens:(List.map (fun (_, data) -> String.length data) msgs)
  in
  let buf = Mempool.alloc t.pool (msgbuf_region t) size in
  Fun.protect ~finally:(fun () -> Mempool.free t.pool buf)
    (fun () ->
      if t.config.naive_port then Enclave.world_switch t.enclave;
      crypto_charge t ~bytes:size;
      let n =
        Secure_msg.Burst.encode_into t.config.security
          ~iv_gen:(Enclave.iv_gen t.enclave) buf.Mempool.bytes msgs
      in
      Bytes.sub_string buf.Mempool.bytes 0 n)

(* Open a received packet in a mempool buffer of the message-buffer region,
   held only while the packet is verified, decrypted and sliced. *)
let decode_packet t payload =
  let buf = Mempool.alloc t.pool (msgbuf_region t) (String.length payload) in
  Fun.protect ~finally:(fun () -> Mempool.free t.pool buf)
    (fun () -> Secure_msg.Burst.decode t.config.security ~buf:buf.Mempool.bytes payload)

(* Ring the doorbell: one netsim packet, one transport traversal and one
   serialization (fragmented by MTU) carry the whole burst to [dst]. *)
let flush_burst t ~dst msgs =
  match msgs with
  | [] -> ()
  | _ ->
      let payload = encode_packet t msgs in
      let bytes = String.length payload in
      t.stats.bursts_sent <- t.stats.bursts_sent + 1;
      t.stats.burst_msgs <- t.stats.burst_msgs + List.length msgs;
      let bspan =
        if Trace.enabled () then
          Trace.begin_span ~node:t.node_id ~cat:"rpc" "rpc.burst"
            ~args:
              [ ("msgs", Trace.Int (List.length msgs));
                ("bytes", Trace.Int bytes); ("dst", Trace.Int dst) ]
        else Trace.none
      in
      Transport.charge_burst Transport.default_params t.enclave Transport.Dpdk
        ~dir:`Tx ~bytes ~msgs:(List.length msgs);
      let frags = Transport.fragments (Enclave.cost t.enclave) ~bytes in
      Net.send t.net ~src:t.node_id ~dst ~wire_overhead:(64 * frags) payload;
      Trace.end_span bspan

let flush_all t =
  if not (Enclave.live t.enclave) then Hashtbl.reset t.outq
  else begin
    let dsts = Hashtbl.fold (fun dst _ acc -> dst :: acc) t.outq [] in
    List.iter
      (fun dst ->
        match Hashtbl.find_opt t.outq dst with
        | None -> ()
        | Some q ->
            Hashtbl.remove t.outq dst;
            flush_burst t ~dst (List.rev !q))
      (List.sort compare dsts)
  end

let send_wire t ~dst meta data =
  if Enclave.live t.enclave then begin
    let q =
      match Hashtbl.find_opt t.outq dst with
      | Some q -> q
      | None ->
          let q = ref [] in
          Hashtbl.replace t.outq dst q;
          q
    in
    q := (meta, data) :: !q;
    if List.length !q >= burst_max_msgs then begin
      (* Full burst: ring the doorbell early instead of growing past what
         one TxBurst can carry. *)
      Hashtbl.remove t.outq dst;
      flush_burst t ~dst (List.rev !q)
    end
    else if not t.doorbell_active then begin
      (* The burst leaves when this endpoint's event-loop turn ends, as in
         eRPC: after every fiber runnable at this instant. What is queued
         while a flush is charged (transport, AEAD) goes in the next round,
         which keeps bursts together under load. *)
      t.doorbell_active <- true;
      ignore
        (Sim.at t.sim ~time:(Sim.now t.sim) (fun () ->
             Sim.spawn t.sim (fun () ->
                 while Hashtbl.length t.outq > 0 do flush_all t done;
                 t.doorbell_active <- false)))
    end
  end

let send_response t ~dst (meta : Secure_msg.meta) payload =
  t.stats.responses_sent <- t.stats.responses_sent + 1;
  send_wire t ~dst
    { meta with is_response = true; src = t.node_id; acked = 0 }
    payload

let caller t space =
  match Hashtbl.find_opt t.callers space with
  | Some c -> c
  | None ->
      let c = { c_floor = 0; c_live = []; c_seen = Sim.now t.sim } in
      Hashtbl.replace t.callers space c;
      c

(* Raise the caller's floor to the ack a request in its space carries and
   drop the replies it frees. *)
let note_ack t c acked =
  if acked > c.c_floor then begin
    c.c_floor <- acked;
    c.c_live <-
      List.filter
        (fun key ->
          if number key < acked then begin
            Hashtbl.remove t.dedup key;
            false
          end
          else true)
        c.c_live
  end

let record_dedup t c key entry =
  Hashtbl.replace t.dedup key entry;
  c.c_live <- key :: c.c_live;
  t.next_expiry <- min t.next_expiry (c.c_seen + t.config.dedup_ttl_ns)

(* Drop the keys of every caller quiet for the TTL: no ack will free
   them. Its record keeps its floor. *)
let expire_dedup t =
  let now = Sim.now t.sim in
  if now >= t.next_expiry then begin
    let ttl = t.config.dedup_ttl_ns in
    t.next_expiry <- max_int;
    Hashtbl.iter
      (fun _ c ->
        if c.c_live <> [] then
          if now - c.c_seen >= ttl then begin
            List.iter (Hashtbl.remove t.dedup) c.c_live;
            c.c_live <- []
          end
          else t.next_expiry <- min t.next_expiry (c.c_seen + ttl))
      t.callers
  end

let dedup_size t = Hashtbl.length t.dedup

let txn_floor t ~coord =
  match Hashtbl.find_opt t.callers (Txns coord) with
  | Some c -> c.c_floor
  | None -> 0

let ack_index_size t =
  Hashtbl.fold (fun _ c n -> n + List.length c.c_live) t.callers 0

let handle_request t (meta : Secure_msg.meta) data =
  expire_dedup t;
  let key = Secure_msg.at_most_once_key meta in
  let c = caller t (space_of key) in
  c.c_seen <- Sim.now t.sim;
  note_ack t c meta.acked;
  (* A halted enclave's endpoint must not answer — not even from its
     response cache: only the liveness check at reply time covers handlers
     and cache reads that blocked across the crash. *)
  let reply payload =
    if Enclave.live t.enclave then send_response t ~dst:meta.src meta payload
  in
  match Hashtbl.find_opt t.dedup key with
  | Some (Done payload) ->
      (* Replayed/duplicated request: answer from the cache, never
         re-execute (freshness / at-most-once, §VII-A). *)
      t.stats.replays_suppressed <- t.stats.replays_suppressed + 1;
      reply payload
  | Some (Running iv) ->
      t.stats.replays_suppressed <- t.stats.replays_suppressed + 1;
      let payload = Sim.read t.sim iv in
      reply payload
  | None when meta.tx_seq < 0 && number key < c.c_floor ->
      (* A replay of a call its caller has finished: its reply is freed,
         and it is neither run again nor answered. A transaction below its
         coordinator's floor still runs: a recovering coordinator re-sends
         its decisions under their old numbers. *)
      t.stats.replays_suppressed <- t.stats.replays_suppressed + 1
  | None -> (
      match Hashtbl.find_opt t.handlers meta.kind with
      | None -> () (* unknown kind: drop; caller times out *)
      | Some handler ->
          let hspan =
            if Trace.enabled () then begin
              let coord, tx_seq, op_id = key in
              let parent = Trace.ctx_resolve ~coord ~tx_seq ~op_id in
              let s =
                Trace.begin_span ~parent ~node:t.node_id ~cat:"rpc"
                  "rpc.handle"
                  ~args:[ ("kind", Trace.Int meta.kind) ]
              in
              (* Re-point the registration at the handler span so spans the
                 handler opens under the same triple nest beneath it; the
                 caller's own registration is restored implicitly — nothing
                 else resolves this op after the handler returns. *)
              Trace.ctx_register ~coord ~tx_seq ~op_id s;
              s
            end
            else Trace.none
          in
          let running = Sim.ivar () in
          record_dedup t c key (Running running);
          let payload = handler meta data in
          if hspan <> Trace.none then begin
            let coord, tx_seq, op_id = key in
            Trace.ctx_unregister ~coord ~tx_seq ~op_id;
            Trace.end_span hspan
          end;
          (* A request that arrived while the handler ran may have acked
             this identity and freed its entry; re-inserting [Done] here
             would orphan it, in [dedup] but in no caller's list, for
             good. *)
          if Hashtbl.mem t.dedup key then Hashtbl.replace t.dedup key (Done payload);
          Sim.fill running payload;
          reply payload)

let dispatch_decoded t (meta : Secure_msg.meta) data =
  if meta.is_response then begin
    match Hashtbl.find_opt t.pending meta.req_id with
    | Some iv ->
        Hashtbl.remove t.pending meta.req_id;
        ignore (Sim.try_fill iv (Ok data))
    | None -> () (* response after timeout: drop *)
  end
  else handle_request t meta data

let rx_malformed t (pkt : Treaty_netsim.Packet.t) =
  (* Empty packet, or one that does not lead with the burst version byte:
     nothing inside is recoverable. *)
  Transport.charge Transport.default_params t.enclave Transport.Dpdk ~rpc_layer:true
    ~dir:`Rx ~bytes:pkt.size;
  t.stats.mac_failures <- t.stats.mac_failures + 1

(* One fiber per message: a burst may interleave a blocking request (e.g. a
   prepare awaiting stabilization) with the very counter-service traffic it
   is waiting on, so messages must not queue behind each other's
   handlers. *)
let on_packet t (pkt : Treaty_netsim.Packet.t) =
  (* Runs as a network-delivery event; spawn a fiber so handlers can block. *)
  Sim.spawn t.sim (fun () ->
      if Enclave.live t.enclave then begin
        if t.config.naive_port then Enclave.world_switch t.enclave;
        if
          String.length pkt.payload = 0
          || Char.code pkt.payload.[0] <> Secure_msg.Burst.version
        then rx_malformed t pkt
        else
          (* Verify and decrypt ONCE for the whole burst, then hand out
             each sub-message's plaintext. *)
          match decode_packet t pkt.payload with
          | Error (`Tampered | `Malformed) ->
              Transport.charge Transport.default_params t.enclave Transport.Dpdk
                ~rpc_layer:true ~dir:`Rx ~bytes:pkt.size;
              crypto_charge t ~bytes:pkt.size;
              t.stats.mac_failures <- t.stats.mac_failures + 1
          | Ok msgs ->
              Transport.charge_burst Transport.default_params t.enclave
                Transport.Dpdk ~dir:`Rx ~bytes:pkt.size
                ~msgs:(List.length msgs);
              crypto_charge t ~bytes:pkt.size;
              List.iter
                (fun (meta, data) ->
                  Sim.spawn t.sim (fun () ->
                      if Enclave.live t.enclave then dispatch_decoded t meta data))
                msgs
      end)

let create sim ~net ~enclave ~pool ~config ~node_id ?net_config () =
  let t =
    {
      sim;
      net;
      enclave;
      pool;
      config;
      node_id;
      handlers = Hashtbl.create 16;
      pending = Hashtbl.create 64;
      dedup = Hashtbl.create 256;
      next_expiry = max_int;
      callers = Hashtbl.create 16;
      next_req_id = 0;
      next_tx_seq = 0;
      unfinished = Hashtbl.create 16;
      low = 1;
      outq = Hashtbl.create 8;
      doorbell_active = false;
      stats =
        {
          requests_sent = 0;
          responses_sent = 0;
          mac_failures = 0;
          replays_suppressed = 0;
          timeouts = 0;
          bursts_sent = 0;
          burst_msgs = 0;
        };
    }
  in
  Net.register net ~id:node_id ?config:net_config
    ~live:(fun () -> Enclave.live enclave)
    (on_packet t);
  t

let node_id t = t.node_id
let stats t = t.stats
let enclave t = t.enclave
let register t ~kind handler = Hashtbl.replace t.handlers kind handler

let call t ~dst ~kind ?coord ?tx_seq ?op_id ?acked ?timeout_ns ?span payload =
  let timeout_ns = Option.value timeout_ns ~default:t.config.timeout_ns in
  t.next_req_id <- t.next_req_id + 1;
  let req_id = t.next_req_id in
  let incarnation = Enclave.incarnation t.enclave in
  let coord, tx_seq, nontx_seq, acked =
    match tx_seq with
    | Some s ->
        (Option.value coord ~default:t.node_id, s, 0, Option.value acked ~default:0)
    | None ->
        (* Non-transactional call: fresh identity under this endpoint's
           own wire id, unique across the enclave incarnations under it,
           so peer dedup caches never serve a stale reply and this
           endpoint's acks cover it. *)
        t.next_tx_seq <- t.next_tx_seq + 1;
        Hashtbl.replace t.unfinished t.next_tx_seq ();
        ( t.node_id,
          -nontx_number ~incarnation t.next_tx_seq,
          t.next_tx_seq,
          nontx_number ~incarnation t.low )
  in
  let op_id = Option.value op_id ~default:req_id in
  let meta =
    {
      Secure_msg.coord;
      tx_seq;
      op_id;
      src = t.node_id;
      kind;
      is_response = false;
      req_id;
      acked;
    }
  in
  t.stats.requests_sent <- t.stats.requests_sent + 1;
  let cspan =
    if Trace.enabled () then begin
      (* tx_seq stays out of the args: a non-transactional one is an
         incarnation-derived number that tells a reader nothing, and the
         ctx registration below links the remote handler's span. *)
      let s =
        Trace.begin_span ?parent:span ~node:t.node_id ~cat:"rpc" "rpc.call"
          ~args:[ ("kind", Trace.Int kind); ("dst", Trace.Int dst) ]
      in
      Trace.ctx_register ~coord ~tx_seq ~op_id s;
      s
    end
    else Trace.none
  in
  let t0 = Sim.now t.sim in
  let finish status result =
    if nontx_seq > 0 then begin
      (* Returned, by reply or by timeout: the watermark may pass it. *)
      Hashtbl.remove t.unfinished nontx_seq;
      while t.low <= t.next_tx_seq && not (Hashtbl.mem t.unfinished t.low) do
        t.low <- t.low + 1
      done
    end;
    if cspan <> Trace.none then begin
      Trace.ctx_unregister ~coord ~tx_seq ~op_id;
      Trace.end_span cspan ~args:[ ("status", Trace.Str status) ]
    end;
    Metrics.observe "rpc.wait_ns" (Sim.now t.sim - t0);
    result
  in
  let iv = Sim.ivar () in
  Hashtbl.replace t.pending req_id iv;
  send_wire t ~dst meta payload;
  match Sim.read_timeout t.sim ~ns:timeout_ns iv with
  | Some r -> finish "ok" r
  | None ->
      Hashtbl.remove t.pending req_id;
      t.stats.timeouts <- t.stats.timeouts + 1;
      finish "timeout" (Error `Timeout)

let shutdown t = Enclave.halt t.enclave
