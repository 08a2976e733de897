module Sim = Treaty_sim.Sim
module Enclave = Treaty_tee.Enclave
module Mempool = Treaty_memalloc.Mempool
module Net = Treaty_netsim.Net
module Trace = Treaty_obs.Trace
module Metrics = Treaty_obs.Metrics

type config = {
  transport : Transport.kind;
  params : Transport.params;
  security : Secure_msg.security;
  msgbuf_region : Mempool.region;
  rdtsc_ocalls : bool;
  timeout_ns : int;
  dedup_ttl_ns : int;
}

let default_config ~security =
  {
    transport = Transport.Dpdk;
    params = Transport.default_params;
    security;
    msgbuf_region = Mempool.Host;
    rdtsc_ocalls = false;
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
  dedup_by_tx : (int * int, int list ref) Hashtbl.t;
      (* Op ids per transactional identity, for [forget_tx]. *)
  dedup_expiry : ((int * int * int) * int) Queue.t;
      (* Keys of non-transactional identities with insertion time, oldest
         first: their callers never send forget_tx, so they are reclaimed by
         TTL instead. Each such identity is one call, so its key is enough:
         no [dedup_by_tx] entry. *)
  mutable next_req_id : int;
  mutable next_tx_seq : int;
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
let encode_packet t msgs =
  let size =
    Secure_msg.Burst.wire_size t.config.security
      ~data_lens:(List.map (fun (_, data) -> String.length data) msgs)
  in
  let buf = Mempool.alloc t.pool ~owner:t.node_id t.config.msgbuf_region size in
  Fun.protect ~finally:(fun () -> Mempool.free t.pool ~owner:t.node_id buf)
    (fun () ->
      if t.config.rdtsc_ocalls then Enclave.world_switch t.enclave;
      crypto_charge t ~bytes:size;
      let n =
        Secure_msg.Burst.encode_into t.config.security
          ~iv_gen:(Enclave.iv_gen t.enclave) buf.Mempool.bytes msgs
      in
      Bytes.sub_string buf.Mempool.bytes 0 n)

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
      Transport.charge_burst t.config.params t.enclave t.config.transport
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
  send_wire t ~dst { meta with is_response = true; src = t.node_id } payload

let record_dedup t key entry =
  Hashtbl.replace t.dedup key entry;
  let coord, tx_seq, op = key in
  (* Non-transactional identities (tx_seq < 0) have no commit/abort to
     forget them; schedule TTL reclamation instead. *)
  if tx_seq < 0 then Queue.push (key, Sim.now t.sim) t.dedup_expiry
  else
    match Hashtbl.find_opt t.dedup_by_tx (coord, tx_seq) with
    | Some ops -> ops := op :: !ops
    | None -> Hashtbl.replace t.dedup_by_tx (coord, tx_seq) (ref [ op ])

let forget_tx t ~coord ~tx_seq =
  match Hashtbl.find_opt t.dedup_by_tx (coord, tx_seq) with
  | None -> ()
  | Some ops ->
      List.iter (fun op -> Hashtbl.remove t.dedup (coord, tx_seq, op)) !ops;
      Hashtbl.remove t.dedup_by_tx (coord, tx_seq)

let expire_dedup t =
  let now = Sim.now t.sim in
  let rec drain () =
    match Queue.peek_opt t.dedup_expiry with
    | Some (key, born) when now - born >= t.config.dedup_ttl_ns ->
        ignore (Queue.pop t.dedup_expiry);
        Hashtbl.remove t.dedup key;
        drain ()
    | _ -> ()
  in
  drain ()

let dedup_size t = Hashtbl.length t.dedup

let handle_request t (meta : Secure_msg.meta) data =
  expire_dedup t;
  let key = Secure_msg.at_most_once_key meta in
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
          record_dedup t key (Running running);
          let payload = handler meta data in
          if hspan <> Trace.none then begin
            let coord, tx_seq, op_id = key in
            Trace.ctx_unregister ~coord ~tx_seq ~op_id;
            Trace.end_span hspan
          end;
          (* The handler may have torn down this transaction's dedup state
             (commit/abort run [forget_tx] while finishing the tx); blindly
             re-inserting [Done] here would orphan the entry — present in
             [dedup] but absent from [dedup_by_tx] — and leak it forever. *)
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
  Transport.charge t.config.params t.enclave t.config.transport ~rpc_layer:true
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
        if t.config.rdtsc_ocalls then Enclave.world_switch t.enclave;
        if
          String.length pkt.payload = 0
          || Char.code pkt.payload.[0] <> Secure_msg.Burst.version
        then rx_malformed t pkt
        else
          (* Verify and decrypt ONCE for the whole burst, then hand out
             plaintext sub-message views. *)
          match Secure_msg.Burst.decode t.config.security pkt.payload with
          | Error (`Tampered | `Malformed) ->
              Transport.charge t.config.params t.enclave t.config.transport
                ~rpc_layer:true ~dir:`Rx ~bytes:pkt.size;
              crypto_charge t ~bytes:pkt.size;
              t.stats.mac_failures <- t.stats.mac_failures + 1
          | Ok msgs ->
              Transport.charge_burst t.config.params t.enclave
                t.config.transport ~dir:`Rx ~bytes:pkt.size
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
      dedup_by_tx = Hashtbl.create 64;
      dedup_expiry = Queue.create ();
      next_req_id = 0;
      next_tx_seq = 0;
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

let call t ~dst ~kind ?coord ?tx_seq ?op_id ?timeout_ns ?span payload =
  let timeout_ns = Option.value timeout_ns ~default:t.config.timeout_ns in
  t.next_req_id <- t.next_req_id + 1;
  let req_id = t.next_req_id in
  let coord = Option.value coord ~default:t.node_id in
  let tx_seq =
    match tx_seq with
    | Some s -> s
    | None ->
        (* Non-transactional call: fresh identity, unique across the
           enclave incarnations under this wire id, so peer dedup caches
           never serve a stale reply. *)
        t.next_tx_seq <- t.next_tx_seq + 1;
        -((Enclave.incarnation t.enclave * 1_000_000) + t.next_tx_seq)
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
