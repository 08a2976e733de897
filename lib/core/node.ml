module Sim = Treaty_sim.Sim
module Enclave = Treaty_tee.Enclave
module Erpc = Treaty_rpc.Erpc
module Secure_msg = Treaty_rpc.Secure_msg
module Mempool = Treaty_memalloc.Mempool
module Net = Treaty_netsim.Net
module Engine = Treaty_storage.Engine
module Ssd = Treaty_storage.Ssd
module Seal_slots = Treaty_storage.Seal_slots
module Sec = Treaty_storage.Sec
module Op = Treaty_storage.Op
module Clog_record = Treaty_storage.Clog_record
module Rote = Treaty_counter.Rote
module Counter_client = Treaty_counter.Counter_client
module Keys = Treaty_crypto.Keys
module Wire = Treaty_util.Wire
module Latch = Treaty_sched.Scheduler.Latch
module Trace = Treaty_obs.Trace
module Metrics = Treaty_obs.Metrics

type stats = {
  mutable committed : int;
  mutable aborted : int;
  mutable distributed_committed : int;
  mutable single_node_committed : int;
  mutable read_only_committed : int;
  mutable remote_ops_served : int;
  mutable decisions_queried : int;
}

type deps = {
  sim : Sim.t;
  config : Config.t;
  net : Net.t;
  node_id : int;
  peers : int list;
  route : string -> int;
  master : Keys.master;
  history : Serializability.t option;
  incarnation : int;
}

type remote_slice = {
  mutable r_written : string list;
  mutable r_reads : (string * int) list;
  mutable r_installed : int;
}

type coord_tx = {
  ct_seq : int;
  ct_client : int;
  ct_local : Local_txn.t;
  ct_span : Trace.span;  (* root "txn" span, ended by conclude *)
  mutable ct_next_op : int;
  ct_remote : (int, remote_slice) Hashtbl.t;
  ct_started : int;
  mutable ct_committing : bool;
      (* Commit in progress: the abandoned-tx sweep must not abort it. *)
}

type t = {
  deps : deps;
  enclave : Enclave.t;
  pool : Mempool.t;
  rpc : Erpc.t;
  ssd : Ssd.t;
  io : Ssd.t;
      (* This incarnation's handle onto [ssd]: its engine and counter replica
         write through it, and [crash] fences it off the device. *)
  sec : Sec.t;
  mutable engine : Engine.t;
  locks : Lock_table.t;
  rote : Rote.replica;
  counter_client : Counter_client.t option;
  mutable next_tx_seq : int;
  coord_txs : (int, coord_tx) Hashtbl.t;
  part_txs : (int * int, Local_txn.t * int) Hashtbl.t;  (* ctx, created_at *)
  decisions : (int, bool) Hashtbl.t;  (* trusted decisions only *)
  undecided : (int, unit) Hashtbl.t;
      (* Transactions recovery found with a trusted Begin_2pc and no
         trusted decision, until it has decided them. *)
  clients : (int, unit) Hashtbl.t;
  mutable recovering : bool;
  stats : stats;
}

let node_id t = t.deps.node_id
let stats t = t.stats
let engine t = t.engine
let rpc t = t.rpc
let pool t = t.pool
let enclave t = t.enclave
let ssd t = t.ssd
let locks t = t.locks
let rote t = t.rote
let counter_client t = t.counter_client

type residual = {
  res_dedup : int;
  res_locked_keys : int;
  res_part_txs : int;
  res_coord_txs : int;
  res_prepared : int;
  res_snapshots : int;
}

let residual_state t =
  {
    res_dedup = Erpc.dedup_size t.rpc;
    res_locked_keys = Lock_table.locked_keys t.locks;
    res_part_txs = Hashtbl.length t.part_txs;
    res_coord_txs = Hashtbl.length t.coord_txs;
    res_prepared = List.length (Engine.prepared_txs t.engine);
    res_snapshots = Engine.active_snapshot_count t.engine;
  }

let residual_total r =
  r.res_dedup + r.res_locked_keys + r.res_part_txs + r.res_coord_txs
  + r.res_prepared + r.res_snapshots

let residual_to_string r =
  Printf.sprintf
    "dedup=%d locked=%d part_txs=%d coord_txs=%d prepared=%d snapshots=%d"
    r.res_dedup r.res_locked_keys r.res_part_txs r.res_coord_txs r.res_prepared
    r.res_snapshots

let fresh_stats () =
  {
    committed = 0;
    aborted = 0;
    distributed_committed = 0;
    single_node_committed = 0;
    read_only_committed = 0;
    remote_ops_served = 0;
    decisions_queried = 0;
  }

(* --- local transaction plumbing --------------------------------------- *)

let local_txid t seq = { Types.coord = t.deps.node_id; seq }

let begin_local ?span t txid =
  Local_txn.begin_ ?span ~engine:t.engine ~locks:t.locks
    ~isolation:t.deps.config.isolation ~tx:txid ()

let exec_local ltx = function
  | Txn_wire.Get key -> (
      match Local_txn.get_with_seq ltx key with
      | Ok (v, seq) -> Ok (v, seq)
      | Error `Timeout -> Error `Timeout)
  | Put (key, value) -> (
      match Local_txn.put ltx key value with
      | Ok () -> Ok (None, 0)
      | Error `Timeout -> Error `Timeout)
  | Del key -> (
      match Local_txn.delete ltx key with
      | Ok () -> Ok (None, 0)
      | Error `Timeout -> Error `Timeout)

let namespaced node key = Printf.sprintf "n%d:%s" node key

let record_history t ctx ~installed_local_seq =
  match t.deps.history with
  | None -> ()
  | Some h ->
      let self = t.deps.node_id in
      let reads =
        List.map (fun (k, s) -> (namespaced self k, s)) (Local_txn.read_set ctx.ct_local)
        @ Hashtbl.fold
            (fun node slice acc ->
              List.map (fun (k, s) -> (namespaced node k, s)) slice.r_reads @ acc)
            ctx.ct_remote []
      in
      let writes =
        (match installed_local_seq with
        | Some seq ->
            List.map
              (fun (k, _) -> (namespaced self k, seq))
              (Local_txn.writes ctx.ct_local)
        | None -> [])
        @ Hashtbl.fold
            (fun node slice acc ->
              if slice.r_installed > 0 then
                List.map (fun k -> (namespaced node k, slice.r_installed)) slice.r_written
                @ acc
              else acc)
            ctx.ct_remote []
      in
      Serializability.record_commit h ~tx:(local_txid t ctx.ct_seq) ~reads ~writes

(* --- participant side -------------------------------------------------- *)

let part_ctx t ~coord ~tx_seq =
  match Hashtbl.find_opt t.part_txs (coord, tx_seq) with
  | Some (ctx, _) -> ctx
  | None ->
      let ctx = begin_local t { Types.coord; seq = tx_seq } in
      Hashtbl.replace t.part_txs (coord, tx_seq) (ctx, Sim.now t.deps.sim);
      ctx

(* The erpc layer re-registered the at-most-once triple to the live
   rpc.handle span before invoking us: resolving it parents the spans this
   handler opens (lock waits, prepare persistence) under that handler. *)
let handler_span (meta : Secure_msg.meta) =
  Trace.ctx_resolve ~coord:meta.coord ~tx_seq:meta.tx_seq ~op_id:meta.op_id

let handle_txn_op t (meta : Secure_msg.meta) payload =
  t.stats.remote_ops_served <- t.stats.remote_ops_served + 1;
  match Txn_wire.decode_op payload with
  | Error _ -> Txn_wire.status_reply St_unknown_tx
  | Ok op -> (
      let ctx = part_ctx t ~coord:meta.coord ~tx_seq:meta.tx_seq in
      Local_txn.set_span ctx (handler_span meta);
      match exec_local ctx op with
      | Ok (value, seq) -> Txn_wire.encode_op_reply value seq
      | Error `Timeout -> Txn_wire.status_reply St_lock_timeout)

let handle_txn_scan t (meta : Secure_msg.meta) payload =
  t.stats.remote_ops_served <- t.stats.remote_ops_served + 1;
  match Txn_wire.decode_range payload with
  | Error _ -> Txn_wire.status_reply St_unknown_tx
  | Ok (lo, hi) -> (
      let ctx = part_ctx t ~coord:meta.coord ~tx_seq:meta.tx_seq in
      Local_txn.set_span ctx (handler_span meta);
      match Local_txn.scan ctx ~lo ~hi with
      | Ok kvs -> Txn_wire.encode_scan_reply kvs
      | Error `Timeout -> Txn_wire.status_reply St_lock_timeout)

let finish_participant t ~coord ~tx_seq =
  (match Hashtbl.find_opt t.part_txs (coord, tx_seq) with
  | Some (ctx, _) ->
      Local_txn.finish ctx;
      Hashtbl.remove t.part_txs (coord, tx_seq)
  | None ->
      (* Recovered prepared txs hold locks under their txid without a ctx. *)
      Lock_table.txn_end t.locks ~owner:{ Types.coord; seq = tx_seq });
  Erpc.forget_tx t.rpc ~coord ~tx_seq

(* Prepare one slice of a transaction (Figure 2, step 5), for a participant
   and for the coordinator's own slice alike: validate or confirm the locks,
   then append the write set to the WAL. The prepare is on disk when this
   returns; nobody waits for it to become trusted here — the coordinator's
   commit point does that (DESIGN §7). *)
let prepare_slice t ltx ~tx =
  match Local_txn.prepare ltx with
  | Error (`Conflict | `Timeout) as e -> e
  | Ok () ->
      let writes = Local_txn.writes ltx in
      if writes <> [] then Engine.prepare t.engine ~tx ~writes;
      Ok ()

(* Every log this node appended beyond its trusted value. *)
let pending_targets t =
  match t.counter_client with
  | None -> []
  | Some cc -> Counter_client.pending_targets cc

let handle_prepare t (meta : Secure_msg.meta) _payload =
  let tx = (meta.coord, meta.tx_seq) in
  match Hashtbl.find_opt t.part_txs tx with
  | None ->
      (* A prepare that arrives after its abort: no commit or abort is left
         to drop this request's at-most-once entry, so drop it now. *)
      Erpc.forget_tx t.rpc ~coord:meta.coord ~tx_seq:meta.tx_seq;
      Txn_wire.status_reply St_unknown_tx
  | Some (ctx, _) -> (
      Local_txn.set_span ctx (handler_span meta);
      let vote = prepare_slice t ctx ~tx in
      if Local_txn.finished ctx then begin
        (* Handlers run in their own fibers, so an abort (or the stale-slice
           sweep) can end this slice while the prepare is parked on a lock,
           the commit lock or the WAL write. Undo what the prepare added
           after that cleanup and vote no: a YES would let the coordinator
           commit writes this node has already dropped. *)
        ignore (Engine.resolve t.engine ~tx ~commit:false);
        if not (Hashtbl.mem t.part_txs tx) then
          Lock_table.txn_end t.locks ~owner:(Local_txn.tx ctx);
        Txn_wire.status_reply St_unknown_tx
      end
      else
        match vote with
        | Error `Conflict -> Txn_wire.status_reply St_conflict
        | Error `Timeout -> Txn_wire.status_reply St_lock_timeout
        | Ok () ->
            (* The YES vote carries what the coordinator's commit point must
               make trusted: every log appended beyond its trusted value,
               the prepare's among them (none for a slice without writes),
               stamped with this enclave's incarnation. The read versions
               are for the coordinator's history. The vote is this node's
               echo1 of the targets in the coordinator's round. *)
            let targets =
              if Local_txn.writes ctx = [] then [] else pending_targets t
            in
            Rote.note_vote t.rote targets;
            Txn_wire.encode_prepare_ack
              {
                incarnation = Enclave.incarnation t.enclave;
                targets;
                reads = Local_txn.read_set ctx;
              })

let handle_commit t (meta : Secure_msg.meta) _payload =
  let installed = Engine.resolve t.engine ~tx:(meta.coord, meta.tx_seq) ~commit:true in
  finish_participant t ~coord:meta.coord ~tx_seq:meta.tx_seq;
  Txn_wire.encode_commit_ack (Option.value ~default:0 installed)

let handle_abort t (meta : Secure_msg.meta) _payload =
  ignore (Engine.resolve t.engine ~tx:(meta.coord, meta.tx_seq) ~commit:false);
  finish_participant t ~coord:meta.coord ~tx_seq:meta.tx_seq;
  Txn_wire.status_reply St_ok

let handle_query_decision t _meta payload =
  t.stats.decisions_queried <- t.stats.decisions_queried + 1;
  Txn_wire.encode_decision
    (if t.recovering then Recovering
     else
       match Txn_wire.decode_query payload with
       | Error _ -> Unknown
       | Ok tx_seq -> (
           match Hashtbl.find_opt t.decisions tx_seq with
           | Some commit -> Decided commit
           | None ->
               (* Distinguish "still deciding" from "no memory of it": an
                  in-doubt participant may only abort on the latter. A
                  transaction whose commit point may have passed keeps its
                  context, or its recovery entry, until its decision is
                  trusted. *)
               if Hashtbl.mem t.coord_txs tx_seq || Hashtbl.mem t.undecided tx_seq
               then Pending
               else Unknown))

(* A recovering coordinator asks whether this node still holds the prepare
   of one of its transactions (DESIGN §7, recovery). It must only hear
   [Prepared] for a prepare that is trusted, so make it so first. *)
let handle_query_prepared t (meta : Secure_msg.meta) payload =
  Txn_wire.encode_prepare_state
    (if t.recovering then Ask_later
     else
       match Txn_wire.decode_query payload with
       | Error _ -> Ask_later
       | Ok tx_seq ->
           if not (List.mem (meta.src, tx_seq) (Engine.prepared_txs t.engine))
           then Not_prepared
           else if
             List.for_all
               (fun (log, counter) ->
                 match t.counter_client with
                 | None -> true
                 | Some cc -> Counter_client.wait_stable cc ~log ~counter = Ok ())
               (pending_targets t)
           then Prepared
           else Ask_later)

(* --- coordinator side --------------------------------------------------- *)

let alloc_tx_seq t =
  t.next_tx_seq <- t.next_tx_seq + 1;
  t.next_tx_seq

let abort_remote t ctx =
  let remotes = Hashtbl.fold (fun node _ acc -> node :: acc) ctx.ct_remote [] in
  List.iter
    (fun node ->
      ignore
        (Erpc.call t.rpc ~dst:node ~kind:Txn_wire.k_abort ~coord:t.deps.node_id
           ~tx_seq:ctx.ct_seq ~op_id:1_000_000 ""))
    remotes

(* Count a coordinator transaction's outcome, as its client hears it, and
   tag the root span with it. Aborts are counted per (node, reason) so run
   --metrics attributes them instead of reporting a single opaque total. *)
let count_outcome t ctx outcome =
  match outcome with
  | `Committed path ->
      t.stats.committed <- t.stats.committed + 1;
      (match path with
      | `Distributed ->
          t.stats.distributed_committed <- t.stats.distributed_committed + 1
      | `Single_node ->
          t.stats.single_node_committed <- t.stats.single_node_committed + 1);
      Trace.add_args ctx.ct_span [ ("status", Trace.Str "committed") ]
  | `Aborted reason ->
      t.stats.aborted <- t.stats.aborted + 1;
      Metrics.incr (Printf.sprintf "n%d.abort.%s" t.deps.node_id reason);
      Trace.add_args ctx.ct_span
        [ ("status", Trace.Str "aborted"); ("reason", Trace.Str reason) ]

(* Drop a coordinator transaction's context and end its root span. *)
let drop_ctx t ctx =
  Local_txn.finish ctx.ct_local;
  Hashtbl.remove t.coord_txs ctx.ct_seq;
  Erpc.forget_tx t.rpc ~coord:t.deps.node_id ~tx_seq:ctx.ct_seq;
  Trace.end_span ctx.ct_span

(* The one place a coordinator transaction ends, but for a distributed
   commit, whose context outlives its client's ack ([finish_commit]). *)
let conclude t ctx outcome =
  count_outcome t ctx outcome;
  drop_ctx t ctx

let abort_tx t ctx ~reason =
  abort_remote t ctx;
  conclude t ctx (`Aborted reason)

let handle_client_begin t _meta payload =
  match Txn_wire.decode_begin payload with
  | Error _ -> Txn_wire.status_reply St_unauth
  | Ok client_id ->
      if not (Hashtbl.mem t.clients client_id) then
        Txn_wire.status_reply St_unauth
      else begin
        let seq = alloc_tx_seq t in
        let span =
          Trace.begin_span ~node:t.deps.node_id ~cat:"txn" "txn"
            ~args:
              [ ("tx_seq", Trace.Int seq); ("client", Trace.Int client_id) ]
        in
        let ctx =
          {
            ct_seq = seq;
            ct_client = client_id;
            ct_local = begin_local ~span t (local_txid t seq);
            ct_span = span;
            ct_next_op = 0;
            ct_remote = Hashtbl.create 4;
            ct_started = Sim.now t.deps.sim;
            ct_committing = false;
          }
        in
        Hashtbl.replace t.coord_txs seq ctx;
        Txn_wire.encode_begin_reply ~tx_seq:seq
      end

let remote_slice ctx node =
  match Hashtbl.find_opt ctx.ct_remote node with
  | Some s -> s
  | None ->
      let s = { r_written = []; r_reads = []; r_installed = 0 } in
      Hashtbl.replace ctx.ct_remote node s;
      s

(* Forward one op to the owning participant (Figure 2, steps 1-4). *)
let forward_op t ctx ~span ~owner op =
  ctx.ct_next_op <- ctx.ct_next_op + 1;
  (* Register the participant before the call, not on its reply: once the
     request is on the wire the participant may have begun its slice (which
     pins an engine snapshot and, under 2PL, holds locks) even if the op
     then times out or the reply is lost — the eventual abort fan-out must
     reach it rather than leaving the slice to the staleness sweeper. *)
  let slice = remote_slice ctx owner in
  match
    Erpc.call t.rpc ~dst:owner ~kind:Txn_wire.k_txn_op ~coord:t.deps.node_id
      ~tx_seq:ctx.ct_seq ~op_id:ctx.ct_next_op
      ~timeout_ns:t.deps.config.rpc_timeout_ns ~span (Txn_wire.encode_op op)
  with
  | Error (`Timeout | `Tampered) -> Error `Participant
  | Ok reply -> (
      match Txn_wire.decode_op_reply reply with
      | Ok (value, _seq) ->
          (* Read versions are collected once, from the prepare ACK's
             read_set; only the write-key routing is tracked per op. *)
          if Txn_wire.op_is_write op then
            slice.r_written <- Txn_wire.op_key op :: slice.r_written;
          Ok value
      | Error (Refused St_lock_timeout) -> Error `Lock_timeout
      | Error
          ( Refused (St_ok | St_unknown_tx | St_unauth | St_conflict)
          | Aborted _ | Malformed ) ->
          Error `Participant)

(* Client requests that continue a transaction carry the (client_id, tx_seq)
   header: decode the request and find the coordinator context it names. *)
let with_coord_tx t decoded ~unknown k =
  match decoded with
  | Error _ -> Txn_wire.status_reply St_unknown_tx
  | Ok ({ Txn_wire.tx_seq; _ }, body) -> (
      match Hashtbl.find_opt t.coord_txs tx_seq with
      | None -> Txn_wire.status_reply unknown
      | Some ctx -> k ctx body)

let handle_client_op t _meta payload =
  with_coord_tx t (Txn_wire.decode_client_op payload)
    ~unknown:St_unknown_tx (fun ctx op ->
      let owner = t.deps.route (Txn_wire.op_key op) in
      (* One "execute" span per client op: the 2PC execution phase is the
         union of these (Figure 2, steps 1-4). *)
      let espan =
        Trace.begin_span ~parent:ctx.ct_span ~node:t.deps.node_id ~cat:"txn"
          "execute"
          ~args:
            [ ("op", Trace.Int ctx.ct_next_op); ("owner", Trace.Int owner) ]
      in
      Local_txn.set_span ctx.ct_local espan;
      let result =
        if owner = t.deps.node_id then
          match exec_local ctx.ct_local op with
          | Ok (v, _) -> Ok v
          | Error `Timeout -> Error `Lock_timeout
        else forward_op t ctx ~span:espan ~owner op
      in
      Local_txn.set_span ctx.ct_local ctx.ct_span;
      match result with
      | Ok value ->
          Trace.end_span espan ~args:[ ("status", Trace.Str "ok") ];
          Txn_wire.encode_op_reply value 0
      | Error `Lock_timeout ->
          Trace.end_span espan ~args:[ ("status", Trace.Str "lock_timeout") ];
          (* Failed op: the coordinator aborts the whole transaction. *)
          abort_tx t ctx ~reason:"lock_timeout";
          Txn_wire.status_reply St_lock_timeout
      | Error `Participant ->
          Trace.end_span espan ~args:[ ("status", Trace.Str "participant") ];
          abort_tx t ctx ~reason:"participant_failed";
          Txn_wire.status_reply St_lock_timeout)

let handle_client_scan t _meta payload =
  with_coord_tx t (Txn_wire.decode_client_scan payload)
    ~unknown:St_unknown_tx (fun ctx (lo, hi) ->
      (* A range may span every shard: scan the local slice and fan the
         request out to all peers as participants of this transaction. *)
      let espan =
        Trace.begin_span ~parent:ctx.ct_span ~node:t.deps.node_id ~cat:"txn"
          "execute" ~args:[ ("scan", Trace.Int 1) ]
      in
      Local_txn.set_span ctx.ct_local espan;
      let remotes = List.filter (fun n -> n <> t.deps.node_id) t.deps.peers in
      let results = Hashtbl.create 8 in
      let failed = ref false in
      let latch = Latch.create (List.length remotes) in
      List.iter
        (fun node ->
          Sim.spawn t.deps.sim (fun () ->
              ctx.ct_next_op <- ctx.ct_next_op + 1;
              (* As in forward_op: the peer becomes a participant the moment
                 the scan request may reach it, so a failed or lost scan
                 still gets the abort fan-out. *)
              ignore (remote_slice ctx node);
              (match
                 Erpc.call t.rpc ~dst:node ~kind:Txn_wire.k_txn_scan
                   ~coord:t.deps.node_id ~tx_seq:ctx.ct_seq
                   ~op_id:ctx.ct_next_op
                   ~timeout_ns:t.deps.config.rpc_timeout_ns ~span:espan
                   (Txn_wire.encode_range ~lo ~hi)
               with
              | Error (`Timeout | `Tampered) -> failed := true
              | Ok reply -> (
                  (* Read versions reach the history via the participant's
                     prepare-ACK read set; only the data comes back here. *)
                  match Txn_wire.decode_scan_reply reply with
                  | Ok kvs -> Hashtbl.replace results node kvs
                  | Error (Refused _ | Aborted _ | Malformed) ->
                      failed := true));
              Latch.arrive latch))
        remotes;
      let local = Local_txn.scan ctx.ct_local ~lo ~hi in
      Latch.wait (Sim.sched t.deps.sim) latch;
      Local_txn.set_span ctx.ct_local ctx.ct_span;
      Trace.end_span espan;
      match (local, !failed) with
      | Error `Timeout, _ ->
          abort_tx t ctx ~reason:"lock_timeout";
          Txn_wire.status_reply St_lock_timeout
      | Ok _, true ->
          abort_tx t ctx ~reason:"participant_failed";
          Txn_wire.status_reply St_lock_timeout
      | Ok local_kvs, false ->
          let all =
            Hashtbl.fold (fun _ kvs acc -> kvs @ acc) results local_kvs
          in
          Txn_wire.encode_scan_reply (List.sort compare all))

(* Wait until Clog [counter] is trusted, retrying a failed wait while this
   incarnation lives. *)
let rec await_trusted t ?span counter =
  match Engine.clog_wait_stable t.engine ?span ~counter () with
  | Ok () -> true
  | Error `Stability_timeout ->
      Enclave.live t.enclave && await_trusted t ?span counter

(* The commit point (DESIGN §7): one ROTE round makes the Begin_2pc at
   [counter] trusted — and with it, by the prefix property, the local
   prepare appended before it — together with every YES voter's targets
   ([foreign]). The client may be acked once it has passed. *)
let commit_point t ~span ~counter ~foreign =
  match t.counter_client with
  | None -> true
  | Some cc ->
      let wspan =
        if Trace.enabled () then
          Trace.begin_span ~parent:span ~node:t.deps.node_id ~cat:"storage"
            "stab.wait"
            ~args:
              [ ("log", Trace.Str Engine.clog_log);
                ("counter", Trace.Int counter);
                ("voters", Trace.Int (List.length foreign)) ]
        else Trace.none
      in
      let t0 = Sim.now t.deps.sim in
      let r =
        Counter_client.wait_stable ~span:wspan ~foreign cc ~log:Engine.clog_log
          ~counter
      in
      Trace.end_span wspan
        ~args:
          [ ("status", Trace.Str (match r with Ok () -> "ok" | Error _ -> "timeout")) ];
      Metrics.observe "stab.wait_ns" (Sim.now t.deps.sim - t0);
      r = Ok ()

(* After the commit point, off the client's path: the participants'
   slices wait for the commit decision to become trusted, and only then is
   anyone told — the decision queries, the participants. A wait that fails
   is retried; if this incarnation dies first, recovery decides from the
   trusted Begin_2pc. *)
let finish_commit t ctx ~remotes ~installed_local =
  let self = t.deps.node_id in
  let cspan = Trace.begin_span ~parent:ctx.ct_span ~node:self ~cat:"txn" "commit" in
  let decision =
    Engine.clog_append t.engine ~span:cspan
      (Clog_record.Decision { tx_seq = ctx.ct_seq; commit = true })
  in
  if not (await_trusted t ~span:cspan decision) then begin
    Trace.end_span cspan ~args:[ ("status", Trace.Str "crashed") ];
    Trace.end_span ctx.ct_span
  end
  else begin
    Hashtbl.replace t.decisions ctx.ct_seq true;
    (* Step 8: commit everywhere. *)
    let latch = Latch.create (List.length remotes) in
    List.iter
      (fun node ->
        Sim.spawn t.deps.sim (fun () ->
            (match
               Erpc.call t.rpc ~dst:node ~kind:Txn_wire.k_commit ~coord:self
                 ~tx_seq:ctx.ct_seq ~op_id:999_999
                 ~timeout_ns:t.deps.config.rpc_timeout_ns ~span:cspan ""
             with
            | Ok reply -> (
                match Txn_wire.decode_commit_ack reply with
                | Ok seq -> (remote_slice ctx node).r_installed <- seq
                | Error (Refused _ | Aborted _ | Malformed) -> ())
            | Error (`Timeout | `Tampered) ->
                (* The decision is trusted: the participant will learn it
                   from the Clog-backed decision query. *)
                ());
            Latch.arrive latch))
      remotes;
    Latch.wait (Sim.sched t.deps.sim) latch;
    ignore
      (Engine.clog_append t.engine ~span:cspan
         (Clog_record.Finished { tx_seq = ctx.ct_seq }));
    Trace.end_span cspan;
    record_history t ctx ~installed_local_seq:installed_local;
    drop_ctx t ctx
  end

(* 2PC commit (Figure 2, steps 5-8). *)
let commit_distributed t ctx =
  let self = t.deps.node_id in
  let remotes = Hashtbl.fold (fun node _ acc -> node :: acc) ctx.ct_remote [] in
  (* Phase span: prepare fan-out + Clog begin + the commit point. *)
  let pspan =
    Trace.begin_span ~parent:ctx.ct_span ~node:self ~cat:"txn" "prepare"
      ~args:[ ("participants", Trace.Int (List.length remotes)) ]
  in
  Local_txn.set_span ctx.ct_local pspan;
  (* Prepare phase: all participants and the local slice, in parallel.
     [conflict] remembers whether any FAIL vote was an OCC validation
     conflict, so the abort is attributed to validation rather than to a
     failed participant. [voters] collects the YES voters' entries for the
     commit point. *)
  let results = Hashtbl.create 8 in
  let conflict = ref false in
  let voters = ref [] in
  let latch = Latch.create (List.length remotes + 1) in
  List.iter
    (fun node ->
      Sim.spawn t.deps.sim (fun () ->
          let ok =
            match
              Erpc.call t.rpc ~dst:node ~kind:Txn_wire.k_prepare ~coord:self
                ~tx_seq:ctx.ct_seq ~op_id:999_998
                ~timeout_ns:t.deps.config.rpc_timeout_ns ~span:pspan ""
            with
            | Error (`Timeout | `Tampered) -> false
            | Ok reply -> (
                match Txn_wire.decode_prepare_ack reply with
                | Ok { incarnation; targets; reads } ->
                    (* Pick up the participant's read versions for history. *)
                    let slice = remote_slice ctx node in
                    slice.r_reads <- reads @ slice.r_reads;
                    if targets <> [] then
                      voters := { Rote.owner = node; incarnation; targets } :: !voters;
                    true
                | Error (Refused St_conflict) ->
                    conflict := true;
                    false
                | Error
                    ( Refused
                        (St_ok | St_lock_timeout | St_unknown_tx | St_unauth)
                    | Aborted _ | Malformed ) ->
                    false)
          in
          Hashtbl.replace results node ok;
          Latch.arrive latch))
    remotes;
  Sim.spawn t.deps.sim (fun () ->
      let ok =
        match prepare_slice t ctx.ct_local ~tx:(self, ctx.ct_seq) with
        | Ok () -> true
        | Error `Conflict ->
            conflict := true;
            false
        | Error `Timeout -> false
      in
      Hashtbl.replace results self ok;
      Latch.arrive latch);
  Latch.wait (Sim.sched t.deps.sim) latch;
  let all_ok = Hashtbl.fold (fun _ ok acc -> ok && acc) results true in
  (* Every slice voted YES: log the 2PC start — so a Begin_2pc in the Clog
     means every slice voted YES — listing the participants that hold
     writes, and pass the commit point. *)
  let begun = all_ok in
  let committed =
    begun
    &&
    let writers =
      List.filter (fun node -> (remote_slice ctx node).r_written <> []) remotes
    in
    let counter =
      Engine.clog_append t.engine ~span:pspan
        (Clog_record.Begin_2pc { tx_seq = ctx.ct_seq; participants = writers })
    in
    commit_point t ~span:pspan ~counter
      ~foreign:(List.sort (fun a b -> compare a.Rote.owner b.Rote.owner) !voters)
  in
  Local_txn.set_span ctx.ct_local ctx.ct_span;
  Trace.end_span pspan
    ~args:[ ("decision", Trace.Str (if committed then "commit" else "abort")) ];
  if committed then begin
    (* The outcome is fixed, so the local slice installs and releases its
       locks before the client hears of the commit: recovery never asks
       this node's own slice (DESIGN §7), and the client's next transaction
       must not find this one's locks here. *)
    let installed_local =
      Engine.resolve t.engine ~tx:(self, ctx.ct_seq) ~commit:true
    in
    Local_txn.finish ctx.ct_local;
    count_outcome t ctx (`Committed `Distributed);
    Sim.spawn t.deps.sim (fun () -> finish_commit t ctx ~remotes ~installed_local);
    Ok ()
  end
  else begin
    (* A transaction that logged its Begin_2pc may be committed by
       recovery unless its abort is trusted: trust the abort before anyone
       hears of it. If that wait fails the outcome is still open, which is
       what the client's Stabilization_unavailable says, and a fiber keeps
       waiting. Without a Begin_2pc nothing can commit the transaction, so
       it needs no Clog record at all. *)
    if begun then begin
      let c =
        Engine.clog_append t.engine
          (Clog_record.Decision { tx_seq = ctx.ct_seq; commit = false })
      in
      let record () = Hashtbl.replace t.decisions ctx.ct_seq false in
      match Engine.clog_wait_stable t.engine ~counter:c () with
      | Ok () -> record ()
      | Error `Stability_timeout ->
          Sim.spawn t.deps.sim (fun () -> if await_trusted t c then record ())
    end;
    let reason, client_reason =
      if begun then ("stabilization_unavailable", Types.Stabilization_unavailable)
      else if !conflict then ("validation_conflict", Types.Validation_failed)
      else ("participant_failed", Types.Participant_failed)
    in
    abort_remote t ctx;
    ignore (Engine.resolve t.engine ~tx:(self, ctx.ct_seq) ~commit:false);
    if begun then
      ignore
        (Engine.clog_append t.engine
           (Clog_record.Finished { tx_seq = ctx.ct_seq }));
    conclude t ctx (`Aborted reason);
    Error client_reason
  end

let commit_single_node t ctx =
  match Local_txn.prepare ctx.ct_local with
  | Error `Conflict ->
      abort_tx t ctx ~reason:"validation_conflict";
      Error Types.Validation_failed
  | Error `Timeout ->
      abort_tx t ctx ~reason:"lock_timeout";
      Error Types.Lock_timeout
  | Ok () -> (
      let writes = Local_txn.writes ctx.ct_local in
      let cspan =
        Trace.begin_span ~parent:ctx.ct_span ~node:t.deps.node_id ~cat:"txn"
          "commit"
          ~args:[ ("writes", Trace.Int (List.length writes)) ]
      in
      let end_commit status =
        Trace.end_span cspan ~args:[ ("status", Trace.Str status) ]
      in
      match
        if writes = [] then None
        else Some (Engine.commit t.engine ~span:cspan ~writes ())
      with
      | exception Engine.Stability_timeout ->
          (* The writes are applied and locally durable, but the WAL entry is
             not rollback-protected: a crash now would drop it from the
             trusted prefix. Refuse the ack — the client sees an abort, and
             an unacked transaction has no durability obligation. *)
          end_commit "stabilization_unavailable";
          conclude t ctx (`Aborted "stabilization_unavailable");
          Error Types.Stabilization_unavailable
      | seq ->
          end_commit "ok";
          (match seq with
          | Some s -> Local_txn.set_installed_seq ctx.ct_local s
          | None -> ());
          record_history t ctx ~installed_local_seq:seq;
          conclude t ctx (`Committed `Single_node);
          Ok ())

let handle_client_commit t _meta payload =
  with_coord_tx t (Txn_wire.decode_client_tx payload)
    ~unknown:St_unknown_tx (fun ctx () ->
      ctx.ct_committing <- true;
      Txn_wire.encode_commit_reply
        (if Hashtbl.length ctx.ct_remote = 0 then commit_single_node t ctx
         else commit_distributed t ctx))

let handle_client_abort t _meta payload =
  with_coord_tx t (Txn_wire.decode_client_tx payload)
    ~unknown:St_ok (* already gone *) (fun ctx () ->
      (* A transaction past its commit point stays until its decision is
         trusted; no rollback can undo it then. *)
      if not ctx.ct_committing then abort_tx t ctx ~reason:"client_abort";
      Txn_wire.status_reply St_ok)

(* Zero-RPC read-only fast path (§V / ROADMAP item 3): a client-declared
   read-only transaction arrives as one RPC at the node owning its keys and
   is answered entirely from a retained MVCC snapshot — zero lock
   acquisitions, zero 2PC rounds, zero stabilization waits. Retaining the
   snapshot pins the GC watermark so compaction cannot drop the versions
   this read set is walking; the release is exception-safe because a leaked
   retention would pin the watermark forever (TreatySan checks at quiesce).
   Reads at a single node's committed snapshot are trivially serializable —
   the transaction observes exactly the prefix at [snapshot] — which is why
   the fast path only serves keys this node owns. *)
let handle_client_ro t _meta payload =
  match Txn_wire.decode_client_ro payload with
  | Error _ -> Txn_wire.status_reply St_unauth
  | Ok (client_id, keys) ->
      if not (Hashtbl.mem t.clients client_id) then
        Txn_wire.status_reply St_unauth
      else if
        not (List.for_all (fun k -> t.deps.route k = t.deps.node_id) keys)
      then
        (* A misrouted key would silently read the wrong shard's (absent)
           version; refuse rather than answer wrongly. *)
        Txn_wire.status_reply St_unknown_tx
      else begin
        let seq = alloc_tx_seq t in
        let span =
          Trace.begin_span ~node:t.deps.node_id ~cat:"txn" "txn.ro"
            ~args:
              [ ("tx_seq", Trace.Int seq);
                ("client", Trace.Int client_id);
                ("keys", Trace.Int (List.length keys)) ]
        in
        (* Stability guard. A requested key that is write-locked, or sits in
           a prepared-but-unresolved 2PC write set, has an install in
           flight — and the writing transaction may already be serialized
           before writes this snapshot WOULD show (only its resolve here is
           late). Reading around it could return a non-serializable prefix
           ("causal reverse"). Spin lock-free until the read set is quiet:
           writers install in bounded time, so under read-mostly load this
           never blocks; if the keys stay hot past the lock-timeout budget
           the transaction aborts exactly as a 2PL reader would. *)
        let unstable () =
          List.exists
            (fun k ->
              Lock_table.write_locked t.locks ~key:k
              || Engine.key_prepared t.engine ~key:k)
            keys
        in
        if Lock_table.await_clear t.locks unstable = Error `Timeout then begin
          Trace.end_span span ~args:[ ("status", Trace.Str "unstable") ];
          Txn_wire.status_reply St_lock_timeout
        end
        else begin
        let snapshot = Engine.snapshot t.engine in
        Engine.retain_snapshot t.engine snapshot;
        let results =
          Fun.protect
            ~finally:(fun () -> Engine.release_snapshot t.engine snapshot)
            (fun () ->
              List.map
                (fun key ->
                  match Engine.get ~span t.engine ~key ~snapshot with
                  | Treaty_storage.Memtable.Found (s, v) -> (key, s, Some v)
                  | Treaty_storage.Memtable.Deleted s -> (key, s, None)
                  | Treaty_storage.Memtable.Not_found -> (key, 0, None))
                keys)
        in
        (match t.deps.history with
        | None -> ()
        | Some h ->
            let self = t.deps.node_id in
            Serializability.record_commit h ~tx:(local_txid t seq)
              ~reads:(List.map (fun (k, s, _) -> (namespaced self k, s)) results)
              ~writes:[]);
        t.stats.committed <- t.stats.committed + 1;
        t.stats.read_only_committed <- t.stats.read_only_committed + 1;
        Metrics.incr (Printf.sprintf "n%d.ro.txns" t.deps.node_id);
        Metrics.incr
          ~by:(List.length keys)
          (Printf.sprintf "n%d.ro.keys" t.deps.node_id);
        Trace.end_span span ~args:[ ("status", Trace.Str "committed") ];
        Txn_wire.encode_ro_reply (List.map (fun (_, _, v) -> v) results)
        end
      end

let authenticate_client t ~client_id ~token =
  let ok = Keys.verify_client_token t.deps.master ~client_id ~token in
  if ok then Hashtbl.replace t.clients client_id ();
  ok

let handle_client_register t _meta payload =
  match Txn_wire.decode_register payload with
  | Ok (client_id, token) when authenticate_client t ~client_id ~token ->
      Txn_wire.status_reply St_ok
  | Ok _ | Error _ -> Txn_wire.status_reply St_unauth

(* --- assembly ----------------------------------------------------------- *)

let register_handlers t =
  Erpc.register t.rpc ~kind:Txn_wire.k_txn_op (handle_txn_op t);
  Erpc.register t.rpc ~kind:Txn_wire.k_prepare (handle_prepare t);
  Erpc.register t.rpc ~kind:Txn_wire.k_commit (handle_commit t);
  Erpc.register t.rpc ~kind:Txn_wire.k_abort (handle_abort t);
  Erpc.register t.rpc ~kind:Txn_wire.k_query_decision (handle_query_decision t);
  Erpc.register t.rpc ~kind:Txn_wire.k_query_prepared (handle_query_prepared t);
  Erpc.register t.rpc ~kind:Txn_wire.k_client_register (handle_client_register t);
  Erpc.register t.rpc ~kind:Txn_wire.k_client_begin (handle_client_begin t);
  Erpc.register t.rpc ~kind:Txn_wire.k_client_op (handle_client_op t);
  Erpc.register t.rpc ~kind:Txn_wire.k_txn_scan (handle_txn_scan t);
  Erpc.register t.rpc ~kind:Txn_wire.k_client_scan (handle_client_scan t);
  Erpc.register t.rpc ~kind:Txn_wire.k_client_commit (handle_client_commit t);
  Erpc.register t.rpc ~kind:Txn_wire.k_client_abort (handle_client_abort t);
  Erpc.register t.rpc ~kind:Txn_wire.k_client_ro (handle_client_ro t)

(* Query a prepared transaction's coordinator and resolve it (cooperative
   termination): "c"/"a" are authoritative; "u" means the coordinator has no
   memory of the transaction, which — because the decision is stabilized
   before any commit is sent — can only happen if no commit was ever issued,
   so aborting is safe. "p"/"r" mean ask again later. *)
let resolve_in_doubt t ~coord ~tx_seq =
  match
    Erpc.call t.rpc ~dst:coord ~kind:Txn_wire.k_query_decision
      ~timeout_ns:t.deps.config.decision_query_timeout_ns
      (Txn_wire.encode_query ~tx_seq)
  with
  | Ok _ when coord = t.deps.node_id && Hashtbl.mem t.coord_txs tx_seq ->
      (* This node's own prepared slice of a transaction it is still
         coordinating: the commit phase resolves it, installs, and only then
         releases the locks. Resolving it here would release them before the
         install, and a waiting writer would read the old version. *)
      ()
  | Ok reply -> (
      match Txn_wire.decode_decision reply with
      | Ok (Decided commit) ->
          ignore (Engine.resolve t.engine ~tx:(coord, tx_seq) ~commit);
          finish_participant t ~coord ~tx_seq
      | Ok Unknown ->
          ignore (Engine.resolve t.engine ~tx:(coord, tx_seq) ~commit:false);
          finish_participant t ~coord ~tx_seq
      | Ok (Pending | Recovering) | Error _ -> ())
  | Error (`Timeout | `Tampered) -> ()

(* Background hygiene: abort participant contexts whose coordinator went
   silent before prepare (their locks must not block the key space), drive
   in-doubt *prepared* transactions to resolution by querying their
   coordinators, abort coordinator contexts whose client vanished, and age
   out non-transactional at-most-once cache entries. *)
let start_sweeper t =
  let cfg = t.deps.config in
  Sim.spawn t.deps.sim (fun () ->
      while Enclave.live t.enclave do
        Sim.sleep t.deps.sim cfg.sweep_interval_ns;
        if Enclave.live t.enclave then begin
          Erpc.expire_dedup t.rpc;
          let now = Sim.now t.deps.sim in
          let prepared = Engine.prepared_txs t.engine in
          let stale, in_doubt =
            Hashtbl.fold
              (fun key (_, created) (stale, in_doubt) ->
                let is_prepared = List.mem key prepared in
                if is_prepared && now - created > cfg.part_prepared_resolve_ns
                then (stale, key :: in_doubt)
                else if (not is_prepared) && now - created > cfg.part_stale_abort_ns
                then (key :: stale, in_doubt)
                else (stale, in_doubt))
              t.part_txs ([], [])
          in
          (* Prepared txs recovered without a live context age from recovery
             time; resolve them too. *)
          let orphaned =
            List.filter (fun key -> not (Hashtbl.mem t.part_txs key)) prepared
          in
          List.iter
            (fun (coord, tx_seq) -> finish_participant t ~coord ~tx_seq)
            stale;
          List.iter
            (fun (coord, tx_seq) ->
              Sim.spawn t.deps.sim (fun () ->
                  if Enclave.live t.enclave then resolve_in_doubt t ~coord ~tx_seq))
            (in_doubt @ orphaned);
          (* Coordinator contexts abandoned by their client (crashed client,
             lost rollback, begin whose ack never arrived) hold locks and a
             pinned snapshot forever; abort them once idle past the
             threshold. A commit in flight is never aborted from here. *)
          let abandoned =
            Hashtbl.fold
              (fun _ ctx acc ->
                if
                  (not ctx.ct_committing)
                  && now - ctx.ct_started > cfg.coord_tx_abandon_ns
                then ctx :: acc
                else acc)
              t.coord_txs []
          in
          List.iter
            (fun ctx ->
              Sim.spawn t.deps.sim (fun () ->
                  if
                    Enclave.live t.enclave && (not ctx.ct_committing)
                    && Hashtbl.mem t.coord_txs ctx.ct_seq
                  then abort_tx t ctx ~reason:"abandoned"))
            abandoned
        end
      done)

let build_parts (deps : deps) device =
  let cfg = deps.config in
  let ssd = Ssd.attach device in
  let enclave =
    Enclave.create ~incarnation:deps.incarnation deps.sim ~mode:cfg.profile.tee
      ~cost:cfg.cost
      ~cores:cfg.cores_per_node ~node_id:deps.node_id ~code_identity:"treaty-node-v1"
  in
  Enclave.install_secrets enclave deps.master;
  let pool = Mempool.create ~sanitize:cfg.profile.sanitize enclave in
  let security =
    if cfg.profile.encryption then
      Secure_msg.Secure (Keys.network_key deps.master)
    else Secure_msg.Plain
  in
  let rpc_config =
    {
      (Erpc.default_config ~security) with
      Erpc.transport = cfg.transport;
      params = cfg.transport_params;
      timeout_ns = cfg.rpc_timeout_ns;
      dedup_ttl_ns = cfg.dedup_ttl_ns;
      msgbuf_region = (if cfg.naive_rpc_port then Mempool.Enclave else Mempool.Host);
      rdtsc_ocalls = cfg.naive_rpc_port;
    }
  in
  let rpc =
    Erpc.create deps.sim ~net:deps.net ~enclave ~pool ~config:rpc_config
      ~node_id:deps.node_id ()
  in
  let sec =
    Sec.create ~enclave ~auth:cfg.profile.authentication
      ~enc:
        (if cfg.profile.encryption then
           Some (Keys.storage_key deps.master ~node_id:deps.node_id)
         else None)
      ()
  in
  let locks =
    Lock_table.create ~sanitize:cfg.profile.sanitize ~node:deps.node_id
      deps.sim ~enclave ~shards:cfg.lock_shards
      ~timeout_ns:cfg.lock_timeout_ns
  in
  (* The replica's sealed counter table lives on the node's own SSD so a
     crashed node resumes from its latest confirmed counters even when its
     protection-group peers are down too (overlapping crashes). A crash
     while a seal is written loses at most the older of the two slots
     ([Seal_slots]); restore merges every record that unseals (values only
     grow). *)
  let seal_slots, sealed = Seal_slots.open_ ssd ~enclave "rote.seal" in
  let rote =
    Rote.create_replica rpc
      ~group:(Rote.protection_group ~self:deps.node_id ~members:deps.peers)
      ~members:deps.peers ~persist:(Seal_slots.write seal_slots)
      ~restore:(fun () -> sealed) ()
  in
  let counter_client =
    if cfg.profile.stabilization then
      Some (Counter_client.create rote ~owner:deps.node_id)
    else None
  in
  (enclave, pool, rpc, sec, locks, rote, counter_client, ssd)

let stability_of counter_client =
  match counter_client with
  | None -> Engine.noop_stability
  | Some cc ->
      {
        Engine.submit =
          (fun ~span ~log ~counter -> Counter_client.submit ~span cc ~log ~counter);
        note = (fun ~log ~counter -> Counter_client.note cc ~log ~counter);
        wait_stable =
          (fun ~span ~log ~counter ->
            Counter_client.wait_stable ~span cc ~log ~counter);
      }

let assemble deps ~ssd (enclave, pool, rpc, sec, locks, rote, counter_client, io)
    engine =
  let t =
    {
      deps;
      enclave;
      pool;
      rpc;
      ssd;
      io;
      sec;
      engine;
      locks;
      rote;
      counter_client;
      next_tx_seq = 0;
      coord_txs = Hashtbl.create 64;
      part_txs = Hashtbl.create 64;
      decisions = Hashtbl.create 256;
      undecided = Hashtbl.create 8;
      clients = Hashtbl.create 16;
      recovering = false;
      stats = fresh_stats ();
    }
  in
  register_handlers t;
  start_sweeper t;
  t

let create deps =
  let ssd = Ssd.create deps.sim deps.config.cost in
  let ((_, _, _, sec, _, _, counter_client, io) as parts) = build_parts deps ssd in
  let engine =
    Engine.create ~node:deps.node_id io sec deps.config.engine
      (stability_of counter_client)
  in
  assemble deps ~ssd parts engine

exception Recovery_unavailable of string

(* Tell a recovered transaction's participants its trusted decision and
   log that it is finished. *)
let send_decision t ~tx_seq ~participants ~commit =
  List.iter
    (fun node ->
      ignore
        (Erpc.call t.rpc ~dst:node
           ~kind:(if commit then Txn_wire.k_commit else Txn_wire.k_abort)
           ~coord:t.deps.node_id ~tx_seq ~op_id:999_997 ""))
    participants;
  ignore (Engine.clog_append t.engine (Clog_record.Finished { tx_seq }))

(* Decide a transaction recovery found with a trusted Begin_2pc and no
   trusted decision. It commits only if every participant with writes
   still holds its prepare, made trusted before it answers; it aborts if
   one holds none; otherwise it asks again a sweep interval later. The
   local slice needs no question: a trusted Begin_2pc implies its trusted
   prepare, which replay restored. The decision is trusted before it is
   recorded for queries or sent. *)
let rec decide_undecided t ~tx_seq ~participants =
  let ask node =
    match
      Erpc.call t.rpc ~dst:node ~kind:Txn_wire.k_query_prepared
        ~timeout_ns:t.deps.config.decision_query_timeout_ns
        (Txn_wire.encode_query ~tx_seq)
    with
    | Ok reply -> (
        match Txn_wire.decode_prepare_state reply with
        | Ok state -> state
        | Error _ -> Txn_wire.Ask_later)
    | Error (`Timeout | `Tampered) -> Txn_wire.Ask_later
  in
  let answers = List.map ask participants in
  let decide commit =
    let c =
      Engine.clog_append t.engine (Clog_record.Decision { tx_seq; commit })
    in
    if await_trusted t c then begin
      Hashtbl.replace t.decisions tx_seq commit;
      Hashtbl.remove t.undecided tx_seq;
      let self = t.deps.node_id in
      ignore (Engine.resolve t.engine ~tx:(self, tx_seq) ~commit);
      finish_participant t ~coord:self ~tx_seq;
      send_decision t ~tx_seq ~participants ~commit
    end
  in
  if Enclave.live t.enclave then
    if List.for_all (( = ) Txn_wire.Prepared) answers then decide true
    else if List.mem Txn_wire.Not_prepared answers then decide false
    else begin
      Sim.sleep t.deps.sim t.deps.config.sweep_interval_ns;
      decide_undecided t ~tx_seq ~participants
    end

let recover_with deps ~ssd =
  let ((_, _, _, sec, locks, _, counter_client, io) as parts) = build_parts deps ssd in
  let trusted log =
    match counter_client with
    | None -> None
    | Some cc -> (
        match Counter_client.trusted_for_recovery cc ~log with
        | Ok v -> Some v
        | Error `No_quorum ->
            raise (Recovery_unavailable "trusted counter group unreachable"))
  in
  match
    Engine.recover ~node:deps.node_id io sec deps.config.engine
      (stability_of counter_client) ~trusted
  with
  | exception Recovery_unavailable m -> Error m
  | Error m -> Error m
  | Ok (eng, info) ->
      (* Re-lock prepared write sets before [assemble] registers the 2PC
         handlers: an abort run while an acquire yields would leak the rest. *)
      List.iter
        (fun ((coord, tx_seq), writes) ->
          let owner = { Types.coord; seq = tx_seq } in
          List.iter
            (fun (key, _) -> ignore (Lock_table.acquire locks ~owner ~key Lock_table.Write))
            writes)
        info.Engine.prepared;
      let t = assemble deps ~ssd parts eng in
      t.recovering <- true;
      (* Coordinator-side recovery from the Clog: finish decided txs, and
         decide undecided ones from their participants (DESIGN §7). *)
      let begun = Hashtbl.create 16 in
      let decided = Hashtbl.create 16 in
      let finished = Hashtbl.create 16 in
      let max_seq = ref 0 in
      List.iter
        (fun (_, record) ->
          match record with
          | Clog_record.Begin_2pc { tx_seq; participants } ->
              max_seq := max !max_seq tx_seq;
              Hashtbl.replace begun tx_seq participants
          | Clog_record.Decision { tx_seq; commit } ->
              max_seq := max !max_seq tx_seq;
              Hashtbl.replace decided tx_seq commit
          | Clog_record.Finished { tx_seq } -> Hashtbl.replace finished tx_seq ()
          | Clog_record.Batch _ ->
              (* Engine.recover flattens group-committed windows. *)
              ())
        info.Engine.clog_records;
      (* New incarnation: leave a wide gap so txids never collide with stale
         dedup state on peers. *)
      t.next_tx_seq <- !max_seq + 1_000_000;
      Hashtbl.iter (fun seq commit -> Hashtbl.replace t.decisions seq commit) decided;
      let unfinished =
        Hashtbl.fold
          (fun seq participants acc ->
            if Hashtbl.mem finished seq then acc else (seq, participants) :: acc)
          begun []
      in
      List.iter
        (fun (seq, participants) ->
          match Hashtbl.find_opt decided seq with
          | Some commit ->
              Sim.spawn deps.sim (fun () ->
                  send_decision t ~tx_seq:seq ~participants ~commit)
          | None ->
              (* Trusted Begin_2pc, no trusted decision: the commit point
                 may have passed and the client may hold an ack. Ask the
                 participants, off the recovery path. *)
              Hashtbl.replace t.undecided seq ();
              Sim.spawn deps.sim (fun () ->
                  decide_undecided t ~tx_seq:seq ~participants))
        unfinished;
      (* Participant-side recovery: resolve re-locked prepares with their
         coordinators, as the sweeper does. One query now; a prepare it
         leaves in doubt is orphaned (no participant context) and the
         sweeper re-queries it every tick. *)
      List.iter
        (fun ((coord, tx_seq), _) ->
          Sim.spawn deps.sim (fun () -> resolve_in_doubt t ~coord ~tx_seq))
        info.Engine.prepared;
      t.recovering <- false;
      Ok t

let crash t =
  Enclave.halt t.enclave;
  (* Fibers of this incarnation can still be running (a commit's superseding
     abort, say, once its stability retries run out); none of their writes
     may land after the next incarnation has replayed the logs. *)
  Ssd.detach t.io;
  t.ssd

let stop t = Enclave.halt t.enclave
