module Engine = Treaty_storage.Engine
module Memtable = Treaty_storage.Memtable
module Op = Treaty_storage.Op
module Enclave = Treaty_tee.Enclave
module Trace = Treaty_obs.Trace
module Sim = Treaty_sim.Sim

type t = {
  engine : Engine.t;
  locks : Lock_table.t;
  isolation : Types.isolation;
  txid : Types.txid;
  mutable span : Trace.span;
      (* Parents lock.wait spans. Mutable because a participant slice spans
         many RPC handlers: each op re-points it at the live handler span
         (the first op's span is closed by the time a later op blocks). *)
  snapshot : int;
  prepared_at_begin : (string * Op.t) list list;
      (* OCC: the write sets prepared on this node when the slice began.
         One that resolves later installs above [snapshot] a write whose
         client may already hold an ack. *)
  mutable write_list : (string * Op.t) list;  (* newest first *)
  write_index : (string, Op.t) Hashtbl.t;
  mutable reads : (string * int) list;
  read_index : (string, int) Hashtbl.t;
      (* Mirrors [reads] for O(1) dedup: a read-read of the same key must
         not record (or OCC-lock, or validate) the key twice. The first
         observation wins — under 2PL the read lock held since then pins
         the version, under OCC both reads are at the begin snapshot, so a
         repeat observation can never legitimately differ. *)
  mutable buffer_bytes : int;
  mutable finished : bool;
}

let begin_ ?(span = Trace.none) ~engine ~locks ~isolation ~tx () =
  Lock_table.txn_begin locks ~owner:tx;
  let snapshot = Engine.snapshot engine in
  Engine.retain_snapshot engine snapshot;
  let prepared_at_begin =
    match isolation with
    | Types.Optimistic -> Engine.prepared_write_sets engine
    | Types.Pessimistic -> []
  in
  {
    engine;
    locks;
    isolation;
    txid = tx;
    span;
    snapshot;
    prepared_at_begin;
    write_list = [];
    write_index = Hashtbl.create 8;
    reads = [];
    read_index = Hashtbl.create 8;
    buffer_bytes = 0;
    finished = false;
  }

let tx t = t.txid
let set_span t span = t.span <- span

let lock t key mode =
  match t.isolation with
  | Types.Pessimistic -> (
      match Lock_table.acquire ~span:t.span t.locks ~owner:t.txid ~key mode with
      | Ok () -> Ok ()
      | Error `Timeout -> Error `Timeout)
  | Types.Optimistic -> Ok ()

let buffer_write t key op =
  (* Tx buffers live in enclave memory (§VII-D). *)
  let bytes = String.length key + Op.size op + 32 in
  t.buffer_bytes <- t.buffer_bytes + bytes;
  Enclave.alloc_enclave (Treaty_storage.Sec.enclave (Engine.sec t.engine)) bytes;
  (match Hashtbl.find_opt t.write_index key with
  | Some _ -> t.write_list <- List.filter (fun (k, _) -> k <> key) t.write_list
  | None -> ());
  Hashtbl.replace t.write_index key op;
  t.write_list <- (key, op) :: t.write_list

let record_read t key seq =
  if not (Hashtbl.mem t.read_index key) then begin
    Hashtbl.add t.read_index key seq;
    t.reads <- (key, seq) :: t.reads
  end

(* The snapshot for a read of the keys [touched] accepts, once its lock is
   granted or its guard passed. Under 2PL the lock may have been waited on:
   read the freshest committed version at grant time, not the begin-time
   snapshot — reading stale data under a lock breaks serializability. OCC
   reads at its snapshot and validates instead, unless an install it must
   see may be newer than the snapshot: its guard waited for one, or a write
   set on the keys was prepared when the slice began. *)
let read_snapshot t ~waited touched =
  match t.isolation with
  | Types.Pessimistic -> Engine.snapshot t.engine
  | Types.Optimistic ->
      if
        waited
        || List.exists (List.exists (fun (k, _) -> touched k)) t.prepared_at_begin
      then Engine.snapshot t.engine
      else t.snapshot

(* A distributed transaction holds its prepared writes on this node until
   its commit reaches it, after its client's ack (DESIGN §7). Under 2PL
   a prepared key is write-locked, so the read lock waits for it; OCC
   takes no lock and waits, as the read-only fast path does, until no
   prepared write set touches the key. [Ok true]: it waited, so the
   versions it must see are newer than this slice's snapshot. *)
let guard t prepared =
  match t.isolation with
  | Types.Pessimistic -> Ok false
  | Types.Optimistic -> Lock_table.await_clear t.locks prepared

let get_with_seq ?(mode = Lock_table.Read) t key =
  match Hashtbl.find_opt t.write_index key with
  | Some (Op.Put v) -> Ok (Some v, 0) (* read-my-own-writes *)
  | Some Op.Delete -> Ok (None, 0)
  | None -> (
      match lock t key mode with
      | Error `Timeout -> Error `Timeout
      | Ok () -> (
          match guard t (fun () -> Engine.key_prepared t.engine ~key) with
          | Error `Timeout -> Error `Timeout
          | Ok waited ->
              let lookup =
                Engine.get ~span:t.span t.engine ~key
                  ~snapshot:(read_snapshot t ~waited (String.equal key))
              in
              let seq_seen, value =
                match lookup with
                | Memtable.Found (seq, v) -> (seq, Some v)
                | Memtable.Deleted seq -> (seq, None)
                | Memtable.Not_found -> (0, None)
              in
              record_read t key seq_seen;
              Ok (value, seq_seen)))

let get t key =
  match get_with_seq t key with Ok (v, _) -> Ok v | Error `Timeout -> Error `Timeout

let scan t ~lo ~hi =
  (* A prepared insert holds a write lock on a key discovery cannot see
     yet, so both modes wait for the range's prepared writes first. *)
  match Lock_table.await_clear t.locks (fun () -> Engine.range_prepared t.engine ~lo ~hi) with
  | Error `Timeout -> Error `Timeout
  | Ok waited -> (
      let in_range k = k >= lo && k <= hi in
      (* Discover the keys, then lock them, then re-read under the locks: a
         writer may commit between discovery and lock grant, and 2PL
         semantics require the returned values to be the locked (current)
         ones. *)
      let discovered =
        Engine.scan ~span:t.span t.engine ~lo ~hi
          ~snapshot:(read_snapshot t ~waited in_range)
      in
      let rec lock_all = function
        | [] -> Ok ()
        | (key, _) :: rest -> (
            match lock t key Lock_table.Read with
            | Ok () -> lock_all rest
            | Error `Timeout -> Error `Timeout)
      in
      match lock_all discovered with
      | Error `Timeout -> Error `Timeout
      | Ok () ->
          let read_snapshot = read_snapshot t ~waited in_range in
          let committed =
            List.filter_map
              (fun (key, _) ->
                match Engine.get ~span:t.span t.engine ~key ~snapshot:read_snapshot with
                | Memtable.Found (seq, v) ->
                    record_read t key seq;
                    Some (key, v)
                | Memtable.Deleted seq ->
                    record_read t key seq;
                    None
                | Memtable.Not_found ->
                    record_read t key 0;
                    None)
              discovered
          in
          (* Overlay the transaction's own writes in the range. *)
          let mine =
            Hashtbl.fold
              (fun k op acc -> if k >= lo && k <= hi then (k, op) :: acc else acc)
              t.write_index []
          in
          let result =
            List.filter (fun (k, _) -> not (List.mem_assoc k mine)) committed
            @ List.filter_map
                (fun (k, op) ->
                  match op with Op.Put v -> Some (k, v) | Op.Delete -> None)
                mine
          in
          Ok (List.sort compare result))

let put t key value =
  match lock t key Lock_table.Write with
  | Error `Timeout -> Error `Timeout
  | Ok () ->
      buffer_write t key (Op.Put value);
      Ok ()

let delete t key =
  match lock t key Lock_table.Write with
  | Error `Timeout -> Error `Timeout
  | Ok () ->
      buffer_write t key Op.Delete;
      Ok ()

let writes t = List.rev t.write_list
let read_set t = List.rev t.reads

let validate_reads t =
  (* OCC: every key we read must still be at the version we saw. *)
  List.for_all
    (fun (key, seq_seen) ->
      let current =
        match Engine.get ~span:t.span t.engine ~key ~snapshot:(Engine.snapshot t.engine) with
        | Memtable.Found (seq, _) | Memtable.Deleted seq -> seq
        | Memtable.Not_found -> 0
      in
      current = seq_seen)
    t.reads

let prepare t =
  match t.isolation with
  | Types.Pessimistic -> Ok ()
  | Types.Optimistic ->
      (* Lock the write set and the read set, then validate. The read locks
         keep the validated versions current until the writes install —
         without them a concurrent commit between validation and
         installation breaks serializability. *)
      let rec lock_keys mode = function
        | [] -> Ok ()
        | _ :: _ when t.finished ->
            (* Ended while this prepare waited for a lock: take no more. *)
            Error `Timeout
        | key :: rest -> (
            match Lock_table.acquire ~span:t.span t.locks ~owner:t.txid ~key mode with
            | Ok () -> lock_keys mode rest
            | Error `Timeout -> Error `Timeout)
      in
      (match lock_keys Lock_table.Write (List.map fst (writes t)) with
      | Error `Timeout -> Error `Timeout
      | Ok () -> (
          match lock_keys Lock_table.Read (List.map fst t.reads) with
          | Error `Timeout -> Error `Timeout
          | Ok () -> if validate_reads t then Ok () else Error `Conflict))

let finished t = t.finished

let finish t =
  if not t.finished then begin
    t.finished <- true;
    Engine.release_snapshot t.engine t.snapshot;
    Lock_table.txn_end t.locks ~owner:t.txid;
    Enclave.free_enclave
      (Treaty_storage.Sec.enclave (Engine.sec t.engine))
      t.buffer_bytes
  end
