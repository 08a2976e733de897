module Sim = Treaty_sim.Sim
module Enclave = Treaty_tee.Enclave
module Erpc = Treaty_rpc.Erpc
module Secure_msg = Treaty_rpc.Secure_msg
module Mempool = Treaty_memalloc.Mempool
module Net = Treaty_netsim.Net
module Keys = Treaty_crypto.Keys

type t = {
  sim : Sim.t;
  rpc : Erpc.t;
  client_id : int;
  token : string;
  nodes : int array;
  route : string -> int;
      (* The cluster's shard map: read-only transactions are routed straight
         to the owning node instead of through a 2PC coordinator. *)
  mutable rr : int;
  op_timeout : int;  (* A commit's: it may wait out the counter service's retries. *)
  call_timeout : int;
      (* An op's or a rollback's. Its handler waits at most for a lock, one
         node-to-node call and the abort fan-out that follows a failed one,
         so a node that has not answered by then is down or cut off. *)
  begin_timeout : int;  (* A begin takes no lock and calls no other node. *)
  suspects : (int, bool ref) Hashtbl.t;
      (* Nodes a call to timed out, with whether a probe of one is in
         flight: new transactions begin elsewhere until a probe succeeds. *)
}

type txn = {
  t_coord : int;
  t_seq : int;
  mutable t_writes : Txn_wire.op list;
      (* Writes not sent yet, newest first: they go with the next request
         that needs an answer. *)
}

let client_id t = t.client_id
let tx_seq txn = txn.t_seq

(* One request/reply round trip; a lost or tampered reply is a failed
   participant, and a node that did not answer in time is suspected. *)
let call ?timeout_ns t ~dst ~kind payload =
  let timeout_ns = Option.value timeout_ns ~default:t.call_timeout in
  match Erpc.call t.rpc ~dst ~kind ~timeout_ns payload with
  | Ok reply -> Ok reply
  | Error `Timeout ->
      if not (Hashtbl.mem t.suspects dst) then Hashtbl.replace t.suspects dst (ref false);
      Error Types.Participant_failed
  | Error `Tampered -> Error Types.Participant_failed

(* A node that answers with anything but OK refused the token; one that
   does not answer in time may never have seen it. *)
let register t node =
  match
    Erpc.call t.rpc ~dst:node ~kind:Txn_wire.k_client_register ~timeout_ns:t.op_timeout
      (Txn_wire.encode_register ~client_id:t.client_id ~token:t.token)
  with
  | Ok reply -> if Txn_wire.decode_ack reply = Ok () then Ok () else Error `Auth_failed
  | Error `Timeout -> Error `Timeout
  | Error `Tampered -> Error `Auth_failed

let register_with t node = register t node = Ok ()

let connect cluster ~client_id =
  let sim = Cluster.sim cluster in
  let config = Cluster.config cluster in
  match Cluster.client_token cluster ~client_id with
  | Error `Cas_down -> Error `Cas_down
  | Ok token ->
      let enclave =
        (* Clients run on their own trusted machines, outside SGX. A client
           id that connects again gets a new incarnation: the network key
           outlives the old endpoint. *)
        Enclave.create
          ~incarnation:(Cluster.next_incarnation cluster ~endpoint:(1000 + client_id))
          sim ~mode:Enclave.Native ~cost:config.cost ~cores:4
          ~node_id:(1000 + client_id) ~code_identity:"treaty-client"
      in
      let pool = Mempool.create enclave in
      let security =
        if config.profile.encryption then
          Secure_msg.Secure (Keys.network_key (Cluster.master cluster))
        else Secure_msg.Plain
      in
      let rpc =
        Erpc.create sim ~net:(Cluster.net cluster) ~enclave ~pool
          ~config:
            {
              (Erpc.default_config ~security) with
              Erpc.timeout_ns = config.client_op_timeout_ns;
            }
          ~node_id:(1000 + client_id) ~net_config:Net.client_config ()
      in
      let t =
        {
          sim;
          rpc;
          client_id;
          token;
          nodes = Array.of_list (Cluster.node_ids cluster);
          route = (fun key -> Cluster.route_key cluster key);
          rr = client_id;
          op_timeout = config.client_op_timeout_ns;
          call_timeout = min (3 * config.rpc_timeout_ns) config.client_op_timeout_ns;
          begin_timeout = min config.rpc_timeout_ns config.client_op_timeout_ns;
          suspects = Hashtbl.create 4;
        }
      in
      let rec register_all i =
        if i = Array.length t.nodes then Ok t
        else
          match register t t.nodes.(i) with
          | Ok () -> register_all (i + 1)
          | Error e ->
              Erpc.shutdown rpc;
              Error e
      in
      register_all 0

exception Connect_failed of string

let connect_exn cluster ~client_id =
  match connect cluster ~client_id with
  | Ok t -> t
  | Error `Auth_failed -> raise (Connect_failed "client authentication failed")
  | Error `Timeout -> raise (Connect_failed "client register timed out")
  | Error `Cas_down -> raise (Connect_failed "CAS down")

(* Ask a suspected node whether it is back, in the background, one probe
   at a time. The probe re-registers, which a restarted node needs anyway. *)
let probe t node in_flight =
  if not !in_flight then begin
    in_flight := true;
    Sim.spawn t.sim (fun () ->
        if register t node = Ok () then Hashtbl.remove t.suspects node;
        in_flight := false)
  end

(* The next node round-robin that is not suspected (probing each suspect
   it passes), or the next one at all if every node is. *)
let pick_coord t =
  let n = Array.length t.nodes in
  let rec next tries =
    t.rr <- t.rr + 1;
    let node = t.nodes.(t.rr mod n) in
    match Hashtbl.find_opt t.suspects node with
    | Some in_flight when tries < n ->
        probe t node in_flight;
        next (tries + 1)
    | Some _ | None -> node
  in
  next 1

(* How an op, scan or commit reply's failure reaches the client. *)
let failure_reason = function
  | Txn_wire.Refused St_lock_timeout ->
      Types.Lock_timeout (* tx auto-aborted coordinator-side *)
  | Refused St_unknown_tx -> Types.Rolled_back
  | Refused (St_ok | St_unauth | St_conflict) -> Types.Unauthenticated
  | Aborted reason -> reason
  | Malformed -> Types.Participant_failed

let rec begin_attempt t ~retry coord =
  match
    call t ~timeout_ns:t.begin_timeout ~dst:coord ~kind:Txn_wire.k_client_begin
      (Txn_wire.encode_begin ~client_id:t.client_id)
  with
  | Error e -> Error e
  | Ok reply -> (
      match Txn_wire.decode_begin_reply reply with
      | Ok seq -> Ok { t_coord = coord; t_seq = seq; t_writes = [] }
      | Error (Refused St_unauth) ->
          (* A restarted node has an empty client registry: re-register
             (re-presenting the CAS token) and retry once. *)
          if retry && register_with t coord then
            begin_attempt t ~retry:false coord
          else Error Types.Unauthenticated
      | Error
          ( Refused (St_ok | St_lock_timeout | St_unknown_tx | St_conflict)
          | Aborted _ | Malformed ) ->
          Error Types.Participant_failed)

let begin_txn t ?coord () =
  let coord = Option.value coord ~default:(pick_coord t) in
  begin_attempt t ~retry:true coord

(* A request on the transaction's coordinator, decoded by [decode]. *)
let on_coord ?timeout_ns t txn ~kind payload decode =
  match call ?timeout_ns t ~dst:txn.t_coord ~kind payload with
  | Error e -> Error e
  | Ok reply -> Result.map_error failure_reason (decode reply)

let header t txn = { Txn_wire.client_id = t.client_id; tx_seq = txn.t_seq }

(* The buffered writes in the order they were made, followed by [last];
   the buffer is empty afterwards. *)
let take_writes txn last =
  let ops = List.rev_append txn.t_writes last in
  txn.t_writes <- [];
  ops

(* An op request: the buffered writes, then the reads [ops]. *)
let read t txn ops decode =
  on_coord t txn ~kind:Txn_wire.k_client_op
    (Txn_wire.encode_client_op (header t txn) (take_writes txn ops))
    decode

let get_many t txn keys =
  match keys with
  | [] -> Ok []
  | _ :: _ ->
      read t txn
        (List.map
           (fun (key, mode) ->
             match mode with
             | Lock_table.Read -> Txn_wire.Get key
             | Lock_table.Write -> Txn_wire.Get_for_update key)
           keys)
        (fun reply ->
          Result.map (List.map fst) (Txn_wire.decode_reads ~gets:(List.length keys) reply))

(* [decode_reads] answers one value per get, so a one-key read answers one;
   any other count is a malformed reply. *)
let get t txn key =
  match get_many t txn [ (key, Lock_table.Read) ] with
  | Ok [ value ] -> Ok value
  | Ok ([] | _ :: _ :: _) -> Error (failure_reason Txn_wire.Malformed)
  | Error e -> Error e

let scan t txn ~lo ~hi = read t txn [ Txn_wire.Scan (lo, hi) ] Txn_wire.decode_scan_reply

let put _t txn key value =
  txn.t_writes <- Txn_wire.Put (key, value) :: txn.t_writes;
  Ok ()

let delete _t txn key =
  txn.t_writes <- Txn_wire.Del key :: txn.t_writes;
  Ok ()

let commit t txn =
  on_coord ~timeout_ns:t.op_timeout t txn ~kind:Txn_wire.k_client_commit
    (Txn_wire.encode_client_commit (header t txn) (take_writes txn []))
    Txn_wire.decode_commit_reply

(* Nobody needs a rollback's answer: one to a suspected coordinator is
   sent without waiting for it. *)
let rollback t txn =
  txn.t_writes <- [];
  let send () =
    ignore
      (call t ~dst:txn.t_coord ~kind:Txn_wire.k_client_abort
         (Txn_wire.encode_client_tx (header t txn)))
  in
  if Hashtbl.mem t.suspects txn.t_coord then Sim.spawn t.sim send else send ()

(* Zero-RPC read-only fast path: declare the read set up front, group the
   keys by owning node and ship each group as ONE RPC answered from a
   retained MVCC snapshot — no begin/commit round, no locks, no
   stabilization waits. The groups go out at once, each in its own fiber,
   so the call takes the slowest owner's round trip, not the sum of them;
   every owner is asked even when another fails, and the first error in
   owner order is the call's. Each per-owner batch is its own serializable
   read-only transaction (a consistent prefix of that shard); a multi-shard
   call therefore gets per-shard snapshot consistency, not one global
   snapshot — callers that need cross-shard atomicity use {!with_txn}. *)
let read_only t keys =
  let groups = Hashtbl.create 4 in
  let owners_rev = ref [] in
  List.iter
    (fun key ->
      let owner = t.route key in
      match Hashtbl.find_opt groups owner with
      | Some batch -> batch := key :: !batch
      | None ->
          Hashtbl.add groups owner (ref [ key ]);
          owners_rev := owner :: !owners_rev)
    keys;
  let rec fetch ~retry owner batch =
    match
      call t ~dst:owner ~kind:Txn_wire.k_client_ro
        (Txn_wire.encode_client_ro ~client_id:t.client_id batch)
    with
    | Error e -> Error e
    | Ok reply -> (
        match Txn_wire.decode_ro_reply reply with
        | Ok values when List.length values = List.length batch ->
            Ok (List.combine batch values)
        | Ok _short -> Error Types.Participant_failed
        | Error (Refused St_lock_timeout) ->
            (* The owner's stability guard timed out: the read set stayed
               under in-flight writes for the whole lock-timeout budget. *)
            Error Types.Lock_timeout
        | Error (Refused St_unauth) ->
            (* Restarted node with an empty client registry: re-present the
               CAS token and retry once, as begin_txn does. *)
            if retry && register_with t owner then
              fetch ~retry:false owner batch
            else Error Types.Unauthenticated
        | Error
            ( Refused (St_ok | St_unknown_tx | St_conflict)
            | Aborted _ | Malformed ) ->
            Error Types.Participant_failed)
  in
  let (), outcomes =
    Sim.fan_out t.sim (List.rev !owners_rev) ~local:ignore (fun owner ->
        fetch ~retry:true owner (List.rev !(Hashtbl.find groups owner)))
  in
  match List.find_map (function Error e -> Some e | Ok _ -> None) outcomes with
  | Some e -> Error e
  | None ->
      let found = List.concat_map (function Ok kvs -> kvs | Error _ -> []) outcomes in
      Ok (List.map (fun key -> (key, List.assoc key found)) keys)

let disconnect t = Erpc.shutdown t.rpc

let with_txn t ?coord body =
  match begin_txn t ?coord () with
  | Error e -> Error e
  | Ok txn -> (
      match body txn with
      | Ok v -> (
          match commit t txn with Ok () -> Ok v | Error e -> Error e)
      | Error e ->
          rollback t txn;
          Error e)
