module Sim = Treaty_sim.Sim
module Erpc = Treaty_rpc.Erpc
module Secure_msg = Treaty_rpc.Secure_msg
module Enclave = Treaty_tee.Enclave
module Wire = Treaty_util.Wire

let kind_echo1 = 101
let kind_echo2 = 102
let kind_query = 103

let fault_threshold = 1

(* The node plus its [2f] ring successors in id order. Successor rings put
   every node in exactly [2f+1] groups, so replica load is balanced. With
   [N <= 2f+1] the group is the whole membership in its given order, which
   also fixes the order [round] contacts it in. *)
let protection_group ~self ~members =
  if not (List.mem self members) then
    invalid_arg "Rote.protection_group: self is not a member";
  let size = (2 * fault_threshold) + 1 in
  if List.length members <= size then members
  else begin
    let ring = Array.of_list (List.sort_uniq compare members) in
    let n = Array.length ring in
    let rec index i = if ring.(i) = self then i else index (i + 1) in
    let at = index 0 in
    List.sort compare (List.init (min n size) (fun k -> ring.((at + k) mod n)))
  end

type stats = {
  mutable increments : int;
  mutable rounds : int;
  mutable quorum_failures : int;
  mutable queries : int;
  mutable targets : int;
}

type replica = {
  rpc : Erpc.t;
  group : int list;
  quorum : int;
  (* In-enclave counter store: (owner, log) -> committed value, plus the
     first-round pending value awaiting confirmation. *)
  committed : (int * string, int) Hashtbl.t;
  pending : (int * string, int) Hashtbl.t;
  incarnations : (int, int) Hashtbl.t;
      (* owner -> newest enclave incarnation seen in its echoes or queries *)
  persist : string -> unit;
  stats : stats;
}

let proc_cost t =
  let e = Erpc.enclave t.rpc in
  Enclave.compute e (Enclave.cost e).rote_proc_ns

let seal_cost t =
  let e = Erpc.enclave t.rpc in
  Enclave.compute e (Enclave.cost e).rote_seal_ns

(* Echo rounds carry a batch of (log, value) targets for one owner — a
   single protocol round stabilizes every log that has pending submissions
   (the epoch pump in Counter_client drains all logs per round) — and the
   incarnation of the owner's enclave that sent them. Node ids and
   incarnations (< 2^22, [Aead.Iv_gen]) take 32 bits each. *)
let encode_batch ~owner ~incarnation ~targets =
  let b = Buffer.create 64 in
  Wire.w32 b owner;
  Wire.w32 b incarnation;
  Wire.wlist b
    (fun b (log, value) ->
      Wire.wstr b log;
      Wire.w64 b value)
    targets;
  Buffer.contents b

let decode_batch payload =
  let r = Wire.reader payload in
  let owner = Wire.r32 r in
  let incarnation = Wire.r32 r in
  let targets =
    Wire.rlist r (fun r ->
        let log = Wire.rstr r in
        let value = Wire.r64 r in
        (log, value))
  in
  (owner, incarnation, targets)

(* Receiver-enclave transitions, shared between the registered RPC handlers
   and the sender's local participation in [round]. *)
let apply_echo1 t ~owner targets =
  (* Keep the larger pending value: rounds finish at quorum, so an echo of
     an older round can still arrive after a newer one and must not
     overwrite it (the newer round's echo2 would then nack here). A
     restarted owner's query clears the value first ([forget_pending]). *)
  List.iter
    (fun (log, value) ->
      match Hashtbl.find_opt t.pending (owner, log) with
      | Some v when v >= value -> ()
      | _ -> Hashtbl.replace t.pending (owner, log) value)
    targets;
  "echo"

let apply_echo2 t ~owner targets =
  (* All-or-nothing: the ack confirms the whole epoch batch, so a single
     mismatched target (a concurrent round replaced the pending value)
     nacks without committing anything. *)
  let all_match =
    List.for_all
      (fun (log, value) ->
        match Hashtbl.find_opt t.pending (owner, log) with
        | Some v -> v = value
        | None -> false)
      targets
  in
  if all_match then begin
    List.iter
      (fun (log, value) ->
        let cur =
          Option.value ~default:0 (Hashtbl.find_opt t.committed (owner, log))
        in
        Hashtbl.replace t.committed (owner, log) (max cur value);
        Hashtbl.remove t.pending (owner, log))
      targets;
    "ack"
  end
  else "nack"

(* The owner queries its counters only while it recovers, before it
   appends again. Any pending value of that owner held then is left over
   from a round its previous incarnation never finished: the new
   incarnation reuses the counter values above the trusted ones (and may
   reopen a log name recovery never queried), and [apply_echo1] would keep
   the stale larger value and nack every echo2 that carries the log until
   it passed it. Pending values were never trusted, so dropping them loses
   nothing. *)
let forget_pending t ~owner =
  Hashtbl.filter_map_inplace
    (fun (o, _) v -> if o = owner then None else Some v)
    t.pending

(* Whether an echo or query from [owner]'s enclave [incarnation] is
   current, noting it as the newest seen if so. One from an older
   incarnation was sent by a dead enclave: its echo1 could reach this
   replica after the new incarnation's recovery query ([forget_pending])
   and re-install a stale pending value. *)
let current t ~owner ~incarnation =
  match Hashtbl.find_opt t.incarnations owner with
  | Some newest when incarnation < newest -> false
  | _ ->
      Hashtbl.replace t.incarnations owner incarnation;
      true

(* An echo payload through [apply]; total over peer bytes. *)
let on_echo t apply payload =
  match decode_batch payload with
  | owner, incarnation, targets when current t ~owner ~incarnation ->
      apply t ~owner targets
  | _ -> "nack"
  | exception Wire.Malformed _ -> "nack"

let seal_state t =
  (* Seal the committed table to this enclave's identity. *)
  let b = Buffer.create 256 in
  Hashtbl.iter
    (fun (owner, log) v ->
      Wire.w64 b owner;
      Wire.wstr b log;
      Wire.w64 b v)
    t.committed;
  seal_cost t;
  t.persist (Enclave.seal (Erpc.enclave t.rpc) (Buffer.contents b))

let create_replica rpc ~group ?(persist = fun _ -> ()) ?(restore = fun () -> [])
    () =
  let t =
    {
      rpc;
      group;
      quorum = (List.length group / 2) + 1;
      committed = Hashtbl.create 32;
      pending = Hashtbl.create 8;
      incarnations = Hashtbl.create 8;
      persist;
      stats =
        { increments = 0; rounds = 0; quorum_failures = 0; queries = 0; targets = 0 };
    }
  in
  (* Re-seed from the newest sealed snapshot that authenticates (a torn or
     tampered tail just falls back to the previous one). *)
  let load plain =
    let r = Wire.reader plain in
    let rec go () =
      if not (Wire.at_end r) then begin
        let owner = Wire.r64 r in
        let log = Wire.rstr r in
        let value = Wire.r64 r in
        let cur = Option.value ~default:0 (Hashtbl.find_opt t.committed (owner, log)) in
        Hashtbl.replace t.committed (owner, log) (max cur value);
        go ()
      end
    in
    (try go () with Wire.Malformed _ -> ())
  in
  let rec try_restore = function
    | [] -> ()
    | blob :: older -> (
        match Enclave.unseal (Erpc.enclave rpc) blob with
        | Ok plain -> load plain
        | Error (`Mac_mismatch | `Truncated) -> try_restore older)
  in
  try_restore (List.rev (restore ()));
  (* Handlers are total over peer bytes: an authenticated peer that sends a
     malformed echo gets a nack, and a malformed query an empty reply, which
     [query] discards like any other non-value. *)
  let echo_handler apply _meta payload =
    proc_cost t;
    on_echo t apply payload
  in
  Erpc.register rpc ~kind:kind_echo1 (echo_handler apply_echo1);
  Erpc.register rpc ~kind:kind_echo2 (echo_handler apply_echo2);
  Erpc.register rpc ~kind:kind_query (fun meta payload ->
      proc_cost t;
      let r = Wire.reader payload in
      match
        let owner = Wire.r32 r in
        let incarnation = Wire.r32 r in
        (owner, Wire.rstr r, incarnation)
      with
      | exception Wire.Malformed _ -> ""
      | owner, log, incarnation ->
          if meta.Secure_msg.src = owner && current t ~owner ~incarnation then
            forget_pending t ~owner;
          let v =
            Option.value ~default:0 (Hashtbl.find_opt t.committed (owner, log))
          in
          let b = Buffer.create 8 in
          Wire.w64 b v;
          Buffer.contents b);
  t

let stats t = t.stats
let sim t = Enclave.sim (Erpc.enclave t.rpc)
let incarnation t = Enclave.incarnation (Erpc.enclave t.rpc)

(* Epoch alignment/batch formation in the ROTE service: waiting, not CPU. *)
let align t =
  Sim.sleep (sim t) (Enclave.cost (Erpc.enclave t.rpc)).rote_round_latency_ns

(* Broadcast one round to the whole group (self included, handled locally)
   and return the reply payloads. With [until], the round returns as soon
   as a quorum of replies equal it (self counts like any replica); the
   remaining calls finish in their own fibers, so one member that is down
   costs nothing instead of its RPC timeout. Without [until] it waits for
   every member. *)
let round ?until t ~kind ~payload =
  t.stats.rounds <- t.stats.rounds + 1;
  let self = Erpc.node_id t.rpc in
  let replies = ref [] in
  let outstanding = ref (List.length t.group) in
  let positives = ref 0 in
  let done_ = Sim.ivar () in
  let arrive reply =
    (match reply with
    | Some r ->
        replies := r :: !replies;
        if Some r = until then incr positives
    | None -> ());
    decr outstanding;
    if !positives >= t.quorum || !outstanding = 0 then
      ignore (Sim.try_fill done_ !replies)
  in
  List.iter
    (fun peer ->
      Sim.spawn (sim t) (fun () ->
          if peer = self then begin
            (* Local participation without a network hop. *)
            proc_cost t;
            arrive
              (match kind with
              | k when k = kind_echo1 -> Some (on_echo t apply_echo1 payload)
              | k when k = kind_echo2 -> Some (on_echo t apply_echo2 payload)
              | _ -> None)
          end
          else
            arrive
              (match
                 Erpc.call t.rpc ~dst:peer ~kind ~timeout_ns:10_000_000 payload
               with
              | Ok reply -> Some reply
              | Error (`Timeout | `Tampered) -> None)))
    t.group;
  Sim.read (sim t) done_

let increment_batch t ~owner ~targets =
  (* The echo1 alignment is the round's batching wait: the targets are read
     only after it, so whatever the caller appended during it rides along. *)
  align t;
  match targets () with
  | [] -> Ok []
  | targets ->
      t.stats.increments <- t.stats.increments + 1;
      t.stats.targets <- t.stats.targets + List.length targets;
      let payload = encode_batch ~owner ~incarnation:(incarnation t) ~targets in
      let echoes = round ~until:"echo" t ~kind:kind_echo1 ~payload in
      let ok_echoes = List.length (List.filter (( = ) "echo") echoes) in
      if ok_echoes < t.quorum then begin
        t.stats.quorum_failures <- t.stats.quorum_failures + 1;
        Error `No_quorum
      end
      else begin
        align t;
        let acks = round ~until:"ack" t ~kind:kind_echo2 ~payload in
        let ok_acks = List.length (List.filter (( = ) "ack") acks) in
        if ok_acks < t.quorum then begin
          t.stats.quorum_failures <- t.stats.quorum_failures + 1;
          Error `No_quorum
        end
        else begin
          seal_state t;
          Ok targets
        end
      end

let increment t ~owner ~log ~value =
  Result.map ignore (increment_batch t ~owner ~targets:(fun () -> [ (log, value) ]))

let local_value t ~owner ~log =
  Option.value ~default:0 (Hashtbl.find_opt t.committed (owner, log))

let query t ~owner ~log =
  t.stats.queries <- t.stats.queries + 1;
  let b = Buffer.create 16 in
  Wire.w32 b owner;
  Wire.w32 b (incarnation t);
  Wire.wstr b log;
  let payload = Buffer.contents b in
  if owner = Erpc.node_id t.rpc then forget_pending t ~owner;
  align t;
  let replies = round t ~kind:kind_query ~payload in
  let values =
    List.filter_map
      (fun reply ->
        if reply = "echo" || reply = "ack" || reply = "nack" then None
        else
          match Wire.r64 (Wire.reader reply) with
          | v -> Some v
          | exception Wire.Malformed _ -> None)
      replies
  in
  let values = local_value t ~owner ~log :: values in
  if List.length replies + 1 < t.quorum then Error `No_quorum
  else Ok (List.fold_left max 0 values)
