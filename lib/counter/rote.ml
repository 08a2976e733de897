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

type entry = { owner : int; incarnation : int; targets : (string * int) list }

type replica = {
  rpc : Erpc.t;
  group : int list;
  members : int list;
  groups : (int, int list) Hashtbl.t;  (* owner -> its protection group *)
  quorum : int;
  (* In-enclave counter store: (owner, log) -> committed value, plus the
     first-round pending value awaiting confirmation. *)
  committed : (int * string, int) Hashtbl.t;
  pending : (int * string, int) Hashtbl.t;
  incarnations : (int, int) Hashtbl.t;
      (* owner -> newest enclave incarnation seen in its echoes or queries *)
  persist : string -> unit;
  (* One seal runs at a time ([persist] is never entered twice). A seal
     covers the table as it is when the seal starts. *)
  mutable sealed : (string * int) list;
      (* Own values the last persisted seal holds. *)
  mutable running : ((string * int) list * unit Sim.ivar) option;
      (* Own values the running seal holds, and its completion. *)
  mutable next : unit Sim.ivar option;
      (* Completion of a seal asked for while one runs: it starts after. *)
  stats : stats;
}

let proc_cost t =
  let e = Erpc.enclave t.rpc in
  Enclave.compute e (Enclave.cost e).rote_proc_ns

let seal_cost t =
  let e = Erpc.enclave t.rpc in
  Enclave.compute e (Enclave.cost e).rote_seal_ns

(* An echo payload is a sequence of entries, each an owner's batch of
   (log, value) targets — one per log with pending submissions (the epoch
   pump in Counter_client drains all logs per round) — and the incarnation
   of the owner's enclave that appended them. An owner's own round carries
   one entry; a coordinator's commit point adds one per voting
   participant. Entries run to the end of the payload, with no count, so a
   one-entry payload is as small as the single-owner format was. Node ids
   and incarnations (< 2^22, [Aead.Iv_gen]) take 32 bits each. *)
let encode_entries entries =
  let b = Buffer.create 64 in
  List.iter
    (fun e ->
      Wire.w32 b e.owner;
      Wire.w32 b e.incarnation;
      Wire.wlist b
        (fun b (log, value) ->
          Wire.wstr b log;
          Wire.w64 b value)
        e.targets)
    entries;
  Buffer.contents b

let decode_entries payload =
  let r = Wire.reader payload in
  let rec go acc =
    if Wire.at_end r && acc <> [] then List.rev acc
    else begin
      let owner = Wire.r32 r in
      let incarnation = Wire.r32 r in
      let targets =
        Wire.rlist r (fun r ->
            let log = Wire.rstr r in
            let value = Wire.r64 r in
            (log, value))
      in
      go ({ owner; incarnation; targets } :: acc)
    end
  in
  go []

(* Receiver-enclave transitions, shared between the registered RPC handlers
   and the sender's local participation in [round]. Each confirms one
   entry, all-or-nothing. *)
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
  true

let committed_value t key = Option.value ~default:0 (Hashtbl.find_opt t.committed key)

let apply_echo2 t ~owner targets =
  (* The owner's own round and a coordinator's commit point can carry
     different values for one log, and echo1 keeps the larger pending one:
     ack any value at most the pending one or the committed one, and commit
     the maximum. A pending value stays until a value at least as large is
     committed. One target that was never echoed nacks the whole entry. *)
  let echoed (log, value) =
    let key = (owner, log) in
    value <= committed_value t key
    || match Hashtbl.find_opt t.pending key with Some v -> value <= v | None -> false
  in
  List.for_all echoed targets
  && begin
       List.iter
         (fun (log, value) ->
           let key = (owner, log) in
           let committed = max (committed_value t key) value in
           Hashtbl.replace t.committed key committed;
           match Hashtbl.find_opt t.pending key with
           | Some v when v <= committed -> Hashtbl.remove t.pending key
           | _ -> ())
         targets;
       true
     end

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

let positive = '+'
let negative = '-'
let positive_reply = String.make 1 positive
let negative_reply = String.make 1 negative

(* An echo payload through [apply]: one status byte per entry, in payload
   order. Total over peer bytes: a malformed payload gets "nack", which
   [round] reads as no positive status. *)
let on_echo t apply payload =
  match decode_entries payload with
  | entries -> (
      let status { owner; incarnation; targets } =
        if current t ~owner ~incarnation && apply t ~owner targets then positive
        else negative
      in
      (* An own round's one-entry reply is one of two shared strings: replies
         stay in the at-most-once cache for its whole TTL. *)
      match entries with
      | [ e ] -> if status e = positive then positive_reply else negative_reply
      | entries -> String.of_seq (List.to_seq (List.map status entries)))
  | exception Wire.Malformed _ -> "nack"

(* Seal the committed table to this enclave's identity: the own values it
   holds, and its bytes. *)
let seal_state t =
  let self = Erpc.node_id t.rpc in
  let b = Buffer.create 256 in
  let own = ref [] in
  Hashtbl.iter
    (fun (owner, log) v ->
      if owner = self then own := (log, v) :: !own;
      Wire.w64 b owner;
      Wire.wstr b log;
      Wire.w64 b v)
    t.committed;
  (!own, b)

(* The completion of a seal that starts no earlier than now. Seals run one
   at a time; a request made while one runs is served by the next, which
   then covers every request made meanwhile, so a burst of confirmations
   pays one seal. *)
let request_seal t =
  let sim = Enclave.sim (Erpc.enclave t.rpc) in
  let rec start iv =
    let own, b = seal_state t in
    t.running <- Some (own, iv);
    Sim.spawn sim (fun () ->
        seal_cost t;
        t.persist (Enclave.seal (Erpc.enclave t.rpc) (Buffer.contents b));
        t.sealed <- own;
        Sim.fill iv ();
        match t.next with
        | Some next ->
            t.next <- None;
            start next
        | None -> t.running <- None)
  in
  match (t.running, t.next) with
  | None, _ ->
      let iv = Sim.ivar () in
      start iv;
      iv
  | Some _, Some next -> next
  | Some _, None ->
      let next = Sim.ivar () in
      t.next <- Some next;
      next

let await_seal t = Sim.read (Enclave.sim (Erpc.enclave t.rpc)) (request_seal t)

let covers own targets =
  List.for_all
    (fun (log, v) -> match List.assoc_opt log own with Some s -> v <= s | None -> false)
    targets

(* Block until a persisted seal holds [targets] of this node's own logs:
   at once if the last one does, the running seal if it will, else the
   next. *)
let await_sealed t targets =
  if not (covers t.sealed targets) then
    match t.running with
    | Some (own, iv) when covers own targets ->
        Sim.read (Enclave.sim (Erpc.enclave t.rpc)) iv
    | _ -> await_seal t

let note_vote t targets = ignore (apply_echo1 t ~owner:(Erpc.node_id t.rpc) targets)

let create_replica rpc ~group ?(members = group) ?(persist = fun _ -> ())
    ?(restore = fun () -> []) () =
  let t =
    {
      rpc;
      group;
      members;
      groups = Hashtbl.create 8;
      quorum = (List.length group / 2) + 1;
      committed = Hashtbl.create 32;
      pending = Hashtbl.create 8;
      incarnations = Hashtbl.create 8;
      persist;
      sealed = [];
      running = None;
      next = None;
      stats =
        { increments = 0; rounds = 0; quorum_failures = 0; queries = 0; targets = 0 };
    }
  in
  (* Re-seed from every sealed snapshot that authenticates (a torn or
     tampered one is skipped): a counter only grows, so merging them keeps
     the newest value of each. *)
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
  List.iter
    (fun blob ->
      match Enclave.unseal (Erpc.enclave rpc) blob with
      | Ok plain -> load plain
      | Error (`Mac_mismatch | `Truncated) -> ())
    (restore ());
  (* This enclave is its owner's newest incarnation: a vote its previous
     incarnation cast, carried by a coordinator's round, is refused here
     as it is at every peer that saw the recovery query. *)
  Hashtbl.replace t.incarnations (Erpc.node_id rpc)
    (Enclave.incarnation (Erpc.enclave rpc));
  (* Handlers are total over peer bytes: an authenticated peer that sends a
     malformed echo gets a nack, and a malformed query an empty reply, which
     [query] discards like any other non-value. *)
  let echo_handler apply _meta payload =
    proc_cost t;
    on_echo t apply payload
  in
  Erpc.register rpc ~kind:kind_echo1 (echo_handler apply_echo1);
  Erpc.register rpc ~kind:kind_echo2 (fun meta payload ->
      let reply = echo_handler apply_echo2 meta payload in
      (* Another node's round — a coordinator's commit point — made a value
         of this node's own logs trusted here. Ack it only once a persisted
         seal holds it, as the sender of an own round does: this node's
         recovery query counts its own sealed value towards the quorum, so
         a value it confirmed must survive its crash. Concurrent
         confirmations share one seal. *)
      let self = Erpc.node_id rpc in
      (match decode_entries payload with
      | entries ->
          List.iteri
            (fun i e ->
              if e.owner = self && i < String.length reply && reply.[i] = positive
              then await_sealed t e.targets)
            entries
      | exception Wire.Malformed _ -> ());
      reply);
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

let quorum_of group = (List.length group / 2) + 1

let group_of t owner =
  if owner = Erpc.node_id t.rpc then t.group
  else
    match Hashtbl.find_opt t.groups owner with
    | Some g -> g
    | None ->
        let g = protection_group ~self:owner ~members:t.members in
        Hashtbl.replace t.groups owner g;
        g

(* Send [payload] to [peer] (or run it locally when [peer] is this node)
   and hand the reply, if any, to [arrive]. *)
let call_member t ~kind ~peer ~local payload arrive =
  Sim.spawn (sim t) (fun () ->
      if peer = Erpc.node_id t.rpc then begin
        (* Local participation without a network hop. *)
        proc_cost t;
        arrive (local payload)
      end
      else
        arrive
          (match Erpc.call t.rpc ~dst:peer ~kind ~timeout_ns:10_000_000 payload with
          | Ok reply -> Some reply
          | Error (`Timeout | `Tampered) -> None))

(* The members an entry is sent to. This node's own entry goes to its
   whole group, and the round returns at the first quorum of replies.
   Another owner's entry — a voter's, which is never retried — goes to
   exactly a quorum of the owner's group: this node first if it is a
   member (no network hop), then the owner itself (it has just voted, so it
   is up), then the rest in group order. Any quorum of the group meets
   every later recovery query's, so the third member would only cost a
   message per phase; the owner seals what it confirms (see the echo2
   handler), since its query counts its own sealed value. *)
let recipients t e =
  let group = group_of t e.owner in
  let self = Erpc.node_id t.rpc in
  if e.owner = self then group
  else
    let rec take n = function
      | m :: rest when n > 0 -> m :: take (n - 1) rest
      | _ -> []
    in
    take (quorum_of group)
      (List.filter (( = ) self) group
      @ [ e.owner ]
      @ List.filter (fun m -> m <> self && m <> e.owner) group)

(* One echo phase over [entries]: it goes to the union of the entries'
   recipients (the first entry's in order, then each further entry's new
   ones), and each member receives only the entries sent to it. Another
   owner's entry is its owner's vote, and skips the owner in the first
   phase: the vote was its echo ([note_vote]), so it counts as positive
   there without a message. In the second phase this node confirms
   another owner's entry last, once the rest of a quorum has: a round
   that fails for a voter leaves its value pending here, not committed.
   Returns, per entry, the number of positive statuses, as soon as every
   entry has a quorum of its owner's group (self counts like any replica)
   or every member has answered; the remaining calls finish in their own
   fibers, so one member that is down costs nothing instead of its RPC
   timeout. *)
let round t ~kind ~entries =
  t.stats.rounds <- t.stats.rounds + 1;
  let self = Erpc.node_id t.rpc in
  let entries = Array.of_list entries in
  let groups = Array.map (recipients t) entries in
  let needed = Array.map (fun e -> quorum_of (group_of t e.owner)) entries in
  let voted i peer =
    kind = kind_echo1 && entries.(i).owner = peer && peer <> self
  in
  let last i peer =
    kind = kind_echo2 && peer = self && entries.(i).owner <> self
  in
  let positives =
    Array.mapi (fun i g -> if List.exists (voted i) g then 1 else 0) groups
  in
  let members =
    Array.fold_left
      (fun acc g -> acc @ List.filter (fun m -> not (List.mem m acc)) g)
      [] groups
  in
  let calls =
    List.filter_map
      (fun peer ->
        match
          List.filter
            (fun i -> List.mem peer groups.(i) && not (voted i peer || last i peer))
            (List.init (Array.length entries) Fun.id)
        with
        | [] -> None
        | mine -> Some (peer, mine))
      members
  in
  let deferred =
    ref
      (List.filter
         (fun i -> List.exists (last i) groups.(i))
         (List.init (Array.length entries) Fun.id))
  in
  let outstanding = ref (List.length calls) in
  let done_ = Sim.ivar () in
  (* Confirm here each deferred entry the others have brought to one short
     of its quorum. *)
  let confirm_deferred () =
    let ready, rest =
      List.partition (fun i -> positives.(i) = needed.(i) - 1) !deferred
    in
    deferred := rest;
    List.iter
      (fun i ->
        if on_echo t apply_echo2 (encode_entries [ entries.(i) ]) = positive_reply then
          positives.(i) <- positives.(i) + 1)
      ready
  in
  confirm_deferred ();
  if calls = [] then Sim.fill done_ (Array.copy positives);
  let local =
    if kind = kind_echo1 then fun p -> Some (on_echo t apply_echo1 p)
    else fun p -> Some (on_echo t apply_echo2 p)
  in
  List.iter
    (fun (peer, mine) ->
      let payload = encode_entries (List.map (fun i -> entries.(i)) mine) in
      call_member t ~kind ~peer ~local payload (fun reply ->
          (match reply with
          | Some r when String.length r = List.length mine ->
              List.iteri
                (fun j i -> if r.[j] = positive then positives.(i) <- positives.(i) + 1)
                mine
          | Some _ | None -> ());
          confirm_deferred ();
          decr outstanding;
          let reached = ref true in
          Array.iteri (fun i n -> if positives.(i) < n then reached := false) needed;
          if !reached || !outstanding = 0 then
            ignore (Sim.try_fill done_ (Array.copy positives))))
    calls;
  Sim.read (sim t) done_

let increment_batch t ~entries =
  (* The echo1 alignment is the round's batching wait: the entries are read
     only after it, so whatever the callers appended during it rides
     along. *)
  align t;
  match entries () with
  | [] -> []
  | entries ->
      t.stats.increments <- t.stats.increments + 1;
      List.iter
        (fun e -> t.stats.targets <- t.stats.targets + List.length e.targets)
        entries;
      (* Entries without a quorum of their owner's group drop out; the
         rest go on to the next phase. *)
      let phase kind live =
        let counts = round t ~kind ~entries:live in
        List.partition
          (fun (i, e) -> counts.(i) >= quorum_of (group_of t e.owner))
          (List.mapi (fun i e -> (i, e)) live)
        |> fun (ok, failed) -> (List.map snd ok, List.map snd failed)
      in
      let echoed, lost1 = phase kind_echo1 entries in
      let acked, lost2 =
        if echoed = [] then ([], [])
        else begin
          align t;
          phase kind_echo2 echoed
        end
      in
      if lost1 <> [] || lost2 <> [] then
        t.stats.quorum_failures <- t.stats.quorum_failures + 1;
      if acked <> [] then await_seal t;
      List.map
        (fun e -> (e, if List.memq e acked then `Trusted else `No_quorum))
        entries

let own_entry t targets =
  { owner = Erpc.node_id t.rpc; incarnation = incarnation t; targets }

let increment t ~owner ~log ~value =
  match
    increment_batch t ~entries:(fun () ->
        [ { owner; incarnation = incarnation t; targets = [ (log, value) ] } ])
  with
  | [ (_, `Trusted) ] -> Ok ()
  | _ -> Error `No_quorum

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
  (* Unlike an echo phase, a query waits for every member. *)
  t.stats.rounds <- t.stats.rounds + 1;
  let replies = ref [] in
  let outstanding = ref (List.length t.group) in
  let done_ = Sim.ivar () in
  List.iter
    (fun peer ->
      call_member t ~kind:kind_query ~peer ~local:(fun _ -> None) payload
        (fun reply ->
          Option.iter (fun r -> replies := r :: !replies) reply;
          decr outstanding;
          if !outstanding = 0 then Sim.fill done_ !replies))
    t.group;
  let replies = Sim.read (sim t) done_ in
  let values =
    List.filter_map
      (fun reply ->
        match Wire.r64 (Wire.reader reply) with
        | v -> Some v
        | exception Wire.Malformed _ -> None)
      replies
  in
  let values = local_value t ~owner ~log :: values in
  if List.length replies + 1 < t.quorum then Error `No_quorum
  else Ok (List.fold_left max 0 values)
