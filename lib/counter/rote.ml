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
   also fixes the order [round] contacts it in. The ring is sorted once
   per membership: a replica derives every owner's group from it. *)
let groups_of ~members =
  let not_member () = invalid_arg "Rote.protection_group: self is not a member" in
  let size = (2 * fault_threshold) + 1 in
  if List.length members <= size then fun self ->
    if List.mem self members then members else not_member ()
  else begin
    let ring = Array.of_list (List.sort_uniq compare members) in
    let n = Array.length ring in
    fun self ->
      let rec index i =
        if i = n then not_member () else if ring.(i) = self then i else index (i + 1)
      in
      let at = index 0 in
      List.sort compare (List.init (min n size) (fun k -> ring.((at + k) mod n)))
  end

let protection_group ~self ~members = groups_of ~members self

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
  group_for : int -> int list;  (* an owner's protection group *)
  groups : (int, int list) Hashtbl.t;  (* [group_for]'s results, by owner *)
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
   one-entry payload is as small as the single-owner format was, and a
   payload is its entries' encodings ([encode_entry]) put end to end. Node
   ids and incarnations (< 2^22, [Aead.Iv_gen]) take 32 bits each. *)
let encode_entry e =
  let b = Buffer.create 64 in
  Wire.w32 b e.owner;
  Wire.w32 b e.incarnation;
  Wire.wlist b
    (fun b (log, value) ->
      Wire.wstr b log;
      Wire.w64 b value)
    e.targets;
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

(* Decoded echo entries through [apply]: one status byte per entry, in
   payload order. *)
let statuses t apply entries =
  let status { owner; incarnation; targets } =
    if current t ~owner ~incarnation && apply t ~owner targets then positive
    else negative
  in
  match entries with
  | [ e ] ->
      (* An own round's one-entry reply is one of two shared strings:
         replies stay in the at-most-once cache until the caller's next
         request acks them. *)
      if status e = positive then positive_reply else negative_reply
  | entries ->
      let b = Bytes.create (List.length entries) in
      List.iteri (fun i e -> Bytes.set b i (status e)) entries;
      Bytes.unsafe_to_string b

(* Total over peer bytes: a malformed payload gets "nack", which [round]
   reads as no positive status. *)
let on_echo t apply payload =
  match decode_entries payload with
  | entries -> statuses t apply entries
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
      group_for = groups_of ~members;
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
  Erpc.register rpc ~kind:kind_echo1 (fun _meta payload ->
      proc_cost t;
      on_echo t apply_echo1 payload);
  let self = Erpc.node_id rpc in
  Erpc.register rpc ~kind:kind_echo2 (fun _meta payload ->
      proc_cost t;
      match decode_entries payload with
      | exception Wire.Malformed _ -> "nack"
      | entries ->
          let reply = statuses t apply_echo2 entries in
          (* Another node's round — a coordinator's commit point — made a
             value of this node's own logs trusted here. Ack it only once a
             persisted seal holds it, as the sender of an own round does:
             this node's recovery query counts its own sealed value towards
             the quorum, so a value it confirmed must survive its crash.
             Concurrent confirmations share one seal. *)
          List.iteri
            (fun i e ->
              if e.owner = self && reply.[i] = positive then await_sealed t e.targets)
            entries;
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
        let g = t.group_for owner in
        Hashtbl.replace t.groups owner g;
        g

(* Send [payload] to [peer], or run [local] when [peer] is this node, and
   hand the reply, if any, to [arrive]. *)
let call_member t ~kind ~peer ~local payload arrive =
  Sim.spawn (sim t) (fun () ->
      if peer = Erpc.node_id t.rpc then begin
        (* Local participation without a network hop. *)
        proc_cost t;
        arrive (local ())
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

(* What both phases of one increment share, per entry: its recipients,
   the quorum of its owner's group, and its wire encoding, made when a
   phase first sends it. *)
type batch = {
  entries : entry array;
  recipients : int list array;
  needed : int array;
  encoded : string array;
}

let payload b mine =
  let encoded i =
    if b.encoded.(i) = "" then b.encoded.(i) <- encode_entry b.entries.(i);
    b.encoded.(i)
  in
  match mine with [ i ] -> encoded i | mine -> String.concat "" (List.map encoded mine)

(* One echo phase over the entries [live] (indices into [b]): it goes to
   the union of their recipients (the first entry's in order, then each
   further entry's new ones), and each member receives only the entries
   sent to it. Another owner's entry is its owner's vote, and skips the
   owner in the first phase: the vote was its echo ([note_vote]), so it
   counts as positive there without a message. In the second phase this
   node confirms another owner's entry last, once the rest of a quorum
   has: a round that fails for a voter leaves its value pending here, not
   committed. [on_quorum i] runs when entry [i] reaches a quorum of its
   owner's group (self counts like any replica). Returns the entries that
   reached one, as soon as every entry has or every member has answered;
   the remaining calls finish in their own fibers, so one member that is
   down costs nothing instead of its RPC timeout. *)
let round t b ~kind ~live ~on_quorum =
  t.stats.rounds <- t.stats.rounds + 1;
  let self = Erpc.node_id t.rpc in
  let positives = Array.make (Array.length b.entries) 0 in
  let credit i =
    positives.(i) <- positives.(i) + 1;
    if positives.(i) = b.needed.(i) then on_quorum i
  in
  (* Each member with the entries it receives, newest member first. *)
  let members = ref [] and deferred = ref [] in
  List.iter
    (fun i ->
      let owner = b.entries.(i).owner in
      List.iter
        (fun peer ->
          let mine =
            match List.assoc_opt peer !members with
            | Some mine -> mine
            | None ->
                let mine = ref [] in
                members := (peer, mine) :: !members;
                mine
          in
          if kind = kind_echo1 && peer = owner && peer <> self then credit i
          else if kind = kind_echo2 && peer = self && owner <> self then
            deferred := i :: !deferred
          else mine := i :: !mine)
        b.recipients.(i))
    live;
  let calls =
    List.fold_left
      (fun calls (peer, mine) ->
        if !mine = [] then calls else (peer, List.rev !mine) :: calls)
      [] !members
  in
  deferred := List.rev !deferred;
  let reached i = positives.(i) >= b.needed.(i) in
  let passed () = List.filter reached live in
  let outstanding = ref (List.length calls) in
  let done_ = Sim.ivar () in
  (* Confirm here each deferred entry the others have brought to one short
     of its quorum. *)
  let confirm_deferred () =
    if !deferred <> [] then begin
      let ready, rest =
        List.partition (fun i -> positives.(i) = b.needed.(i) - 1) !deferred
      in
      deferred := rest;
      List.iter
        (fun i ->
          if statuses t apply_echo2 [ b.entries.(i) ] = positive_reply then credit i)
        ready
    end
  in
  confirm_deferred ();
  if calls = [] then Sim.fill done_ (passed ());
  let apply = if kind = kind_echo1 then apply_echo1 else apply_echo2 in
  List.iter
    (fun (peer, mine) ->
      let local () = Some (statuses t apply (List.map (fun i -> b.entries.(i)) mine)) in
      let payload = if peer = self then "" else payload b mine in
      call_member t ~kind ~peer ~local payload (fun reply ->
          (match reply with
          | Some r when String.length r = List.length mine ->
              List.iteri (fun j i -> if r.[j] = positive then credit i) mine
          | Some _ | None -> ());
          confirm_deferred ();
          decr outstanding;
          if !outstanding = 0 || List.for_all reached live then
            ignore (Sim.try_fill done_ (passed ()))))
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
      let self = Erpc.node_id t.rpc in
      let es = Array.of_list entries in
      let b =
        {
          entries = es;
          recipients = Array.map (recipients t) es;
          needed = Array.map (fun e -> quorum_of (group_of t e.owner)) es;
          encoded = Array.make (Array.length es) "";
        }
      in
      let all = List.init (Array.length es) Fun.id in
      (* Whether this node confirms another owner's entry (last, in the
         second phase). *)
      let confirms_foreign =
        List.exists (fun i -> es.(i).owner <> self && List.mem self b.recipients.(i)) all
      in
      (* Entries without a quorum of their owner's group drop out; the
         rest go on to the next phase. When this node confirms no other
         owner's entry, its seal starts as soon as its own entry has its
         second-phase quorum, while the other owners' entries are still in
         flight: it holds no own value the group has not confirmed, and
         this node confirms nothing else in the round that it must hold. *)
      let echoed = round t b ~kind:kind_echo1 ~live:all ~on_quorum:ignore in
      let acked =
        if echoed = [] then []
        else begin
          align t;
          round t b ~kind:kind_echo2 ~live:echoed ~on_quorum:(fun i ->
              if es.(i).owner = self && not confirms_foreign then
                ignore (request_seal t))
        end
      in
      if List.length acked < Array.length es then
        t.stats.quorum_failures <- t.stats.quorum_failures + 1;
      (* A trusted own entry is reported once a persisted seal holds it.
         A seal that must also hold other owners' values confirmed here
         starts now, after the last of those confirmations. *)
      if confirms_foreign then (if acked <> [] then await_seal t)
      else
        List.iter
          (fun i -> if es.(i).owner = self then await_sealed t es.(i).targets)
          acked;
      List.mapi
        (fun i e -> (e, if List.mem i acked then `Trusted else `No_quorum))
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
      call_member t ~kind:kind_query ~peer ~local:(fun () -> None) payload
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
