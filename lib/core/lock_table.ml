module Sim = Treaty_sim.Sim
module Enclave = Treaty_tee.Enclave
module Sanitizer = Treaty_util.Sanitizer
module Trace = Treaty_obs.Trace
module Metrics = Treaty_obs.Metrics

type mode = Read | Write

type waiter = {
  wowner : Types.txid;
  wmode : mode;
  granted : unit Sim.ivar;
}

type lock = {
  mutable writer : Types.txid option;
  mutable readers : Types.txid list;
  mutable waiters : waiter list;  (* FIFO: oldest first *)
}

type stats = {
  mutable acquisitions : int;
  mutable waits : int;
  mutable timeouts : int;
  mutable upgrades : int;
}

(* Bound on the TreatySan ended-transaction memory: old entries can no
   longer produce zombie acquisitions worth tracking. *)
let max_ended = 4096

type t = {
  sim : Sim.t;
  enclave : Enclave.t;
  node : int;  (* trace pid lane for lock.wait spans *)
  locks : (string, lock) Hashtbl.t;  (* the keys locked right now *)
  owner_keys : (Types.txid, string list ref) Hashtbl.t;
  timeout_ns : int;
  stats : stats;
  sanitize : bool;
  ended : (Types.txid, unit) Hashtbl.t;
  ended_fifo : Types.txid Queue.t;
}

let await_clear t busy =
  let backoff_ns = 100_000 in
  let rec go waited budget_ns =
    if not (busy ()) then Ok waited
    else if budget_ns <= 0 then Error `Timeout
    else begin
      Sim.sleep t.sim backoff_ns;
      go true (budget_ns - backoff_ns)
    end
  in
  go false t.timeout_ns

let create ?(sanitize = false) ?(node = 0) sim ~enclave ~timeout_ns =
  {
    sim;
    enclave;
    node;
    locks = Hashtbl.create 64;
    owner_keys = Hashtbl.create 64;
    timeout_ns;
    stats = { acquisitions = 0; waits = 0; timeouts = 0; upgrades = 0 };
    sanitize;
    ended = Hashtbl.create 64;
    ended_fifo = Queue.create ();
  }

let stats t = t.stats

let lock_of t key =
  match Hashtbl.find_opt t.locks key with
  | Some l -> l
  | None ->
      let l = { writer = None; readers = []; waiters = [] } in
      Hashtbl.replace t.locks key l;
      l

let remember t owner key =
  match Hashtbl.find_opt t.owner_keys owner with
  | Some keys -> if not (List.mem key !keys) then keys := key :: !keys
  | None -> Hashtbl.replace t.owner_keys owner (ref [ key ])

(* Can [owner] be granted [mode] right now? *)
let compatible l ~owner ~mode =
  match mode with
  | Read -> (
      match l.writer with
      | Some w -> w = owner (* reads under own write lock *)
      | None -> true)
  | Write -> (
      match l.writer with
      | Some w -> w = owner
      | None -> (
          match l.readers with
          | [] -> true
          | [ r ] -> r = owner (* sole-reader upgrade *)
          | _ -> false))

let grant l ~owner ~mode =
  match mode with
  | Read -> if not (List.mem owner l.readers) then l.readers <- owner :: l.readers
  | Write ->
      l.writer <- Some owner;
      l.readers <- List.filter (fun r -> r <> owner) l.readers

(* After a release, hand the lock to as many queued waiters as fit. *)
let rec promote_waiters t key l =
  match l.waiters with
  | [] -> ()
  | w :: rest ->
      if compatible l ~owner:w.wowner ~mode:w.wmode then begin
        l.waiters <- rest;
        grant l ~owner:w.wowner ~mode:w.wmode;
        remember t w.wowner key;
        if Sim.try_fill w.granted () then promote_waiters t key l
        else begin
          (* The waiter timed out concurrently: undo the speculative grant. *)
          (match w.wmode with
          | Write -> if l.writer = Some w.wowner then l.writer <- None
          | Read -> l.readers <- List.filter (fun r -> r <> w.wowner) l.readers);
          promote_waiters t key l
        end
      end

(* Transactions in a fixed total order, the same on every node: lower
   sequence numbers (coordinators number their transactions as they
   begin) are older. *)
let older (a : Types.txid) (b : Types.txid) =
  compare (a.seq, a.coord) (b.seq, b.coord) < 0

(* How long a request by [owner] for [mode] on [l] may wait. A deadlock is
   a cycle of waits, and by the order above some wait in every cycle is an
   older transaction's wait for a younger one: those run out after a
   quarter of the lock timeout, so a deadlock — across nodes too — holds
   its locks, and everything queued behind them, that long at most. The
   others get the whole timeout. The request waits for the holders it
   conflicts with and for the waiters queued before it (promotion is
   FIFO). *)
let wait_budget t l ~owner ~mode =
  let blocks b = b <> owner && older owner b in
  let younger_holder =
    (match l.writer with Some w -> blocks w | None -> false)
    || (mode = Write && List.exists blocks l.readers)
    || List.exists (fun w -> blocks w.wowner) l.waiters
  in
  if younger_holder then t.timeout_ns / 4 else t.timeout_ns

let txid_str (o : Types.txid) = Printf.sprintf "tx(%d,%d)" o.coord o.seq

let acquire ?(span = Trace.none) t ~owner ~key mode =
  t.stats.acquisitions <- t.stats.acquisitions + 1;
  Enclave.compute t.enclave 150;
  if t.sanitize && Hashtbl.mem t.ended owner then
    Sanitizer.record Sanitizer.Lock_zombie
      (Printf.sprintf "%s acquired %S after its txn_end" (txid_str owner) key);
  let l = lock_of t key in
  if compatible l ~owner ~mode then begin
    if mode = Write && List.mem owner l.readers then t.stats.upgrades <- t.stats.upgrades + 1;
    grant l ~owner ~mode;
    remember t owner key;
    Ok ()
  end
  else begin
    t.stats.waits <- t.stats.waits + 1;
    let held_before =
      if t.sanitize then
        match Hashtbl.find_opt t.owner_keys owner with
        | Some keys -> List.length !keys
        | None -> 0
      else 0
    in
    let budget_ns = wait_budget t l ~owner ~mode in
    let w = { wowner = owner; wmode = mode; granted = Sim.ivar () } in
    l.waiters <- l.waiters @ [ w ];
    let wspan =
      Trace.begin_span ~parent:span ~node:t.node ~cat:"core" "lock.wait"
        ~args:
          [ ("key", Trace.Str key);
            ("mode", Trace.Str (match mode with Read -> "r" | Write -> "w")) ]
    in
    let t0 = Sim.now t.sim in
    let finish status =
      Metrics.observe "lock.wait_ns" (Sim.now t.sim - t0);
      Trace.end_span wspan ~args:[ ("status", Trace.Str status) ]
    in
    match Sim.read_timeout t.sim ~ns:budget_ns w.granted with
    | Some () ->
        finish "granted";
        Ok ()
    | None ->
        finish "timeout";
        t.stats.timeouts <- t.stats.timeouts + 1;
        l.waiters <- List.filter (fun w' -> w' != w) l.waiters;
        (* Mark the ivar so a late promotion sees the timeout. *)
        ignore (Sim.try_fill w.granted ());
        if t.sanitize && held_before > 0 then
          (* Hold-and-wait that ran out the clock: the deadlock-suspect
             pattern, resolved by timeout as §V-B intends — a warning. *)
          Sanitizer.record Sanitizer.Lock_conflict
            (Printf.sprintf
               "%s timed out on %S while holding %d other lock(s) across the wait"
               (txid_str owner) key held_before);
        Error `Timeout
  end

let release_all t ~owner =
  match Hashtbl.find_opt t.owner_keys owner with
  | None -> ()
  | Some keys ->
      Hashtbl.remove t.owner_keys owner;
      List.iter
        (fun key ->
          match Hashtbl.find_opt t.locks key with
          | None -> ()
          | Some l ->
              if l.writer = Some owner then l.writer <- None;
              l.readers <- List.filter (fun r -> r <> owner) l.readers;
              promote_waiters t key l;
              if l.writer = None && l.readers = [] && l.waiters = [] then
                Hashtbl.remove t.locks key)
        !keys

let txn_begin t ~owner =
  (* A late-delivered op may legitimately re-open the same txid after an
     abort (the participant builds a fresh context); only acquisitions
     between a txn_end and the next txn_begin are zombies. *)
  if t.sanitize then Hashtbl.remove t.ended owner

let txn_end t ~owner =
  release_all t ~owner;
  if t.sanitize && not (Hashtbl.mem t.ended owner) then begin
    Hashtbl.replace t.ended owner ();
    Queue.push owner t.ended_fifo;
    while Queue.length t.ended_fifo > max_ended do
      Hashtbl.remove t.ended (Queue.pop t.ended_fifo)
    done
  end

let leak_check t =
  if t.sanitize then
    Hashtbl.iter
      (fun owner keys ->
        Sanitizer.record Sanitizer.Lock_leak
          (Printf.sprintf "%s still holds %d lock(s) (e.g. %S)" (txid_str owner)
             (List.length !keys)
             (match !keys with k :: _ -> k | [] -> "")))
      t.owner_keys

let write_locked t ~key =
  match Hashtbl.find_opt t.locks key with
  | None -> false
  | Some l -> l.writer <> None

let holds t ~owner ~key mode =
  match Hashtbl.find_opt t.locks key with
  | None -> false
  | Some l -> (
      match mode with
      | Write -> l.writer = Some owner
      | Read -> List.mem owner l.readers || l.writer = Some owner)

let locked_keys t =
  Hashtbl.fold
    (fun _ l acc -> if l.writer <> None || l.readers <> [] then acc + 1 else acc)
    t.locks 0
