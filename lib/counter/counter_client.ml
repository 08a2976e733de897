module Sim = Treaty_sim.Sim
module Trace = Treaty_obs.Trace

type stats = {
  mutable submits : int;
  mutable rounds_started : int;
  mutable waits : int;
  mutable failed_waits : int;
}

type log_state = {
  mutable stable : int;
  mutable target : int;  (* highest appended value: what a round carries *)
  mutable wanted : int;
      (* highest value a submit or a waiter asked for: what keeps the pump
         running. Noted appends raise [target] only and ride along. *)
  mutable waiters : (int * (unit, [ `Stability_timeout ]) result Sim.ivar) list;
}

type t = {
  replica : Rote.replica;
  owner : int;
  sim : Sim.t;
  logs : (string, log_state) Hashtbl.t;
  mutable foreign :
    (Rote.entry list * (unit, [ `Stability_timeout ]) result Sim.ivar) list;
      (* Other owners' entries waiting for the next round, newest first,
         each with the ivar of the waiter that brought them. *)
  stats : stats;
  mutable pump_active : bool;
  mutable round_span : Trace.span;
      (* Open "rote.round" span: begun by the first submit or wait since
         the last round completed — while its caller (a group-commit flush
         span or a stab.wait span) is still open, so the parent link is
         well-formed — and ended when the round that covers it finishes. *)
}

(* Consecutive no-quorum rounds (or recovery queries) before giving up,
   and the sleep between two of them. *)
let max_attempts = 40
let retry_backoff_ns = 2_000_000

let create replica ~owner =
  {
    replica;
    owner;
    sim = Rote.sim replica;
    logs = Hashtbl.create 8;
    foreign = [];
    stats = { submits = 0; rounds_started = 0; waits = 0; failed_waits = 0 };
    pump_active = false;
    round_span = Trace.none;
  }

let log_state t log =
  match Hashtbl.find_opt t.logs log with
  | Some s -> s
  | None ->
      let s = { stable = 0; target = 0; wanted = 0; waiters = [] } in
      Hashtbl.replace t.logs log s;
      s

let wake_waiters s =
  let ready, rest = List.partition (fun (c, _) -> c <= s.stable) s.waiters in
  s.waiters <- rest;
  List.iter (fun (_, iv) -> Sim.fill iv (Ok ())) ready

(* Every log with appends ahead of its trusted value, sorted by name so
   the batch an epoch carries is independent of Hashtbl iteration order. *)
let pending_targets t =
  Hashtbl.fold
    (fun log s acc -> if s.target > s.stable then (log, s.target) :: acc else acc)
    t.logs []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* Whether a submit or a waiter still asks for a round. *)
let wanted t = Hashtbl.fold (fun _ s acc -> acc || s.wanted > s.stable) t.logs false

let fail t iv =
  t.stats.failed_waits <- t.stats.failed_waits + 1;
  Sim.fill iv (Error `Stability_timeout)

let fail_all_waiters t =
  Hashtbl.iter
    (fun _ s ->
      let abandoned = s.waiters in
      s.waiters <- [];
      List.iter (fun (_, iv) -> fail t iv) abandoned)
    t.logs;
  let abandoned = t.foreign in
  t.foreign <- [];
  List.iter (fun (_, iv) -> fail t iv) abandoned

(* Settle the foreign waiters a round carried: each succeeds only if all
   of its entries are trusted. They are never retried. *)
let settle_foreign t carried results =
  List.iter
    (fun (entries, iv) ->
      if
        List.for_all
          (fun e -> List.exists (fun (e', r) -> e' == e && r = `Trusted) results)
          entries
      then Sim.fill iv (Ok ())
      else fail t iv)
    carried

(* Whether a submit or a waiter asks for a round, or a waiter brought
   other owners' entries. *)
let asked t = wanted t || t.foreign <> []

(* The epoch pump: while a submit or a waiter asks for a value not yet
   trusted, or a waiter brought other owners' entries, run one batched
   ROTE increment carrying the high-water mark of every log with appends
   ahead of its trusted value (noted ones included) and those entries,
   then wake the waiters it covered. The targets are read when ROTE's
   epoch alignment ends, so every append made during that wait rides the
   round: its cost is shared by every transaction that lands inside it
   (group commit applied to counter rounds). One pump per client —
   cross-log batching replaces the old one-round-in-flight-per-log
   machinery. Own targets that miss their quorum are retried; foreign
   entries ride exactly one round. An [early] round ({!start_early}) runs
   before anyone asks: if nobody has when its alignment ends, it reads no
   entries, sends nothing and is not counted, and the pump stops. *)
let rec pump ?(early = false) t ~attempts =
  (* A noted target alone does not start a round; it rides the next one. *)
  if not (early || asked t) then t.pump_active <- false
  else begin
    if Trace.enabled () && t.round_span = Trace.none && not early then
      (* Back-to-back rounds drained by one pump run: targets landed while
         the previous round was in flight, no caller span to parent on. *)
      t.round_span <-
        Trace.begin_span ~node:t.owner ~cat:"counter" "rote.round";
    let end_round targets status =
      let rs = t.round_span in
      t.round_span <- Trace.none;
      Trace.end_span rs
        ~args:
          [ ("targets", Trace.Int targets); ("status", Trace.Str status) ]
    in
    let own = ref None and carried = ref [] in
    let results =
      Rote.increment_batch t.replica ~entries:(fun () ->
          if not (asked t) then []
          else begin
            t.stats.rounds_started <- t.stats.rounds_started + 1;
            carried := List.rev t.foreign;
            t.foreign <- [];
            let foreign = List.concat_map fst !carried in
            match pending_targets t with
            | [] -> foreign
            | targets ->
                let e = Rote.own_entry t.replica targets in
                own := Some e;
                e :: foreign
          end)
    in
    settle_foreign t !carried results;
    let carried_targets =
      List.fold_left (fun n (e, _) -> n + List.length e.Rote.targets) 0 results
    in
    match !own with
    | Some e when List.assq e results = `No_quorum ->
        (* Availability loss, not a safety issue: retry with a backoff (the
           fault model is crash-recovery, so the quorum normally returns).
           Bounded so a torn-down cluster drains instead of spinning; when
           retries are exhausted every waiter is failed with
           [`Stability_timeout] — a later submit restarts the pump with a
           fresh retry budget. *)
        if attempts > 0 then begin
          Sim.sleep t.sim retry_backoff_ns;
          pump t ~attempts:(attempts - 1)
        end
        else begin
          end_round carried_targets "no_quorum";
          t.pump_active <- false;
          fail_all_waiters t
        end
    | own ->
        end_round carried_targets "ok";
        Option.iter
          (fun e ->
            List.iter
              (fun (log, value) ->
                let s = log_state t log in
                s.stable <- max s.stable value;
                wake_waiters s)
              e.Rote.targets)
          own;
        pump t ~attempts:max_attempts
  end

(* Make sure a round will run: open the "rote.round" span as a child of
   [span] if none is open, and start the pump if it is idle. *)
let start_round t ~span =
  if Trace.enabled () && t.round_span = Trace.none then
    t.round_span <-
      Trace.begin_span ~parent:span ~node:t.owner ~cat:"counter" "rote.round";
  if not t.pump_active then begin
    t.pump_active <- true;
    Sim.spawn t.sim (fun () -> pump t ~attempts:max_attempts)
  end

(* Ask for [counter] of [s]'s log to become trusted: the pump carries it in
   its next round, starting one (under a "rote.round" span parented on
   [span]) if none is running. *)
let want t s ~span ~counter =
  if counter > s.target then s.target <- counter;
  if counter > s.wanted then s.wanted <- counter;
  start_round t ~span

let submit ?(span = Trace.none) t ~log ~counter =
  t.stats.submits <- t.stats.submits + 1;
  let s = log_state t log in
  if counter > s.stable then want t s ~span ~counter

let note t ~log ~counter =
  let s = log_state t log in
  if counter > s.target then s.target <- counter

(* A waiter is expected soon: if the pump is idle, start a round now, so
   that its alignment runs until the waiter comes. *)
let start_early t =
  if not t.pump_active then begin
    t.pump_active <- true;
    Sim.spawn t.sim (fun () -> pump ~early:true t ~attempts:max_attempts)
  end

let wait_stable ?(span = Trace.none) ?(foreign = []) t ~log ~counter =
  let s = log_state t log in
  let foreign_done =
    if foreign = [] then None
    else begin
      let iv = Sim.ivar () in
      t.foreign <- (foreign, iv) :: t.foreign;
      start_round t ~span;
      Some iv
    end
  in
  let own =
    if counter <= s.stable then Ok ()
    else begin
      t.stats.waits <- t.stats.waits + 1;
      let iv = Sim.ivar () in
      s.waiters <- (counter, iv) :: s.waiters;
      want t s ~span ~counter;
      Sim.read t.sim iv
    end
  in
  match Option.map (Sim.read t.sim) foreign_done with
  | Some (Error _ as e) -> e
  | Some (Ok ()) | None -> own

let stability t =
  {
    Treaty_storage.Engine.submit =
      (fun ~span ~log ~counter -> submit ~span t ~log ~counter);
    note = note t;
    wait_stable = (fun ~span ~log ~counter -> wait_stable ~span t ~log ~counter);
  }

let stable_value t ~log = (log_state t log).stable
let stats t = t.stats

(* The group may be down with this node, every member restarting. Keep
   asking with the pump's retry budget: this replica stays up meanwhile
   and answers the others' queries, so members restarting at about the
   same time find their quorum in each other. *)
let trusted_for_recovery t ~log =
  let rec ask attempts =
    match Rote.query t.replica ~owner:t.owner ~log with
    | Error `No_quorum when attempts > 0 ->
        Sim.sleep t.sim retry_backoff_ns;
        ask (attempts - 1)
    | r -> r
  in
  ask max_attempts
