(* Growable ring buffer of thunks: the run-queue primitive. Unlike
   [Queue.t] there is no per-push cell allocation — the hot scheduling path
   (suspend/resume per RPC, per lock wait, per sleep) costs an array store
   and two index updates. *)
module Fring = struct
  type t = {
    mutable buf : (unit -> unit) array;
    mutable head : int;
    mutable len : int;
  }

  let nop () = ()
  let create () = { buf = Array.make 64 nop; head = 0; len = 0 }
  let is_empty q = q.len = 0

  let push q f =
    let cap = Array.length q.buf in
    if q.len = cap then begin
      let buf = Array.make (2 * cap) nop in
      let tail = cap - q.head in
      Array.blit q.buf q.head buf 0 tail;
      Array.blit q.buf 0 buf tail q.head;
      q.buf <- buf;
      q.head <- 0
    end;
    q.buf.((q.head + q.len) land (Array.length q.buf - 1)) <- f;
    q.len <- q.len + 1

  (* only call when non-empty; emptiness is always checked first *)
  let pop q =
    let f = q.buf.(q.head) in
    q.buf.(q.head) <- nop;
    q.head <- (q.head + 1) land (Array.length q.buf - 1);
    q.len <- q.len - 1;
    f
end

type watchdog = {
  wd_now : unit -> int;
  wd_threshold : int;
  wd_report : string -> unit;
}

type fiber_profile = {
  spawned : int;
  completed : int;
  wakeups : int;
  run_ns : int;
  suspended_ns : int;
}

(* Mutable aggregate per fiber label. [run_ns] is lifetime minus parked
   time, credited at completion; [suspended_ns]/[wakeups] accrue at each
   resume so long-lived fibers still show up. *)
type agg = {
  mutable a_spawned : int;
  mutable a_completed : int;
  mutable a_wakeups : int;
  mutable a_run_ns : int;
  mutable a_suspended_ns : int;
}

type profiler = {
  pr_now : unit -> int;
  per_label : (string, agg) Hashtbl.t;
  (* fiber id -> (spawned-at, parked-ns accumulated so far). *)
  active : (int, int * int ref) Hashtbl.t;
}

type t = {
  runq : Fring.t;
  mutable live : int;
  mutable next_fiber : int;
  mutable watchdog : watchdog option;
  mutable profiler : profiler option;
  mutable tracking : bool;
      (* true iff a watchdog or profiler is installed: the suspend/resume
         hot path pays exactly this one branch when observability is off *)
  (* fiber id -> (label, suspended-at) for parked fibers, maintained only
     while a watchdog or profiler is installed. *)
  suspended : (int, string * int) Hashtbl.t;
  flagged : (int, unit) Hashtbl.t;
}

type _ Effect.t +=
  | Yield : t -> unit Effect.t
  | Suspend : t * ((unit -> unit) -> unit) -> unit Effect.t

let create () =
  {
    runq = Fring.create ();
    live = 0;
    next_fiber = 0;
    watchdog = None;
    profiler = None;
    tracking = false;
    suspended = Hashtbl.create 32;
    flagged = Hashtbl.create 8;
  }

let set_watchdog t ~now ~threshold ~report =
  t.watchdog <- Some { wd_now = now; wd_threshold = threshold; wd_report = report };
  t.tracking <- true

let set_profiler t ~now =
  t.profiler <-
    Some { pr_now = now; per_label = Hashtbl.create 16; active = Hashtbl.create 64 };
  t.tracking <- true

let agg_for pr label =
  let label = if label = "" then "anon" else label in
  match Hashtbl.find_opt pr.per_label label with
  | Some a -> a
  | None ->
      let a =
        { a_spawned = 0; a_completed = 0; a_wakeups = 0; a_run_ns = 0;
          a_suspended_ns = 0 }
      in
      Hashtbl.replace pr.per_label label a;
      a

let profile t =
  match t.profiler with
  | None -> []
  | Some pr ->
      Hashtbl.fold
        (fun label a acc ->
          ( label,
            { spawned = a.a_spawned; completed = a.a_completed;
              wakeups = a.a_wakeups; run_ns = a.a_run_ns;
              suspended_ns = a.a_suspended_ns } )
          :: acc)
        pr.per_label []
      |> List.sort (fun (a, _) (b, _) -> compare a b)

let track_spawn t id label =
  match t.profiler with
  | None -> ()
  | Some pr ->
      let a = agg_for pr label in
      a.a_spawned <- a.a_spawned + 1;
      Hashtbl.replace pr.active id (pr.pr_now (), ref 0)

let track_finish t id label =
  match t.profiler with
  | None -> ()
  | Some pr -> (
      match Hashtbl.find_opt pr.active id with
      | None -> ()
      | Some (started, parked) ->
          Hashtbl.remove pr.active id;
          let a = agg_for pr label in
          a.a_completed <- a.a_completed + 1;
          a.a_run_ns <- a.a_run_ns + (pr.pr_now () - started - !parked))

let track_suspend t id label =
  let now =
    match (t.watchdog, t.profiler) with
    | Some wd, _ -> wd.wd_now ()
    | None, Some pr -> pr.pr_now ()
    | None, None -> 0
  in
  Hashtbl.replace t.suspended id (label, now)

let track_resume t id =
  (match t.profiler with
  | None -> ()
  | Some pr -> (
      match Hashtbl.find_opt t.suspended id with
      | None -> ()
      | Some (label, since) ->
          let a = agg_for pr label in
          a.a_wakeups <- a.a_wakeups + 1;
          let parked_ns = pr.pr_now () - since in
          a.a_suspended_ns <- a.a_suspended_ns + parked_ns;
          (match Hashtbl.find_opt pr.active id with
          | Some (_, parked) -> parked := !parked + parked_ns
          | None -> ())));
  Hashtbl.remove t.suspended id;
  Hashtbl.remove t.flagged id

let watchdog_scan t =
  match t.watchdog with
  | None -> ()
  | Some wd ->
      let now = wd.wd_now () in
      Hashtbl.iter
        (fun id (label, since) ->
          if now - since > wd.wd_threshold && not (Hashtbl.mem t.flagged id) then begin
            Hashtbl.replace t.flagged id ();
            wd.wd_report
              (Printf.sprintf "fiber #%d%s suspended for %dns (threshold %dns)"
                 id
                 (if label = "" then "" else " [" ^ label ^ "]")
                 (now - since) wd.wd_threshold)
          end)
        t.suspended

let handler t ~id ~label =
  let open Effect.Deep in
  {
    retc = (fun () -> t.live <- t.live - 1; track_finish t id label);
    exnc = (fun e -> t.live <- t.live - 1; track_finish t id label; raise e);
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Yield _ ->
            Some
              (fun (k : (a, unit) continuation) ->
                Fring.push t.runq (fun () -> continue k ()))
        | Suspend (_, register) ->
            Some
              (fun (k : (a, unit) continuation) ->
                if t.tracking then track_suspend t id label;
                register (fun () ->
                    if t.tracking then track_resume t id;
                    Fring.push t.runq (fun () -> continue k ())))
        | _ -> None);
  }

let spawn ?(label = "") t f =
  t.live <- t.live + 1;
  t.next_fiber <- t.next_fiber + 1;
  let id = t.next_fiber in
  track_spawn t id label;
  Fring.push t.runq (fun () -> Effect.Deep.match_with f () (handler t ~id ~label))

let yield t = Effect.perform (Yield t)
let suspend t register = Effect.perform (Suspend (t, register))

let run_pending t =
  while not (Fring.is_empty t.runq) do
    (Fring.pop t.runq) ()
  done

let live_fibers t = t.live

module Ivar = struct
  type 'a state = Empty of ('a -> unit) list | Full of 'a
  type 'a ivar = { mutable st : 'a state }

  let create () = { st = Empty [] }

  let try_fill iv v =
    match iv.st with
    | Full _ -> false
    | Empty waiters ->
        iv.st <- Full v;
        List.iter (fun w -> w v) (List.rev waiters);
        true

  let on_fill iv f =
    match iv.st with
    | Full v -> f v
    | Empty ws -> iv.st <- Empty (f :: ws)

  let fill iv v =
    if not (try_fill iv v) then invalid_arg "Ivar.fill: already full"

  let is_full iv = match iv.st with Full _ -> true | Empty _ -> false
  let peek iv = match iv.st with Full v -> Some v | Empty _ -> None

  let read sched iv =
    match iv.st with
    | Full v -> v
    | Empty _ ->
        suspend sched (fun waker -> on_fill iv (fun _ -> waker ()));
        (match iv.st with
        | Full v -> v
        | Empty _ ->
            (* The waker only fires from on_fill, which runs after the ivar
               transitioned to Full; an Empty here is unreachable. *)
            assert false)
end

module Latch = struct
  type latch = { mutable remaining : int; done_ : unit Ivar.ivar }

  let create n =
    let l = { remaining = n; done_ = Ivar.create () } in
    if n <= 0 then Ivar.fill l.done_ ();
    l

  let arrive l =
    l.remaining <- l.remaining - 1;
    if l.remaining = 0 then ignore (Ivar.try_fill l.done_ ())

  let wait sched l = Ivar.read sched l.done_
end
