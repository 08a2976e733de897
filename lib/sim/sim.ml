module Scheduler = Treaty_sched.Scheduler

type t = {
  scheduler : Scheduler.t;
  events : Eventq.t;
  mutable clock : int;
  root_rng : Rng.t;
  mutable watchdog_every : int;  (** 0 = fiber watchdog off *)
  mutable watchdog_last_scan : int;
}

let create ?(seed = 0x7E47E47E4L) () =
  {
    scheduler = Scheduler.create ();
    events = Eventq.create ();
    clock = 0;
    root_rng = Rng.create seed;
    watchdog_every = 0;
    watchdog_last_scan = 0;
  }

let enable_fiber_watchdog t ~threshold_ns ~report =
  Scheduler.set_watchdog t.scheduler
    ~now:(fun () -> t.clock)
    ~threshold:threshold_ns ~report;
  t.watchdog_every <- max 1_000_000 (threshold_ns / 4);
  t.watchdog_last_scan <- t.clock

let enable_fiber_profile t =
  Scheduler.set_profiler t.scheduler ~now:(fun () -> t.clock)

let fiber_profile t = Scheduler.profile t.scheduler

let now t = t.clock
let rng t = t.root_rng
let sched t = t.scheduler
let spawn ?label t f = Scheduler.spawn ?label t.scheduler f
let yield t = Scheduler.yield t.scheduler

let at t ~time fn =
  if time < t.clock then invalid_arg "Sim.at: time in the past";
  Eventq.add t.events ~time fn

let after t ~ns fn = at t ~time:(t.clock + ns) fn

let sleep t ns =
  if ns > 0 then
    (* The waker is already [unit -> unit]: ride the pooled timer record
       directly instead of wrapping it in a fresh closure. *)
    Scheduler.suspend t.scheduler (fun waker ->
        ignore (Eventq.add t.events ~time:(t.clock + ns) waker))
  else yield t

let events_fired t = Eventq.fired t.events
let events_live t = Eventq.size t.events
let events_allocated t = Eventq.allocated t.events

let run t main =
  spawn t main;
  let rec loop () =
    Scheduler.run_pending t.scheduler;
    if t.watchdog_every > 0 && t.clock - t.watchdog_last_scan >= t.watchdog_every
    then begin
      t.watchdog_last_scan <- t.clock;
      Scheduler.watchdog_scan t.scheduler
    end;
    match Eventq.pop t.events with
    | Some (time, fn) ->
        if time > t.clock then t.clock <- time;
        fn ();
        loop ()
    | None -> ()
  in
  loop ()

type 'a ivar = 'a Scheduler.Ivar.ivar

let ivar () = Scheduler.Ivar.create ()
let fill iv v = Scheduler.Ivar.fill iv v
let try_fill iv v = Scheduler.Ivar.try_fill iv v
let read t iv = Scheduler.Ivar.read t.scheduler iv

let fan_out t xs ~local f =
  let latch = Scheduler.Latch.create (List.length xs) in
  let slots =
    List.map
      (fun x ->
        let slot = ref None in
        spawn t (fun () ->
            slot := Some (f x);
            Scheduler.Latch.arrive latch);
        slot)
      xs
  in
  let r = local () in
  Scheduler.Latch.wait t.scheduler latch;
  (* Every branch filled its slot before it arrived at the latch. *)
  (r, List.map (fun slot -> Option.get !slot) slots)

let read_timeout t ~ns iv =
  match Scheduler.Ivar.peek iv with
  | Some _ as v -> v
  | None ->
      let result = ref None in
      Scheduler.suspend t.scheduler (fun waker ->
          let timer = Eventq.add t.events ~time:(t.clock + ns) waker in
          Scheduler.Ivar.on_fill iv (fun v ->
              (* Cancel returning true means the timer had not fired: this
                 fill wins the race and must wake the fiber itself. A false
                 return means the timeout already ran — the fiber resumed
                 with [None] and the pooled record is long reclaimed. *)
              if Eventq.cancel t.events timer then begin
                result := Some v;
                waker ()
              end));
      !result

module Resource = struct
  type resource = {
    sim : t;
    name : string;
    capacity : int;
    mutable used : int;
    waiters : (unit -> unit) Queue.t;
    mutable busy : int;
  }

  let create sim ~capacity name =
    if capacity <= 0 then invalid_arg "Resource.create: capacity";
    { sim; name; capacity; used = 0; waiters = Queue.create (); busy = 0 }

  let acquire r =
    if r.used < r.capacity then r.used <- r.used + 1
    else
      Scheduler.suspend r.sim.scheduler (fun waker -> Queue.push waker r.waiters)

  let release r =
    match Queue.take_opt r.waiters with
    | Some waker -> waker () (* hand the slot directly to the next waiter *)
    | None -> r.used <- r.used - 1

  let consume r ns =
    acquire r;
    r.busy <- r.busy + ns;
    sleep r.sim ns;
    release r

  let in_use r = r.used
  let queue_length r = Queue.length r.waiters
  let busy_ns r = r.busy
end
