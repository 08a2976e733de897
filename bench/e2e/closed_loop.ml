(* Closed-loop terminals for the end-to-end benchmark.

   Each client runs one logical transaction at a time and starts the next
   only after the previous one has returned, as the paper's YCSB and TPC-C
   terminals do, so a slower system receives less load. A transaction that
   aborts on contention is retried with the same inputs after a random
   backoff: every attempt is counted, and the latency a user sees includes
   the retries. A transaction is recorded when it finishes inside the
   window, wherever it started. *)

open Treaty_core
module Sim = Treaty_sim.Sim
module Rng = Treaty_sim.Rng
module Trace = Treaty_obs.Trace
module Latch = Treaty_sched.Scheduler.Latch

(* Raw integer samples with exact nearest-rank percentiles. *)
module Samples = struct
  type t = { mutable data : int array; mutable n : int }

  let create () = { data = Array.make 256 0; n = 0 }

  let add t v =
    if t.n = Array.length t.data then begin
      let bigger = Array.make (2 * t.n) 0 in
      Array.blit t.data 0 bigger 0 t.n;
      t.data <- bigger
    end;
    t.data.(t.n) <- v;
    t.n <- t.n + 1

  let count t = t.n

  let append t src =
    for i = 0 to src.n - 1 do
      add t src.data.(i)
    done

  let percentile t p =
    if t.n = 0 then 0
    else begin
      let a = Array.sub t.data 0 t.n in
      Array.sort compare a;
      let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int t.n)) in
      a.(max 0 (min (t.n - 1) (rank - 1)))
    end
end

type phase = Begin | Exec | Commit | Read_only | New_order | Payment

let phases = [ Begin; Exec; Commit; Read_only; New_order; Payment ]

let phase_index = function
  | Begin -> 0
  | Exec -> 1
  | Commit -> 2
  | Read_only -> 3
  | New_order -> 4
  | Payment -> 5

let phase_name = function
  | Begin -> "begin"
  | Exec -> "exec"
  | Commit -> "commit"
  | Read_only -> "read_only"
  | New_order -> "tpcc_new_order"
  | Payment -> "tpcc_payment"

(* One attempt of a transaction: the client it runs on and the simulated
   time it has spent in each phase so far (-1 when the phase did not run). *)
type attempt = { sim : Sim.t; client : Client.t; times : int array }

let timed a phase span_name f =
  let span =
    Trace.begin_span ~node:(1000 + Client.client_id a.client) ~cat:"client"
      span_name
  in
  let t0 = Sim.now a.sim in
  let r = f () in
  let i = phase_index phase in
  a.times.(i) <- max a.times.(i) 0 + (Sim.now a.sim - t0);
  Trace.end_span span;
  r

(* A logical transaction: [run] executes one attempt and may be called
   again after an abort; [user_bytes] is the key and value bytes it
   writes. *)
type txn = { run : attempt -> unit Types.txn_result; user_bytes : int }

type stats = {
  mutable completed : int;
      (** Committed, or rolled back on purpose (TPC-C's 1% NewOrder). *)
  mutable rolled_back : int;
  mutable attempts : int;
  mutable failed : int;  (** Gave up after [max_attempts]. *)
  mutable user_bytes : int;
  aborts : (string, int) Hashtbl.t;  (** Aborted attempts by reason. *)
  latency : Samples.t;  (** Per completed transaction, retries included. *)
  phase : Samples.t array;  (** Per attempt that ran the phase. *)
  mutable broken : string list;  (** Errors no retry can explain. *)
}

let create_stats () =
  {
    completed = 0;
    rolled_back = 0;
    attempts = 0;
    failed = 0;
    user_bytes = 0;
    aborts = Hashtbl.create 8;
    latency = Samples.create ();
    phase = Array.init (List.length phases) (fun _ -> Samples.create ());
    broken = [];
  }

let reason_name r =
  String.map (fun c -> if c = ' ' then '_' else c) (Types.abort_reason_to_string r)

let max_attempts = 100
let backoff_ns = 1_000_000

(* How a logical transaction ended. TPC-C's deliberate rollback completes
   it; [Abandoned] means the window closed while it was still retrying. *)
type ending = Committed | Rolled_back | Gave_up | Abandoned

(* Spawn [clients] terminals (client ids 1..clients) and block until all
   have stopped. [next] builds a client's transaction generator. [on_tick k]
   fires as a simulator event at [ticks + 1] evenly spaced instants of the
   window, [k = 0] at its start and [k = ticks] at its end, so layer
   counters are read at exactly those simulated instants. Must run in a
   fiber. *)
let run cluster ~clients ~warmup_ns ~window_ns ~ticks ~on_tick ~next =
  let sim = Cluster.sim cluster in
  let stats = create_stats () in
  let measure_from = Sim.now sim + warmup_ns in
  let deadline = measure_from + window_ns in
  for k = 0 to ticks do
    ignore (Sim.at sim ~time:(measure_from + (window_ns * k / ticks)) (fun () -> on_tick k))
  done;
  let record (txn : txn) ~t0 ~t1 ~attempts ending =
    if t1 > measure_from && t1 <= deadline then begin
      stats.attempts <- stats.attempts + List.length attempts;
      List.iter
        (fun (a, outcome) ->
          Array.iteri (fun i v -> if v >= 0 then Samples.add stats.phase.(i) v) a.times;
          match outcome with
          | Some reason ->
              let k = reason_name reason in
              Hashtbl.replace stats.aborts k
                (1 + Option.value ~default:0 (Hashtbl.find_opt stats.aborts k))
          | None -> ())
        attempts;
      match ending with
      | Committed | Rolled_back ->
          stats.completed <- stats.completed + 1;
          if ending = Committed then stats.user_bytes <- stats.user_bytes + txn.user_bytes
          else stats.rolled_back <- stats.rolled_back + 1;
          Samples.add stats.latency (t1 - t0)
      | Gave_up -> stats.failed <- stats.failed + 1
      | Abandoned -> ()
    end
  in
  let latch = Latch.create clients in
  for i = 0 to clients - 1 do
    let rng = Rng.split (Sim.rng sim) in
    Sim.spawn sim (fun () ->
        let client = Client.connect_exn cluster ~client_id:(i + 1) in
        let next = next ~client_index:i rng in
        while Sim.now sim < deadline do
          let txn = next () in
          let t0 = Sim.now sim in
          let rec go n acc =
            let a = { sim; client; times = Array.make (List.length phases) (-1) } in
            match txn.run a with
            | Ok () -> (Committed, (a, None) :: acc)
            | Error Types.Rolled_back -> (Rolled_back, (a, None) :: acc)
            | Error ((Types.Integrity | Types.Unauthenticated) as e) ->
                stats.broken <- reason_name e :: stats.broken;
                (Gave_up, (a, Some e) :: acc)
            | Error e ->
                let acc = (a, Some e) :: acc in
                if n >= max_attempts then (Gave_up, acc)
                else if Sim.now sim >= deadline then (Abandoned, acc)
                else begin
                  Sim.sleep sim (1 + Rng.int rng (backoff_ns * n));
                  go (n + 1) acc
                end
          in
          let ending, attempts = go 1 [] in
          record txn ~t0 ~t1:(Sim.now sim) ~attempts ending
        done;
        Client.disconnect client;
        Latch.arrive latch)
  done;
  Latch.wait (Sim.sched sim) latch;
  stats
