(* End-to-end benchmark on both clocks.

     dune exec bench/e2e/main.exe -- [--workload W[,W..]] [--seed N]
       [--seconds S] [--trace 0|1] [--trace-out DIR] [--smoke]

   Simulated-time metrics (what the modelled Treaty system costs) come out
   of the closed loop; wall-time metrics (what the simulator costs) are
   read at evenly spaced simulator events across the window. Each workload
   runs [sub_runs] sub-seeds derived from --seed, each on a fresh Sim, and
   pools them: that fixed set gives the simulated-time metrics, which are
   therefore a pure function of the seed. While --seconds of wall time have
   not passed, sub-runs are repeated to sample wall time again; a repeat
   must reproduce its simulated outcome exactly. --trace 1 also reruns
   every sub-seed with spans, the metrics registry and history recording
   on, requires the same simulated outcome, and reports the per-layer
   ledger.

   Every metric is printed as `workload metric value unit`; with a single
   workload the last line is one JSON object with the metrics of the run
   (end-to-end ones untraced, per-layer ones with --trace 1). The exit code
   is non-zero when any correctness check fails. *)

open Treaty_core
module Sim = Treaty_sim.Sim
module Rng = Treaty_sim.Rng
module Metrics = Treaty_obs.Metrics
module Trace = Treaty_obs.Trace
module CL = Closed_loop
module Samples = CL.Samples

let quiesce_ns = 3_500_000_000

(* Wall time is read at [ticks + 1] instants of each window. A neighbour on
   a shared host slows some stretches of a run and not others, so the
   wall cost of an event is the median over the stretches between ticks. *)
let ticks = 20

(* How much a run samples. setup_s is the median of at least [min_setups]
   set-ups, and of more (up to [max_setups]) while they add up to less than
   [setup_budget_s]: a set-up of a few tens of milliseconds is at the mercy
   of one scheduling hiccup. *)
type plan = { sub_runs : int; min_setups : int; setup_budget_s : float }

let full = { sub_runs = 3; min_setups = 5; setup_budget_s = 2.0 }
let smoke_plan = { sub_runs = 1; min_setups = 1; setup_budget_s = 0.0 }
let max_setups = 40
let cores_per_node = 2

let config_of (w : Workloads.t) ~traced =
  let base =
    Config.with_profile
      { Config.default with record_history = traced }
      {
        Config.treaty_enc_stab with
        Config.trace = traced;
        metrics = traced;
        block_cache_bytes = w.cache_bytes;
      }
  in
  { base with Config.nodes = w.nodes; cores_per_node; isolation = w.isolation }

(* Bootstrap, attestation, load and flush, timed on the wall clock. *)
let bring_up (w : Workloads.t) sim ~traced =
  let rng = Rng.split (Sim.rng sim) in
  let t0 = Unix.gettimeofday () in
  let route = Option.map (fun r -> r ~nodes:w.nodes) w.route in
  match Cluster.create sim (config_of w ~traced) ?route () with
  | Error m -> failwith ("cluster bootstrap failed: " ^ m)
  | Ok cluster ->
      w.setup cluster rng;
      (cluster, Unix.gettimeofday () -. t0)

(* A set-up sample. The simulation is abandoned as soon as the set-up is
   done: draining a stopped 100-node cluster costs ten times the set-up. *)
exception Set_up of float

let setup_only w ~seed =
  Gc.compact ();
  let sim = Sim.create ~seed () in
  match Sim.run sim (fun () -> raise (Set_up (snd (bring_up w sim ~traced:false)))) with
  | () -> failwith "set-up returned without a sample"
  | exception Set_up s -> s

(* One sub-run: a fresh cluster, set-up, the closed loop, a drain, and the
   correctness gate. *)
type rep = {
  setup_s : float;
  stats : CL.stats;
  window : Ledger.delta;
  ns_per_event : float list;  (** Wall ns per simulator event, per stretch. *)
  registry : Ledger.registry option;
  selfs : (string * (int * int)) list;
  timer_pool : int;
  errors : string list;
}

let sub_seed seed i = Int64.(add (mul (of_int seed) 1_000_003L) (of_int i))

let run_rep (w : Workloads.t) ~seed ~traced ~trace_out =
  Gc.compact ();
  let sim = Sim.create ~seed () in
  let result = ref None in
  Sim.run sim (fun () ->
      let cluster, setup_s = bring_up w sim ~traced in
      let window = Ledger.empty () and registry = ref None in
      let start = ref None and from = ref 0 and until = ref 0 in
      let marks = ref [] in
      let on_tick k =
        marks := (Unix.gettimeofday (), Sim.events_fired sim) :: !marks;
        if k = 0 then begin
          if traced then Metrics.reset ();
          from := Sim.now sim;
          start := Some (Ledger.take cluster)
        end
        else if k = ticks then begin
          until := Sim.now sim;
          Ledger.add_window window ~start:(Option.get !start) ~stop:(Ledger.take cluster);
          if traced then registry := Some (Ledger.read_registry cluster)
        end
      in
      let stats =
        CL.run cluster ~clients:w.clients ~warmup_ns:w.warmup_ns
          ~window_ns:w.window_ns ~ticks ~on_tick ~next:(w.next cluster)
      in
      Sim.sleep sim quiesce_ns;
      let errors = ref (List.rev stats.broken) in
      let fail m = errors := m :: !errors in
      if stats.completed = 0 then fail "no transaction completed in the window";
      (match Cluster.check_quiescent cluster with
      | Ok () -> ()
      | Error m -> fail ("not quiescent: " ^ m));
      (match w.check cluster with Ok () -> () | Error m -> fail m);
      (if traced then
         match Cluster.history cluster with
         | Some h -> (
             match Serializability.check h with
             | Serializability.Serializable -> ()
             | v -> fail (Format.asprintf "history: %a" Serializability.pp_verdict v))
         | None -> fail "history was not recorded");
      Cluster.shutdown cluster;
      let rec stretches = function
        | (w1, e1) :: ((w0, e0) :: _ as rest) ->
            ((w1 -. w0) *. 1e9 /. float_of_int (max 1 (e1 - e0))) :: stretches rest
        | _ -> []
      in
      (match trace_out with
      | Some dir when traced ->
          Trace.export_file (Filename.concat dir (Printf.sprintf "%s-%Ld.json" w.name seed))
      | _ -> ());
      result :=
        Some
          {
            setup_s;
            stats;
            window;
            ns_per_event = stretches !marks;
            registry = !registry;
            selfs = (if traced then Ledger.self_times ~from:!from ~until:!until else []);
            timer_pool = Sim.events_allocated sim;
            errors = List.rev !errors;
          });
  if traced then begin
    Trace.disable ();
    Trace.reset ();
    Metrics.disable ();
    Metrics.reset ()
  end;
  Option.get !result

let median l =
  match List.sort compare l with
  | [] -> 0.0
  | s ->
      let n = List.length s in
      if n mod 2 = 1 then List.nth s (n / 2)
      else (List.nth s ((n / 2) - 1) +. List.nth s (n / 2)) /. 2.0

(* --- metrics ------------------------------------------------------------- *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }
let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b
let ms_of_ns ns = float_of_int ns /. 1e6

(* Sub-runs pooled: totals, merged samples and summed window deltas. *)
type pool = {
  stats : CL.stats;
  ledger : Ledger.delta;
  registry : Ledger.registry;
  selfs : (string, int * int) Hashtbl.t;
  window_ns : int;
  timer_pool : int;
}

let pool (w : Workloads.t) (reps : rep list) =
  let stats = CL.create_stats () and ledger = Ledger.empty () in
  let selfs = Hashtbl.create 32 in
  let add tbl k v = Hashtbl.replace tbl k (v + Option.value ~default:0 (Hashtbl.find_opt tbl k)) in
  let registry =
    List.fold_left
      (fun acc (r : rep) ->
        let s = r.stats in
        stats.completed <- stats.completed + s.completed;
        stats.rolled_back <- stats.rolled_back + s.rolled_back;
        stats.attempts <- stats.attempts + s.attempts;
        stats.failed <- stats.failed + s.failed;
        stats.user_bytes <- stats.user_bytes + s.user_bytes;
        Hashtbl.iter (add stats.aborts) s.aborts;
        Samples.append stats.latency s.latency;
        Array.iteri (fun i p -> Samples.append stats.phase.(i) p) s.phase;
        Hashtbl.iter (add ledger.d) r.window.d;
        ledger.alloc_bytes <- ledger.alloc_bytes +. r.window.alloc_bytes;
        List.iter
          (fun (k, (n, ns)) ->
            let n0, ns0 = Option.value ~default:(0, 0) (Hashtbl.find_opt selfs k) in
            Hashtbl.replace selfs k (n0 + n, ns0 + ns))
          r.selfs;
        match r.registry with Some g -> Ledger.merge_registry acc g | None -> acc)
      (Ledger.empty_registry ()) reps
  in
  {
    stats;
    ledger;
    registry;
    selfs;
    window_ns = w.window_ns * List.length reps;
    timer_pool = List.fold_left (fun acc (r : rep) -> max acc r.timer_pool) 0 reps;
  }

let ns_per_event reps = median (List.concat_map (fun r -> r.ns_per_event) reps)
let events_per_txn p = ratio (Ledger.get p.ledger "sim.events") p.stats.completed

let end_to_end (w : Workloads.t) p ~all_reps ~setups ~peak_heap_words =
  let lat pct = ms_of_ns (Samples.percentile p.stats.latency pct) in
  [
    m "tps" "txn/s" (float_of_int p.stats.completed /. (float_of_int p.window_ns /. 1e9));
    m "lat_p50_ms" "ms" (lat 50.0);
    m "lat_tail_ms" "ms" (lat w.tail_pct);
    m "attempts_per_txn" "count" (ratio p.stats.attempts p.stats.completed);
    m "wall_us_per_txn" "us" (ns_per_event all_reps *. events_per_txn p /. 1e3);
    m "peak_heap_mb" "MB" (float_of_int (peak_heap_words * (Sys.word_size / 8)) /. 1e6);
    m "setup_s" "s" (median setups);
  ]

let client_abort_reasons =
  [ "lock_timeout"; "validation_failed"; "participant_failed"; "stabilization_unavailable" ]

let per_layer (w : Workloads.t) p ~untraced ~wall_ns_per_event ~overhead_pct =
  let d = Ledger.get p.ledger in
  let per_txn x = ratio x p.stats.completed in
  let count x = float_of_int x in
  let phase ph pct = ms_of_ns (Samples.percentile p.stats.phase.(CL.phase_index ph) pct) in
  let hist name pct = ms_of_ns (Metrics.Hist.percentile (List.assoc name p.registry.hists) pct) in
  let self name =
    match Hashtbl.find_opt p.selfs name with
    | Some (n, ns) when n > 0 -> ms_of_ns ns /. float_of_int n
    | _ -> 0.0
  in
  let cores = float_of_int (p.window_ns * w.nodes * cores_per_node) in
  List.map (fun ph -> m ("client." ^ CL.phase_name ph ^ "_ms_p50") "ms" (phase ph 50.0)) CL.phases
  @ [
      m "client.commit_ms_p99" "ms" (phase CL.Commit 99.0);
      m "client.rolled_back" "count" (count p.stats.rolled_back);
    ]
  @ List.map
      (fun r ->
        m ("client.abort." ^ r) "count"
          (count (Option.value ~default:0 (Hashtbl.find_opt p.stats.aborts r))))
      client_abort_reasons
  @ [
      m "node.distributed_pct" "%"
        (100.0 *. ratio (d "node.distributed") (d "node.distributed" + d "node.single"));
      m "node.remote_ops_per_txn" "count/txn" (per_txn (d "node.remote_ops"));
      m "node.prepare_ms_self" "ms" (self "prepare");
      m "node.commit_ms_self" "ms" (self "commit");
    ]
  @ List.map (fun (r, v) -> m ("node.abort." ^ r) "count" (count v)) p.registry.node_aborts
  @ [
      m "lock_table.waits_per_txn" "count/txn" (per_txn (d "lock.waits"));
      m "lock_table.timeouts" "count" (count (d "lock.timeouts"));
      m "lock_table.wait_ms_p99" "ms" (hist "lock.wait_ns" 99.0);
      m "engine.gets_per_txn" "count/txn" (per_txn (d "engine.gets"));
      m "engine.sst_block_reads_per_txn" "count/txn" (per_txn (d "engine.block_reads"));
      m "engine.cache_hit_pct" "%"
        (100.0 *. ratio (d "engine.cache_hits") (d "engine.cache_hits" + d "engine.cache_misses"));
      m "engine.bloom_neg_per_txn" "count/txn" (per_txn (d "engine.bloom_neg"));
      m "engine.flushes" "count" (count (d "engine.flushes"));
      m "engine.compactions" "count" (count (d "engine.compactions"));
      m "engine.wal_items_per_batch" "count" (ratio (d "wal.items") (d "wal.batches"));
      m "engine.clog_items_per_batch" "count" (ratio (d "clog.items") (d "clog.batches"));
      m "engine.stab_wait_ms_p50" "ms" (hist "stab.wait_ns" 50.0);
      m "engine.stab_wait_ms_p99" "ms" (hist "stab.wait_ns" 99.0);
      m "ssd.reads_per_txn" "count/txn" (per_txn (d "ssd.reads"));
      m "ssd.write_amp" "B/B" (ratio (d "ssd.bytes_written") p.stats.user_bytes);
      m "rote.rounds_per_txn" "count/txn" (per_txn (d "rote.rounds"));
      m "rote.targets_per_increment" "count" (ratio (d "rote.targets") (d "rote.increments"));
      m "counter_client.submits_per_round" "count" (ratio (d "counter.submits") (d "counter.rounds"));
      m "counter_client.failed_waits" "count" (count (d "counter.failed_waits"));
      m "erpc.requests_per_txn" "count/txn" (per_txn (d "erpc.requests"));
      m "erpc.msgs_per_packet" "count" (ratio (d "erpc.burst_msgs") (d "erpc.bursts"));
      m "erpc.timeouts" "count" (count (d "erpc.timeouts"));
      m "erpc.wait_ms_p99" "ms" (hist "rpc.wait_ns" 99.0);
      m "enclave.crypto_us_per_txn" "us/txn" (per_txn (d "enclave.crypto_ns") /. 1e3);
      m "enclave.syscalls_per_txn" "count/txn" (per_txn (d "enclave.syscalls"));
      m "enclave.page_faults" "count" (count (d "enclave.page_faults"));
      m "enclave.cpu_busy_pct" "%" (100.0 *. count (d "enclave.busy_ns") /. cores);
      m "net.packets_per_txn" "count/txn" (per_txn (d "net.packets"));
      m "net.kb_per_txn" "KB/txn" (per_txn (d "net.bytes") /. 1e3);
      m "sim.events_per_txn" "count/txn" (events_per_txn p);
      m "sim.wall_ns_per_event" "ns" wall_ns_per_event;
      m "sim.alloc_kb_per_txn" "KB/txn"
        (untraced.ledger.alloc_bytes /. 1e3 /. float_of_int (max 1 untraced.stats.completed));
      m "sim.timer_pool" "count" (count p.timer_pool);
      m "sim.fiber_wakeups_per_txn" "count/txn" (per_txn (d "sim.fiber_wakeups"));
      m "trace.overhead_pct" "%" overhead_pct;
    ]

(* --- one workload -------------------------------------------------------- *)

(* Printed for people, left out of the JSON result: the sample count behind
   the latency percentiles and, traced, the mean self time of every span
   name in the window. *)
let notes p =
  m "lat_samples" "count" (float_of_int (Samples.count p.stats.latency))
  :: (Hashtbl.fold
        (fun name (n, ns) acc -> m ("span." ^ name ^ ".self_ms") "ms" (ms_of_ns ns /. float_of_int n) :: acc)
        p.selfs []
     |> List.sort compare)

type outcome = {
  end_to_end : metric list;
  per_layer : metric list;  (** Empty unless traced. *)
  notes : metric list;
  attempted : int;
  failed : int;
  errors : string list;
}

(* Tracing and repetition must reproduce every simulated outcome. *)
let check_same ~what (a : rep) (b : rep) =
  let differs name x y =
    if x = y then [] else [ Printf.sprintf "%s changed the simulated run: %s %d -> %d" what name x y ]
  in
  let samples (r : rep) = Array.sub r.stats.latency.data 0 r.stats.latency.n in
  differs "completed" a.stats.completed b.stats.completed
  @ differs "attempts" a.stats.attempts b.stats.attempts
  @ differs "events" (Ledger.get a.window "sim.events") (Ledger.get b.window "sim.events")
  @ if samples a = samples b then [] else [ what ^ " changed the simulated latencies" ]

let run_workload (w : Workloads.t) plan ~seed ~seconds ~traced ~trace_out =
  let sub_runs = plan.sub_runs in
  let t_start = Unix.gettimeofday () in
  let seeds = Array.init sub_runs (sub_seed seed) in
  let first = Array.map (fun s -> run_rep w ~seed:s ~traced:false ~trace_out:None) seeds in
  let peak_heap_words = (Gc.quick_stat ()).top_heap_words in
  (* Repeat sub-runs, round robin, until the wall budget is spent. *)
  let rec repeat i acc =
    if Unix.gettimeofday () -. t_start >= seconds then acc
    else
      let r = run_rep w ~seed:seeds.(i) ~traced:false ~trace_out:None in
      repeat ((i + 1) mod sub_runs) ((i, r) :: acc)
  in
  let repeats = repeat 0 [] in
  let all_reps = Array.to_list first @ List.map snd repeats in
  let rec more_setups i acc =
    let n = List.length acc in
    if
      n >= max_setups
      || (n >= plan.min_setups && List.fold_left ( +. ) 0.0 acc >= plan.setup_budget_s)
    then acc
    else more_setups ((i + 1) mod sub_runs) (setup_only w ~seed:seeds.(i) :: acc)
  in
  let setups = more_setups 0 (List.map (fun r -> r.setup_s) all_reps) in
  let untraced = pool w (Array.to_list first) in
  let errors =
    List.concat_map (fun (r : rep) -> r.errors) all_reps
    @ List.concat_map (fun (i, r) -> check_same ~what:"repeating" first.(i) r) repeats
  in
  let per_layer, notes, errors =
    if not traced then ([], notes untraced, errors)
    else begin
      let traced_reps = Array.map (fun s -> run_rep w ~seed:s ~traced:true ~trace_out) seeds in
      let wall_ns_per_event = ns_per_event all_reps in
      let overhead_pct =
        100.0 *. ((ns_per_event (Array.to_list traced_reps) /. wall_ns_per_event) -. 1.0)
      in
      let p = pool w (Array.to_list traced_reps) in
      ( per_layer w p ~untraced ~wall_ns_per_event ~overhead_pct,
        notes p,
        errors
        @ List.concat_map (fun (r : rep) -> r.errors) (Array.to_list traced_reps)
        @ List.concat (Array.to_list (Array.map2 (check_same ~what:"tracing") first traced_reps)) )
    end
  in
  {
    end_to_end = end_to_end w untraced ~all_reps ~setups ~peak_heap_words;
    per_layer;
    notes;
    attempted = untraced.stats.attempts;
    failed = untraced.stats.failed;
    errors;
  }

(* --- output -------------------------------------------------------------- *)

let json_number v =
  if Float.is_integer v then Printf.sprintf "%.1f" v else Printf.sprintf "%.15g" v

let json_result (o : outcome) ~traced =
  let metrics =
    List.map
      (fun x -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name (json_number x.value) x.unit_)
      (if traced then o.per_layer else o.end_to_end)
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (o.errors = []) o.attempted o.failed (String.concat ", " metrics)

(* Every "name" value in BENCHMARK.json: workloads and metrics. *)
let names_in_file path =
  let s = In_channel.with_open_bin path In_channel.input_all in
  let key = Str.regexp "\"name\"[ \t\n]*:[ \t\n]*\"\\([^\"]*\\)\"" in
  let rec scan from acc =
    match Str.search_forward key s from with
    | exception Not_found -> List.rev acc
    | _ -> scan (Str.match_end ()) (Str.matched_group 1 s :: acc)
  in
  scan 0 []

let () =
  let only = ref [] and seed = ref 1 and seconds = ref 0.0 and trace = ref 0 in
  let trace_out = ref None and smoke = ref false and names = ref None in
  let add_only s = only := !only @ String.split_on_char ',' s in
  Arg.parse
    [
      ("--workload", Arg.String add_only, "W[,W..] workloads to run (default: all)");
      ("--only", Arg.String add_only, "W[,W..] same as --workload");
      ("--seed", Arg.Set_int seed, "N seed of the inputs and the simulation (default 1)");
      ("--seconds", Arg.Set_float seconds, "S wall seconds to keep repeating sub-runs (default 0)");
      ("--trace", Arg.Set_int trace, "0|1 also run traced and report the per-layer ledger");
      ("--trace-out", Arg.String (fun d -> trace_out := Some d), "DIR write Chrome traces (3-node workloads)");
      ("--smoke", Arg.Set smoke, " toy sizes, one sub-run, traced, every metric printed");
      ("--names", Arg.String (fun f -> names := Some f), "FILE require every name in this BENCHMARK.json");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe [options]";
  let workloads = Workloads.all ~smoke:!smoke in
  let selected =
    match !only with
    | [] -> workloads
    | l ->
        List.map
          (fun n ->
            match List.find_opt (fun (w : Workloads.t) -> w.name = n) workloads with
            | Some w -> w
            | None ->
                Printf.eprintf "unknown workload %s\n" n;
                exit 2)
          l
  in
  let printed = Hashtbl.create 128 in
  let ok = ref true in
  (* --smoke runs one traced sub-run per workload. *)
  let traced = !smoke || !trace = 1 in
  let run (w : Workloads.t) =
    (* A 100-node span set is too large to export. *)
    let trace_out = if w.nodes <= 3 then !trace_out else None in
    let o =
      try
        run_workload w
          (if !smoke then smoke_plan else full)
          ~seed:!seed ~seconds:!seconds ~traced ~trace_out
      with e ->
        {
          end_to_end = [];
          per_layer = [];
          notes = [];
          attempted = 0;
          failed = 0;
          errors = [ Printexc.to_string e ];
        }
    in
    let metrics = o.end_to_end @ o.per_layer in
    List.iter
      (fun x ->
        Hashtbl.replace printed x.name ();
        Printf.printf "%s %s %.6f %s\n%!" w.name x.name x.value x.unit_)
      (metrics @ o.notes);
    let errors =
      o.errors
      @ List.filter_map
          (fun x -> if Float.is_finite x.value then None else Some (x.name ^ " is not a number"))
          metrics
    in
    List.iter (fun e -> Printf.eprintf "%s FAILED %s\n%!" w.name e) errors;
    if errors <> [] then ok := false;
    { o with errors }
  in
  let outcomes = List.map run selected in
  (match !names with
  | None -> ()
  | Some path ->
      let known n =
        Hashtbl.mem printed n || List.exists (fun (w : Workloads.t) -> w.name = n) workloads
      in
      List.iter
        (fun n ->
          if not (known n) then begin
            Printf.eprintf "FAILED %s names %s, which the benchmark does not print\n" path n;
            ok := false
          end)
        (names_in_file path));
  (match outcomes with [ o ] -> print_endline (json_result o ~traced) | _ -> ());
  exit (if !ok then 0 else 1)
