(* Shared plumbing for the figure/table benchmarks. *)

open Treaty_core
module Sim = Treaty_sim.Sim
module W = Treaty_workload

let full_mode = ref false
(* Quick mode scales client counts and windows down so the whole suite runs
   in minutes; --full uses the paper's parameters. *)

let scale_clients n = if !full_mode then n else max 4 (n / 4)
let duration_ns () = if !full_mode then 1_000_000_000 else 300_000_000
let warmup_ns () = if !full_mode then 200_000_000 else 60_000_000

let section title =
  Printf.printf "\n=== %s ===\n%!" title

let subsection title = Printf.printf "\n--- %s ---\n%!" title

let run_sim f =
  let sim = Sim.create ~seed:0xBE7CBE7CL () in
  Sim.run sim (fun () -> f sim)

let cores () = if !full_mode then 8 else 2

let base_config profile =
  let c =
    Config.with_profile { Config.default with Config.record_history = false } profile
  in
  { c with Config.cores_per_node = cores () }

let make_cluster sim config ?route () =
  match Cluster.create sim config ?route () with
  | Ok c -> c
  | Error m -> failwith ("cluster bootstrap failed: " ^ m)

(* Pre-load the YCSB key space through a loader client. *)
let load_ycsb cluster (cfg : W.Ycsb.config) =
  let loader = Client.connect_exn cluster ~client_id:900 in
  let rng = Treaty_sim.Rng.create 7L in
  let keys = W.Ycsb.load_keys cfg in
  let rec chunks = function
    | [] -> ()
    | l ->
        let batch, rest =
          let rec take n acc = function
            | x :: tl when n > 0 -> take (n - 1) (x :: acc) tl
            | tl -> (List.rev acc, tl)
          in
          take 100 [] l
        in
        (match
           Client.with_txn loader (fun txn ->
               List.iter
                 (fun k ->
                   match Client.put loader txn k (W.Ycsb.make_value cfg rng) with
                   | Ok () -> ()
                   | Error e ->
                       failwith ("ycsb load: " ^ Types.abort_reason_to_string e))
                 batch;
               Ok ())
         with
        | Ok () -> ()
        | Error e -> failwith ("ycsb load: " ^ Types.abort_reason_to_string e));
        chunks rest
  in
  chunks keys;
  Client.disconnect loader

let ycsb_txn ?(ro_fast_path = false) cfg =
  let generators = Hashtbl.create 16 in
  fun client ~client_index rng ->
    let g =
      match Hashtbl.find_opt generators client_index with
      | Some g -> g
      | None ->
          let g = W.Ycsb.generator cfg rng in
          Hashtbl.replace generators client_index g;
          g
    in
    W.Ycsb.run_txn ~ro_fast_path client None (W.Ycsb.next_txn g)

(* Run one YCSB configuration on a fresh cluster with the given profile.
   [isolation] selects the concurrency-control mode; under OCC all-read
   transactions are declared read-only and take the snapshot fast path, as
   the CLI does. *)
let ycsb_result ?(isolation = Types.Pessimistic) sim profile ~ycsb ~clients
    ~engine_overrides =
  let config = { (base_config profile) with Config.isolation } in
  let config = { config with Config.engine = engine_overrides config.Config.engine } in
  let cluster = make_cluster sim config () in
  load_ycsb cluster ycsb;
  let ro_fast_path = isolation = Types.Optimistic in
  let r =
    W.Driver.run_clients cluster ~clients ~duration_ns:(duration_ns ())
      ~warmup_ns:(warmup_ns ()) ~txn:(ycsb_txn ~ro_fast_path ycsb) ()
  in
  Cluster.shutdown cluster;
  r

(* BENCH_commit_pipeline.json is fed by two benches — fig4's pipeline rows
   and micro's event-loop and crypto-cost sections — which can run in either
   order or alone (the CI smoke runs fig4 before micro). Each contributes a
   named top-level section. The first write of a process reads back the
   sections already in the file, so a run that regenerates only some of them
   keeps the rest. *)
let pipeline_file = "BENCH_commit_pipeline.json"

(* The top-level (key, raw JSON value) pairs of a file this writer wrote. *)
let read_sections path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error _ -> []
  | s ->
      let n = String.length s in
      (* Index just past the string literal whose body starts at [i]. *)
      let rec string_end i =
        if i >= n then n
        else if s.[i] = '\\' then string_end (i + 2)
        else if s.[i] = '"' then i + 1
        else string_end (i + 1)
      in
      (* Index of the ',' or closing bracket that ends the value at [i]. *)
      let rec value_end i depth =
        if i >= n then n
        else
          match s.[i] with
          | '"' -> value_end (string_end (i + 1)) depth
          | '{' | '[' -> value_end (i + 1) (depth + 1)
          | ('}' | ']') when depth = 0 -> i
          | '}' | ']' -> value_end (i + 1) (depth - 1)
          | ',' when depth = 0 -> i
          | _ -> value_end (i + 1) depth
      in
      let rec sections i acc =
        match String.index_from_opt s i '"' with
        | None -> List.rev acc
        | Some q -> (
            let key_end = string_end (q + 1) in
            match String.index_from_opt s key_end ':' with
            | None -> List.rev acc
            | Some colon ->
                let v_end = value_end (colon + 1) 0 in
                let v = String.trim (String.sub s (colon + 1) (v_end - colon - 1)) in
                sections (v_end + 1)
                  ((String.sub s (q + 1) (key_end - q - 2), v) :: acc))
      in
      (match String.index_opt s '{' with
      | Some i -> sections (i + 1) []
      | None -> [])

let pipeline_sections =
  lazy
    (ref
       (List.filter
          (fun (k, _) -> k <> "bench" && k <> "mode")
          (read_sections pipeline_file)))

let pipeline_json_set ~key fragment =
  let sections = Lazy.force pipeline_sections in
  sections := (key, fragment) :: List.remove_assoc key !sections;
  let b = Buffer.create 1024 in
  Printf.bprintf b "{\n  \"bench\": \"commit_pipeline\",\n  \"mode\": %S"
    (if !full_mode then "full" else "quick");
  List.iter
    (fun (k, v) -> Printf.bprintf b ",\n  %S: %s" k v)
    (List.sort compare !sections);
  Buffer.add_string b "\n}\n";
  let oc = open_out pipeline_file in
  output_string oc (Buffer.contents b);
  close_out oc

(* The commit whose bench run last measured the deleted ablation knobs —
   the per-message envelope, the unbatched commit pipeline and the
   verify-every-block read path. Their rows are kept as frozen history,
   tagged with this commit in the JSON. *)
let frozen_at = "87e764d"

(* JSON field appended to a frozen row. *)
let frozen_field = Printf.sprintf ", \"frozen_at\": %S" frozen_at

let id_engine e = e

let pct x = x *. 100.0

let print_row ~label ~tps ~baseline_tps ~mean_ms ~p99 =
  Printf.printf "  %-24s %10.1f tps   slowdown %5.2fx   lat %6.2f ms (p99 %7.2f)\n%!"
    label tps
    (if tps > 0.0 then baseline_tps /. tps else nan)
    mean_ms p99

let expected fmt = Printf.printf ("  paper:    " ^^ fmt ^^ "\n%!")
