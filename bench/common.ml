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

(* [Sim.run] for a body that returns a value. *)
let run_value sim f =
  let result = ref None in
  Sim.run sim (fun () -> result := Some (f ()));
  match !result with
  | Some v -> v
  | None -> failwith "the simulation ended before its body returned"

(* Every run of a figure starts a fresh simulator from the same seed. *)
let run_sim f =
  let sim = Sim.create ~seed:0xBE7CBE7CL () in
  run_value sim (fun () -> f sim)

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

(* [clients] closed-loop terminals over the mode's warmup and window. *)
let drive cluster ~clients txn =
  W.Driver.run_clients cluster ~clients ~duration_ns:(duration_ns ())
    ~warmup_ns:(warmup_ns ()) ~txn ()

(* A fresh cluster of [config] with [ycsb]'s key space preloaded. *)
let ycsb_cluster sim config ycsb =
  let cluster = make_cluster sim config () in
  W.Driver.preload cluster (W.Ycsb.load ycsb);
  cluster

(* One closed-loop YCSB run on a fresh, preloaded cluster of [config]. *)
let ycsb_run ?ro_fast_path sim config ycsb ~clients =
  let cluster = ycsb_cluster sim config ycsb in
  let r = drive cluster ~clients (W.Ycsb.terminal ?ro_fast_path ycsb) in
  Cluster.shutdown cluster;
  r

(* The figures' table: run each system on a fresh simulator, then print a
   row per system with its slowdown against the first one's throughput. *)
let compare_systems systems =
  let results = List.map (fun (name, run) -> (name, run_sim run)) systems in
  let baseline_tps = W.Driver.tps (snd (List.hd results)) in
  List.iter
    (fun (name, r) ->
      let tps = W.Driver.tps r in
      Printf.printf
        "  %-24s %10.1f tps   slowdown %5.2fx   lat %6.2f ms (p99 %7.2f)\n%!"
        name tps
        (if tps > 0.0 then baseline_tps /. tps else nan)
        (W.Driver.mean_ms r) (W.Driver.percentile_ms r 99.0))
    results

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

(* Every BENCH_<name>.json is an object of named sections, after its
   "bench" and "mode" fields, in key order. A write replaces the sections it
   names and keeps the file's others, so benches that feed one file (fig4's
   pipeline rows and micro's event-loop and crypto-cost sections in
   BENCH_commit_pipeline.json) can run in either order or alone. *)
let write_json name sections =
  let file = Printf.sprintf "BENCH_%s.json" name in
  let kept =
    List.filter
      (fun (k, _) ->
        k <> "bench" && k <> "mode" && not (List.mem_assoc k sections))
      (read_sections file)
  in
  let b = Buffer.create 1024 in
  Printf.bprintf b "{\n  \"bench\": %S,\n  \"mode\": %S" name
    (if !full_mode then "full" else "quick");
  List.iter
    (fun (k, v) -> Printf.bprintf b ",\n  %S: %s" k v)
    (List.sort compare (sections @ kept));
  Buffer.add_string b "\n}\n";
  Out_channel.with_open_bin file (fun oc -> Buffer.output_buffer oc b)

(* A JSON array of rendered rows, one per line. *)
let json_array rows = "[\n" ^ String.concat ",\n" rows ^ "\n  ]"

(* The commit whose bench run last measured the deleted ablation knobs —
   the per-message envelope, the unbatched commit pipeline and the
   verify-every-block read path. Their rows are kept as frozen history,
   tagged with this commit in the JSON. *)
let frozen_at = "87e764d"

(* JSON field appended to a frozen row. *)
let frozen_field = Printf.sprintf ", \"frozen_at\": %S" frozen_at

let expected fmt = Printf.printf ("  paper:    " ^^ fmt ^^ "\n%!")
