(* The four workloads. Each runs treaty-enc-stab with 2 cores per node on a
   fresh cluster; why each one is here is in README.md. [smoke] shrinks
   every workload to toy size for the test rule. *)

open Treaty_core
module W = Treaty_workload
module Sim = Treaty_sim.Sim
module Rng = Treaty_sim.Rng
module CL = Closed_loop

type t = {
  name : string;
  nodes : int;
  cache_bytes : int;  (** Verified block cache budget per node. *)
  isolation : Types.isolation;
  clients : int;
  warmup_ns : int;
  window_ns : int;
  tail_pct : float;
      (** The latency percentile reported as the tail: the highest one with
          at least ten samples beyond it in a run. *)
  route : (nodes:int -> string -> int) option;
  setup : Cluster.t -> Rng.t -> unit;
      (** Load the data set and flush it to SSTables. *)
  next : Cluster.t -> client_index:int -> Rng.t -> unit -> CL.txn;
      (** A client's transaction generator. *)
  check : Cluster.t -> (unit, string) result;
      (** Consistency of the data after the run has drained. *)
}

let ms n = n * 1_000_000

(* Push the loaded data into SSTables, so that the first flush does not
   land inside the measurement window. *)
let flush_all c =
  for i = 0 to Cluster.n_nodes c - 1 do
    Treaty_storage.Engine.flush_now (Node.engine (Cluster.node c i))
  done

(* Pre-load a YCSB key space through one loader client, 100 keys per
   transaction. *)
let load_ycsb (cfg : W.Ycsb.config) cluster rng =
  let loader = Client.connect_exn cluster ~client_id:900 in
  let put_all txn keys =
    List.fold_left
      (fun acc k ->
        match acc with
        | Error _ -> acc
        | Ok () -> Client.put loader txn k (W.Ycsb.make_value cfg rng))
      (Ok ()) keys
  in
  let rec chunks i =
    if i < cfg.n_keys then begin
      let keys = List.init (min 100 (cfg.n_keys - i)) (fun j -> W.Ycsb.key_of_index (i + j)) in
      (match Client.with_txn loader (fun txn -> put_all txn keys) with
      | Ok () -> ()
      | Error e -> failwith ("ycsb load: " ^ Types.abort_reason_to_string e));
      chunks (i + 100)
    end
  in
  chunks 0;
  Client.disconnect loader;
  flush_all cluster

(* One YCSB transaction. The key distribution is built once per workload
   and shared by every client: a Zipfian table over a million keys is 8 MB. *)
let ycsb_next (cfg : W.Ycsb.config) dist _cluster ~client_index:_ rng () =
  let ops =
    List.init cfg.ops_per_txn (fun _ ->
        let key = W.Ycsb.key_of_index (W.Zipf.sample dist rng) in
        if Rng.float rng 1.0 < cfg.read_fraction then W.Ycsb.Read key
        else W.Ycsb.Update (key, W.Ycsb.make_value cfg rng))
  in
  let reads =
    List.filter_map (function W.Ycsb.Read k -> Some k | W.Ycsb.Update _ -> None) ops
  in
  let user_bytes =
    List.fold_left
      (fun acc -> function
        | W.Ycsb.Read _ -> acc
        | W.Ycsb.Update (k, v) -> acc + String.length k + String.length v)
      0 ops
  in
  let run_rw (a : CL.attempt) =
    let c = a.client in
    match CL.timed a CL.Begin "client.begin" (fun () -> Client.begin_txn c ()) with
    | Error e -> Error e
    | Ok txn -> (
        let rec go = function
          | [] -> Ok ()
          | W.Ycsb.Read k :: rest -> (
              match CL.timed a CL.Exec "client.get" (fun () -> Client.get c txn k) with
              | Ok _ -> go rest
              | Error e -> Error e)
          | W.Ycsb.Update (k, v) :: rest -> (
              match CL.timed a CL.Exec "client.put" (fun () -> Client.put c txn k v) with
              | Ok () -> go rest
              | Error e -> Error e)
        in
        match go ops with
        | Ok () -> CL.timed a CL.Commit "client.commit" (fun () -> Client.commit c txn)
        | Error e ->
            Client.rollback c txn;
            Error e)
  in
  (* Under OCC an all-read transaction is declared read-only and takes the
     snapshot fast path, as the CLI does; every key is preloaded, so each
     must come back with a full-size value. *)
  let run_ro (a : CL.attempt) =
    match CL.timed a CL.Read_only "client.read_only" (fun () -> Client.read_only a.client reads) with
    | Error e -> Error e
    | Ok results ->
        if
          List.length results <> List.length reads
          || List.exists
               (function _, Some v -> String.length v <> cfg.value_size | _, None -> true)
               results
        then failwith "read_only: result does not match the requested keys";
        Ok ()
  in
  let ro = cfg.read_fraction >= 1.0 && List.length reads = cfg.ops_per_txn in
  { CL.run = (if ro then run_ro else run_rw); user_bytes }

let ycsb ~name ~nodes ?(cache_bytes = Config.default_block_cache_bytes) ~isolation ~clients
    ?(warmup_ns = ms 50) ~window_ns ?(tail_pct = 99.0) ~preload (cfg : W.Ycsb.config) =
  let dist =
    lazy
      (match cfg.distribution with
      | `Uniform -> W.Zipf.uniform ~n:cfg.n_keys
      | `Zipfian theta -> W.Zipf.create ~theta ~n:cfg.n_keys ())
  in
  {
    name;
    nodes;
    cache_bytes;
    isolation;
    clients;
    warmup_ns;
    window_ns;
    tail_pct;
    route = None;
    setup = (fun c rng -> if preload then load_ycsb cfg c rng);
    next = (fun c ~client_index rng -> ycsb_next cfg (Lazy.force dist) c ~client_index rng);
    check = (fun _ -> Ok ());
  }

let tpcc ~name ~nodes ~clients ~window_ns (cfg : W.Tpcc.config) =
  let next cluster ~client_index rng =
    let home = 1 + (client_index mod cfg.warehouses) in
    let nodes = Cluster.n_nodes cluster in
    fun () ->
      let kind = W.Tpcc.pick_kind rng in
      (* Every attempt replays the same inputs from its own seed. *)
      let seed = Rng.next_int64 rng in
      let run (a : CL.attempt) =
        let go () = W.Tpcc.run cfg a.client (Rng.create seed) ~nodes ~home kind in
        let span = "client.tpcc." ^ W.Tpcc.kind_name kind in
        match kind with
        | W.Tpcc.New_order -> CL.timed a CL.New_order span go
        | W.Tpcc.Payment -> CL.timed a CL.Payment span go
        | W.Tpcc.Order_status | W.Tpcc.Delivery | W.Tpcc.Stock_level -> go ()
      in
      { CL.run; user_bytes = 0 }
  in
  let check cluster =
    let checker = Client.connect_exn cluster ~client_id:901 in
    let bad =
      List.filter
        (fun warehouse -> not (W.Tpcc.Check.district_orders cfg checker ~warehouse))
        (List.init cfg.warehouses (fun i -> i + 1))
    in
    Client.disconnect checker;
    if bad = [] then Ok ()
    else
      Error
        ("tpcc district orders inconsistent at warehouse "
        ^ String.concat "," (List.map string_of_int bad))
  in
  {
    name;
    nodes;
    cache_bytes = Config.default_block_cache_bytes;
    isolation = Types.Pessimistic;
    clients;
    warmup_ns = ms 50;
    window_ns;
    tail_pct = 99.0;
    route = Some (fun ~nodes -> W.Tpcc.route cfg ~nodes);
    setup =
      (fun c rng ->
        let loader = Client.connect_exn c ~client_id:900 in
        W.Tpcc.load cfg loader rng;
        Client.disconnect loader;
        flush_all c);
    next;
    check;
  }

let all ~smoke =
  let size ~smoke:toy full = if smoke then toy else full in
  let keys = size ~smoke:500 5_000 in
  [
    (* 1.7 MB per node: fits the 4 MiB memtable and the 8 MiB block cache. *)
    ycsb ~name:"ycsb-write" ~nodes:3 ~isolation:Types.Pessimistic ~clients:8
      ~window_ns:(size ~smoke:(ms 30) (ms 500)) ~preload:true
      { W.Ycsb.default with read_fraction = 0.2; n_keys = keys };
    (* The same data set read through a 512 KiB block cache: three times
       larger than the cache. *)
    ycsb ~name:"ycsb-readonly-occ" ~nodes:3 ~cache_bytes:(512 * 1024)
      ~isolation:Types.Optimistic ~clients:8 ~window_ns:(size ~smoke:(ms 30) (ms 150))
      ~preload:true
      { W.Ycsb.default with read_fraction = 1.0; n_keys = keys };
    tpcc ~name:"tpcc-10w" ~nodes:3 ~clients:12 ~window_ns:(size ~smoke:(ms 30) (ms 500))
      (let c = W.Tpcc.config ~warehouses:10 () in
       if smoke then { c with customers_per_district = 10; items = 50 } else c);
    (* Keys are not preloaded and are drawn uniformly from a million, so
       transactions rarely conflict and the cost is the 100-node commit path
       itself. About 40 transactions complete per sub-run, so the tail is
       p90. *)
    ycsb ~name:"scale-100" ~nodes:(size ~smoke:10 100) ~isolation:Types.Pessimistic
      ~clients:16 ~warmup_ns:(ms 20) ~window_ns:(ms 30) ~tail_pct:90.0 ~preload:false
      { W.Ycsb.default with read_fraction = 0.5; n_keys = 1_000_000; value_size = 100 };
  ]
