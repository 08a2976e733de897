module Sim = Treaty_sim.Sim
module Enclave = Treaty_tee.Enclave
module Trace = Treaty_obs.Trace
module Metrics = Treaty_obs.Metrics

type stability = {
  submit : span:Trace.span -> log:string -> counter:int -> unit;
  note : log:string -> counter:int -> unit;
  wait_stable :
    span:Trace.span -> log:string -> counter:int -> (unit, [ `Stability_timeout ]) result;
}

type config = {
  memtable_max_bytes : int;
  file_bytes : int;
  level_base_bytes : int;
  group_commit : bool;
  values_in_enclave : bool;
  in_memory : bool;
  block_cache_bytes : int;
}

let default_config =
  {
    memtable_max_bytes = 4 * 1024 * 1024;
    file_bytes = 2 * 1024 * 1024;
    level_base_bytes = 16 * 1024 * 1024;
    group_commit = true;
    values_in_enclave = false;
    in_memory = false;
    block_cache_bytes = 8 * 1024 * 1024;
  }

type stats = {
  mutable gets : int;
  mutable commits : int;
  mutable prepares : int;
  mutable flushes : int;
  mutable compactions : int;
  mutable sst_block_reads : int;
  mutable wal_appends : int;
  mutable clog_appends : int;
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable cache_evictions : int;
  mutable bloom_negatives : int;
  mutable bloom_false_positives : int;
  mutable get_retries : int;
}

type recovery_info = {
  prepared : (Wal_record.txid * (string * Op.t) list) list;
  clog_records : (int * Clog_record.record) list;
  wal_entries_dropped : int;
  clog_entries_dropped : int;
}

let n_levels = 8
let block_bytes = 4096  (* plaintext per SSTable block *)
let l0_trigger = 4  (* L0 file count that triggers compaction *)
let group_window_ns = 15_000
let manifest_log = "MANIFEST"
let clog_log = "CLOG"

type level_file = { meta : Manifest.file_meta; handle : Sstable.handle }

(* A participant's slice of a distributed transaction, from its Prepare
   until its coordinator's commit decision is known to be trusted. *)
type slice =
  | Pending of (string * Op.t) list  (* prepared writes *)
  | Resolving of (string * Op.t) list
      (* Claimed by [resolve], whose Resolve append and install are in
         flight: readers still wait for the writes. *)
  | Committed of { seq : int; at : int }
      (* Installed at [seq], at time [at]. The mark stays until the
         coordinator's decision is trusted ([forget_commits]): a recovering
         coordinator must hear that this slice committed. *)

type commit_item = {
  cwrites : (string * Op.t) list;
  mutable cseq : int;
}

(* Background compaction work: [Demand] drains whatever the level triggers
   ask for (the flush-path request); [Full] compacts every populated level
   once, top down (compact_now). *)
type compact_req = Demand | Full

type t = {
  sim : Sim.t;
  ssd : Ssd.t;
  sec : Sec.t;
  config : config;
  trace_node : int;  (* Chrome pid lane for this engine's spans *)
  stability : stability option;  (* [None]: no stabilization, nothing to wait for *)
  manifest : Log_auth.t;
  clog : Log_auth.t;
  mutable wal : Log_auth.t;
  mutable wal_id : int;
  mutable wal_manifest_counter : int;
      (* MANIFEST counter of the New_wal edit registering the current WAL: a
         commit is only rollback-protected once the WAL entry AND the edit
         that makes recovery replay that WAL are both stable. *)
  mutable memtable : Memtable.t;
  mutable immutables : (Memtable.t * int) list;  (* with their WAL id, newest first *)
  levels : level_file array array;
      (* mutable via Array.set; L0 newest-first (files may overlap), deeper
         levels sorted by min_key with disjoint ranges — the fence arrays
         point lookups binary-search. *)
  cache : string Block_cache.t option;
      (* Verified block cache: decrypted blocks, enclave-resident, decoded
         on each hit. *)
  mutable next_file_id : int;
  mutable last_alloc_seq : int;
  mutable visible_seq : int;
  commit_lock : Sim.Resource.resource;
  mutable group : commit_item Group_commit.t option;
  mutable clog_group : Clog_record.record Group_commit.t option;
      (* [None] exactly for an in-memory engine. *)
  prepared : (Wal_record.txid, slice * int (* its Prepare's wal id *)) Hashtbl.t;
      (* A slice pins the WAL its Prepare went to: the WAL retires only
         once none is left there. *)
  active_snapshots : (int, int) Hashtbl.t;  (* snapshot seq -> refcount *)
  mutable flushing : bool;
  compact_queue : compact_req Queue.t;
  mutable compactor_running : bool;
      (* The single compactor fiber's guard: spawned on demand when work is
         enqueued, exits when the queue drains. All compaction — background
         triggers and compact_now alike — flows through this one gate. *)
  ephemeral_counters : (string, int ref) Hashtbl.t;
      (* Synthetic per-log counters for the in-memory (no-storage) mode. *)
  stats : stats;
}

let ephemeral_counter t name =
  let r =
    match Hashtbl.find_opt t.ephemeral_counters name with
    | Some r -> r
    | None ->
        let r = ref 0 in
        Hashtbl.replace t.ephemeral_counters name r;
        r
  in
  incr r;
  !r

let sim t = t.sim
let sec t = t.sec
let stats t = t.stats
let config t = t.config
let snapshot t = t.visible_seq

let next_seq t =
  t.last_alloc_seq <- t.last_alloc_seq + 1;
  t.last_alloc_seq

let enclave t = Sec.enclave t.sec

(* Small in-enclave compute constants on the read/write path. *)
let probe_ns = 280

let fresh_stats () =
  {
    gets = 0;
    commits = 0;
    prepares = 0;
    flushes = 0;
    compactions = 0;
    sst_block_reads = 0;
    wal_appends = 0;
    clog_appends = 0;
    cache_hits = 0;
    cache_misses = 0;
    cache_evictions = 0;
    bloom_negatives = 0;
    bloom_false_positives = 0;
    get_retries = 0;
  }

let submit t ~span ~log ~counter =
  Option.iter (fun s -> s.submit ~span ~log ~counter) t.stability

let note t ~log ~counter = Option.iter (fun s -> s.note ~log ~counter) t.stability

let wait_stable t ~span ~log ~counter =
  match t.stability with None -> Ok () | Some s -> s.wait_stable ~span ~log ~counter

let manifest_append t edit =
  if t.config.in_memory then ephemeral_counter t manifest_log
  else begin
    let c =
      Log_auth.append t.manifest (fun b -> Buffer.add_string b (Manifest.encode edit))
    in
    submit t ~span:Trace.none ~log:manifest_log ~counter:c;
    c
  end

let wal_log t record ~stabilize =
  t.stats.wal_appends <- t.stats.wal_appends + 1;
  if t.config.in_memory then ephemeral_counter t (Log_auth.name t.wal)
  else begin
    let c = Log_auth.append t.wal (fun b -> Wal_record.write b record) in
    stabilize ~log:(Log_auth.name t.wal) ~counter:c;
    c
  end

(* A caller will wait for this entry to be stable: start its counter round
   now and let it overlap the memtable apply. *)
let wal_append t ?(span = Trace.none) record =
  wal_log t record ~stabilize:(submit t ~span)

(* Nobody waits for this entry: its counter rides the next round. *)
let wal_note t record = ignore (wal_log t record ~stabilize:(note t))

(* --- construction --------------------------------------------------- *)

let mk_group t =
  Group_commit.create t.sim ~name:"wal" ~node:t.trace_node
    ~window_ns:group_window_ns
    ~flush:(fun fspan items ->
      (* Sequence, persist and apply the whole group atomically with respect
         to other WAL writers. *)
      Sim.Resource.acquire t.commit_lock;
      Fun.protect ~finally:(fun () -> Sim.Resource.release t.commit_lock)
      @@ fun () ->
      List.iter (fun it -> it.cseq <- next_seq t) items;
      let record =
        Wal_record.Commit_batch (List.map (fun it -> (it.cseq, it.cwrites)) items)
      in
      let counter = wal_append t ~span:fspan record in
      List.iter
        (fun it ->
          List.iter
            (fun (key, op) ->
              Enclave.charge_engine_op ~lsm:(not t.config.in_memory)
                (Sec.enclave t.sec) ~bytes:(Op.size op);
              Memtable.add t.memtable ~key ~seq:it.cseq op)
            it.cwrites)
        items;
      t.visible_seq <- t.last_alloc_seq;
      counter)
    ()

(* Clog group commit: a yield window of 2PC records (Begin/Decision/Finished
   across concurrent coordinated transactions) rides one authenticated
   append — every record in the window shares the batch's counter, so one
   stabilization round covers them all. The flush only notes the counter:
   the records waited on (a Begin_2pc at its commit point, an abort
   decision) start the round from their waits, and it also carries every
   record appended before them. *)
let mk_clog_group t =
  Group_commit.create t.sim ~name:"clog" ~node:t.trace_node
    ~window_ns:group_window_ns
    ~flush:(fun _fspan records ->
      let payload =
        match records with
        | [ record ] -> Clog_record.encode record
        | records -> Clog_record.encode (Clog_record.Batch records)
      in
      let c = Log_auth.append t.clog (fun b -> Buffer.add_string b payload) in
      note t ~log:clog_log ~counter:c;
      c)
    ()

let create_internal ?(node = 0) sim ssd sec cfg stability =
  let t =
    {
      sim;
      ssd;
      sec;
      config = cfg;
      trace_node = node;
      stability;
      manifest = Log_auth.create ssd sec ~name:manifest_log;
      clog = Log_auth.create ssd sec ~name:clog_log;
      wal = Log_auth.create ssd sec ~name:(Manifest.wal_name 1);
      wal_id = 1;
      wal_manifest_counter = 0;
      memtable = Memtable.create ~values_in_enclave:cfg.values_in_enclave sec;
      immutables = [];
      levels = Array.make n_levels [||];
      cache =
        (if cfg.block_cache_bytes > 0 && not cfg.in_memory then
           Some (Block_cache.create ~capacity_bytes:cfg.block_cache_bytes)
         else None);
      next_file_id = 1;
      last_alloc_seq = 0;
      visible_seq = 0;
      commit_lock = Sim.Resource.create sim ~capacity:1 "commit";
      group = None;
      clog_group = None;
      prepared = Hashtbl.create 32;
      active_snapshots = Hashtbl.create 64;
      flushing = false;
      compact_queue = Queue.create ();
      compactor_running = false;
      ephemeral_counters = Hashtbl.create 8;
      stats = fresh_stats ();
    }
  in
  if cfg.group_commit then t.group <- Some (mk_group t);
  if not cfg.in_memory then t.clog_group <- Some (mk_clog_group t);
  t

let create ?node ssd sec cfg stability =
  let t = create_internal ?node (Ssd.sim ssd) ssd sec cfg stability in
  t.wal_manifest_counter <- manifest_append t (Manifest.New_wal { wal_id = 1 });
  t

(* --- reads ----------------------------------------------------------- *)

let min_active_snapshot t =
  Hashtbl.fold (fun s _ acc -> min s acc) t.active_snapshots t.visible_seq

let active_snapshot_count t =
  Hashtbl.fold (fun _ n acc -> acc + n) t.active_snapshots 0

let retain_snapshot t s =
  Hashtbl.replace t.active_snapshots s
    (1 + Option.value ~default:0 (Hashtbl.find_opt t.active_snapshots s))

let release_snapshot t s =
  match Hashtbl.find_opt t.active_snapshots s with
  | Some 1 -> Hashtbl.remove t.active_snapshots s
  | Some n -> Hashtbl.replace t.active_snapshots s (n - 1)
  | None -> ()

let internal_compare (k1, s1, _) (k2, s2, _) =
  match String.compare k1 k2 with 0 -> compare s2 s1 | c -> c

let lookup_of_sst = function
  | Some (seq, Op.Put v) -> Memtable.Found (seq, v)
  | Some (seq, Op.Delete) -> Memtable.Deleted seq
  | None -> Memtable.Not_found

(* Fence search on a sorted, disjoint level: the one file whose
   [min_key, max_key] span contains [key]. *)
let find_level_file files key =
  let lo = ref 0 and hi = ref (Array.length files - 1) and found = ref None in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let lf = files.(mid) in
    if key < lf.meta.Manifest.min_key then hi := mid - 1
    else if key > lf.meta.Manifest.max_key then lo := mid + 1
    else begin
      found := Some lf;
      lo := !hi + 1
    end
  done;
  !found

(* Files of a sorted level overlapping [lo, hi]: binary-search the first
   candidate, then walk while the spans intersect. *)
let level_files_overlapping files ~lo ~hi =
  let n = Array.length files in
  let a = ref 0 and b = ref n in
  while !a < !b do
    let mid = (!a + !b) / 2 in
    if files.(mid).meta.Manifest.max_key < lo then a := mid + 1 else b := mid
  done;
  let acc = ref [] in
  let i = ref !a in
  while !i < n && files.(!i).meta.Manifest.min_key <= hi do
    acc := files.(!i) :: !acc;
    incr i
  done;
  List.rev !acc

(* Fetch one block's decoded entries: through the verified block cache when
   enabled (a hit skips the SSD read, hash check and decryption), reading
   and filling on a miss. The decrypted plaintext is taint-registered:
   handing it to [Net.send] or a host-memory write is a TreatySan
   violation. The cache keeps the verified plaintext, whose size its
   enclave accounting charges, and a hit decodes it again: decoded, a
   TPC-C block's entries take about twice its bytes of heap. *)
let read_block_cached t ?span lf idx =
  let e = enclave t in
  let file_id = lf.meta.Manifest.file_id in
  let sspan =
    if Trace.enabled () then
      Trace.begin_span ?parent:span ~node:t.trace_node ~cat:"storage" "sst.read"
        ~args:[ ("file", Trace.Int file_id); ("block", Trace.Int idx) ]
    else Trace.none
  in
  let finish src entries =
    Trace.end_span sspan ~args:[ ("src", Trace.Str src) ];
    entries
  in
  match t.cache with
  | None ->
      t.stats.sst_block_reads <- t.stats.sst_block_reads + 1;
      finish "ssd" (fst (Sstable.read_block_idx t.ssd t.sec lf.handle idx))
  | Some c -> (
      match Block_cache.find c ~file_id ~block:idx with
      | Some plain -> (
          t.stats.cache_hits <- t.stats.cache_hits + 1;
          Metrics.incr "engine.cache.hit";
          Enclave.touch_enclave e (String.length plain);
          match Sstable.decode_block plain with
          | Ok entries -> finish "cache" entries
          | Error m -> raise (Sec.Integrity_violation ("cached block: " ^ m)))
      | None ->
          t.stats.cache_misses <- t.stats.cache_misses + 1;
          Metrics.incr "engine.cache.miss";
          t.stats.sst_block_reads <- t.stats.sst_block_reads + 1;
          let entries, plain = Sstable.read_block_idx t.ssd t.sec lf.handle idx in
          let bytes = String.length plain in
          Treaty_crypto.Taint.register plain;
          let ev0 = (Block_cache.stats c).Block_cache.evictions in
          let freed =
            Block_cache.insert c ~file_id ~block:idx ~bytes plain
          in
          let evicted = (Block_cache.stats c).Block_cache.evictions - ev0 in
          if bytes <= Block_cache.capacity_bytes c then Enclave.alloc_enclave e bytes;
          if freed > 0 then Enclave.free_enclave e freed;
          if evicted > 0 then begin
            t.stats.cache_evictions <- t.stats.cache_evictions + evicted;
            Metrics.incr ~by:evicted "engine.cache.evict"
          end;
          finish "ssd" entries)

(* Point probe of one SSTable: Bloom filter first, then the
   fence index, then the one candidate block through the cache. *)
let sst_get t ?span lf ~key ~max_seq =
  Enclave.compute (enclave t) probe_ns;
  if not (Sstable.may_contain lf.handle key) then begin
    t.stats.bloom_negatives <- t.stats.bloom_negatives + 1;
    Metrics.incr "engine.bloom.neg";
    None
  end
  else
    match Sstable.find_block_idx lf.handle key with
    | None ->
        t.stats.bloom_false_positives <- t.stats.bloom_false_positives + 1;
        Metrics.incr "engine.bloom.fp";
        None
    | Some idx ->
        let entries = read_block_cached t ?span lf idx in
        (* A positive Bloom probe is only a hint: the verified block is the
           authority, and "the key is not actually here" is the filter's
           false positive. *)
        if not (List.exists (fun (k, _, _) -> k = key) entries) then begin
          t.stats.bloom_false_positives <- t.stats.bloom_false_positives + 1;
          Metrics.incr "engine.bloom.fp"
        end;
        Sstable.search_entries entries ~key ~max_seq

let rec get_attempt t ?span ~key ~snapshot attempts =
  let e = enclave t in
  Enclave.compute_storage e probe_ns;
  match Memtable.get t.memtable ~key ~max_seq:snapshot with
  | (Memtable.Found _ | Memtable.Deleted _) as r -> r
  | Memtable.Not_found -> (
      let from_immutables =
        List.fold_left
          (fun acc (mt, _) ->
            match acc with
            | Memtable.Not_found ->
                Enclave.compute e probe_ns;
                Memtable.get mt ~key ~max_seq:snapshot
            | found -> found)
          Memtable.Not_found t.immutables
      in
      match from_immutables with
      | (Memtable.Found _ | Memtable.Deleted _) as r -> r
      | Memtable.Not_found -> (
          try
            (* L0 files may overlap: newest first, all candidates. *)
            let l0_hit =
              Array.fold_left
                (fun acc lf ->
                  match acc with
                  | Some _ -> acc
                  | None ->
                      if Sstable.overlaps lf.handle ~min:key ~max:key then
                        sst_get t ?span lf ~key ~max_seq:snapshot
                      else None)
                None t.levels.(0)
            in
            match l0_hit with
            | Some _ as hit -> lookup_of_sst hit
            | None ->
                (* Deeper levels are disjoint: fence binary search finds the
                   single candidate file per level. *)
                let deep_hit = ref None in
                let level = ref 1 in
                while !deep_hit = None && !level < n_levels do
                  (match find_level_file t.levels.(!level) key with
                  | Some lf -> deep_hit := sst_get t ?span lf ~key ~max_seq:snapshot
                  | None -> ());
                  incr level
                done;
                lookup_of_sst !deep_hit
          with Ssd.No_such_file name ->
            (* A compaction deleted a file under us between the index lookup
               and the block read; the new version has the data. A file
               still missing after the retries was deleted by the host, and
               a file cut short is not a race either: that read raises
               [Sec.Integrity_violation] and is not retried. *)
            if attempts = 0 then
              raise (Sec.Integrity_violation (name ^ ": live SSTable missing"));
            t.stats.get_retries <- t.stats.get_retries + 1;
            get_attempt t ?span ~key ~snapshot (attempts - 1)))

(* Range read of one SSTable through the block cache. *)
let sst_range t ?span lf ~lo ~hi ~max_seq =
  match t.cache with
  | None ->
      t.stats.sst_block_reads <- t.stats.sst_block_reads + 1;
      Sstable.range t.ssd t.sec lf.handle ~lo ~hi ~max_seq
  | Some _ ->
      let n = Sstable.block_count lf.handle in
      let acc = ref [] in
      for idx = n - 1 downto 0 do
        let first, last = Sstable.block_span lf.handle idx in
        if not (last < lo || first > hi) then
          acc :=
            List.filter
              (fun (k, seq, _) -> k >= lo && k <= hi && seq <= max_seq)
              (read_block_cached t ?span lf idx)
            @ !acc
      done;
      !acc

let scan ?span t ~lo ~hi ~snapshot =
  if lo > hi then []
  else begin
    let e = enclave t in
    Enclave.compute_storage e probe_ns;
    let sst_sources =
      List.concat
        (List.init n_levels (fun l ->
             let candidates =
               if l = 0 then
                 Array.to_list t.levels.(0)
                 |> List.filter (fun lf -> Sstable.overlaps lf.handle ~min:lo ~max:hi)
               else level_files_overlapping t.levels.(l) ~lo ~hi
             in
             List.map
               (fun lf -> sst_range t ?span lf ~lo ~hi ~max_seq:snapshot)
               candidates))
    in
    let sources =
      (Memtable.range t.memtable ~lo ~hi ~max_seq:snapshot
      :: List.map (fun (mt, _) -> Memtable.range mt ~lo ~hi ~max_seq:snapshot) t.immutables)
      @ sst_sources
    in
    let merged =
      List.fold_left (fun acc es -> List.merge internal_compare acc es) [] sources
    in
    (* Internal-key order: the first version of each key is the freshest
       visible one. *)
    let rec dedupe acc = function
      | [] -> List.rev acc
      | (key, _, op) :: rest ->
          let rest = List.filter (fun (k, _, _) -> k <> key) rest in
          let acc =
            match op with
            | Op.Put v ->
                Enclave.charge_engine_op ~lsm:(not t.config.in_memory) e
                  ~bytes:(String.length v);
                (key, v) :: acc
            | Op.Delete -> acc
          in
          dedupe acc rest
    in
    dedupe [] merged
  end

let get ?span t ~key ~snapshot =
  t.stats.gets <- t.stats.gets + 1;
  let r = get_attempt t ?span ~key ~snapshot 3 in
  let bytes =
    match r with Memtable.Found (_, v) -> String.length v | _ -> 0
  in
  Enclave.charge_engine_op ~lsm:(not t.config.in_memory) (enclave t) ~bytes;
  r

(* --- flush & compaction ---------------------------------------------- *)

let level_bytes t l =
  Array.fold_left (fun acc lf -> acc + lf.meta.Manifest.size) 0 t.levels.(l)

let level_max_bytes t l =
  let rec pow10 n = if n <= 0 then 1 else 10 * pow10 (n - 1) in
  t.config.level_base_bytes * pow10 (l - 1)

let alloc_file_id t =
  let id = t.next_file_id in
  t.next_file_id <- id + 1;
  id

let meta ~file_id ~level ~footer_digest ~size ~min_key ~max_key ~max_seq =
  {
    Manifest.file_id;
    level;
    footer_digest;
    min_key;
    max_key;
    max_seq;
    size;
  }

let meta_of_entries ~file_id ~level ~footer_digest ~size entries =
  meta ~file_id ~level ~footer_digest ~size
    ~min_key:((fun (k, _, _) -> k) (List.hd entries))
    ~max_key:((fun (k, _, _) -> k) (List.nth entries (List.length entries - 1)))
    ~max_seq:(List.fold_left (fun acc (_, s, _) -> max acc s) 0 entries)

(* Keep, per user key: every version newer than the oldest active snapshot,
   plus the newest version at or below it. Tombstones may additionally be
   dropped when the output is the bottommost populated level. *)
let gc_entries ~min_active ~bottommost entries =
  (* Group by key (input is sorted by internal key), then filter within each
     group. *)
  let groups =
    List.fold_left
      (fun acc ((k, _, _) as e) ->
        match acc with
        | (gk, g) :: tl when gk = k -> (gk, e :: g) :: tl
        | _ -> (k, [ e ]) :: acc)
      [] entries
    |> List.rev_map (fun (k, g) -> (k, List.rev g))
  in
  (* [groups] is in key-ascending order with each group's versions in
     seq-descending order — already the internal-key order the output must
     preserve (a descending-seq violation would make lookups return stale
     versions). *)
  List.concat_map
    (fun (_, versions) ->
      let newer, older = List.partition (fun (_, s, _) -> s > min_active) versions in
      let kept = newer @ (match older with [] -> [] | newest_old :: _ -> [ newest_old ]) in
      match kept with
      | [ (_, _, Op.Delete) ] when bottommost && newer = [] -> []
      | kept -> kept)
    groups

let build_files t ~level entries =
  (* Split into files of roughly [file_bytes], never splitting a user key. *)
  let files = ref [] and cur = ref [] and cur_bytes = ref 0 in
  let flush_cur () =
    if !cur <> [] then begin
      files := List.rev !cur :: !files;
      cur := [];
      cur_bytes := 0
    end
  in
  List.iter
    (fun ((key, _, op) as e) ->
      let sz = String.length key + 16 + Op.size op in
      let same_key = match !cur with (k, _, _) :: _ -> k = key | [] -> false in
      if !cur_bytes + sz > t.config.file_bytes && !cur <> [] && not same_key then
        flush_cur ();
      cur := e :: !cur;
      cur_bytes := !cur_bytes + sz)
    entries;
  flush_cur ();
  List.rev_map
    (fun file_entries ->
      let file_id = alloc_file_id t in
      let handle, footer_digest =
        Sstable.build t.ssd t.sec ~file_id ~block_bytes
          (List.to_seq file_entries)
      in
      let meta =
        meta_of_entries ~file_id ~level ~footer_digest
          ~size:(Sstable.data_bytes handle) file_entries
      in
      { meta; handle })
    !files
  |> List.rev

let bottommost_below t l =
  let rec check i = i >= n_levels || (Array.length t.levels.(i) = 0 && check (i + 1)) in
  check (l + 1)

(* The level the size/count triggers want compacted next, if any. *)
let compaction_target t =
  if Array.length t.levels.(0) >= l0_trigger then Some 0
  else
    let rec find l =
      if l >= n_levels - 1 then None
      else if level_bytes t l > level_max_bytes t l then Some l
      else find (l + 1)
    in
    find 1

(* Drop a dead input file from the verified read path: its cache entries
   and its enclave-resident Bloom filter. Runs at level-swap time, before
   the deferred SSD delete — a reader that raced the swap and already holds
   the old handle either reads the still-present file (and at worst
   re-inserts a stale, never-hit cache entry under the dead file id, which
   LRU eviction reclaims) or hits the deleted file and retries. *)
let forget_file t lf =
  (match t.cache with
  | Some c ->
      let freed = Block_cache.invalidate_file c ~file_id:lf.meta.Manifest.file_id in
      if freed > 0 then Enclave.free_enclave (enclave t) freed
  | None -> ());
  Sstable.release t.sec lf.handle

let compact t l =
  t.stats.compactions <- t.stats.compactions + 1;
  let srcs = Array.to_list t.levels.(l) in
  if srcs = [] then ()
  else begin
    let min_key =
      List.fold_left (fun acc lf -> min acc lf.meta.Manifest.min_key)
        (List.hd srcs).meta.Manifest.min_key srcs
    and max_key =
      List.fold_left (fun acc lf -> max acc lf.meta.Manifest.max_key)
        (List.hd srcs).meta.Manifest.max_key srcs
    in
    let overlapping, disjoint =
      List.partition
        (fun lf -> Sstable.overlaps lf.handle ~min:min_key ~max:max_key)
        (Array.to_list t.levels.(l + 1))
    in
    let inputs = srcs @ overlapping in
    let entries =
      List.map (fun lf -> Sstable.load_all t.ssd t.sec lf.handle) inputs
      |> List.fold_left (fun acc es -> List.merge internal_compare acc es) []
      |> List.sort_uniq internal_compare
    in
    let entries =
      gc_entries ~min_active:(min_active_snapshot t)
        ~bottommost:(bottommost_below t (l + 1))
        entries
    in
    let outputs = if entries = [] then [] else build_files t ~level:(l + 1) entries in
    (* Record the whole compaction in the MANIFEST, then swap levels. *)
    List.iter (fun lf -> ignore (manifest_append t (Manifest.Add_file lf.meta))) outputs;
    let last_edit =
      List.fold_left
        (fun _ lf ->
          manifest_append t
            (Manifest.Delete_file
               { level = lf.meta.Manifest.level; file_id = lf.meta.Manifest.file_id }))
        0 inputs
    in
    (* A flush may have added new L0 files while this compaction ran: remove
       only the inputs. *)
    t.levels.(l) <-
      Array.of_list
        (List.filter
           (fun lf -> not (List.memq lf srcs))
           (Array.to_list t.levels.(l)));
    t.levels.(l + 1) <-
      Array.of_list
        (List.sort
           (fun a b -> compare a.meta.Manifest.min_key b.meta.Manifest.min_key)
           (disjoint @ outputs));
    List.iter (forget_file t) inputs;
    (* Defer deleting inputs until the MANIFEST records are stable (§VI). *)
    let names = List.map (fun lf -> Sstable.file_name ~file_id:lf.meta.Manifest.file_id) inputs in
    Sim.spawn t.sim (fun () ->
        match
          wait_stable t ~span:Trace.none ~log:manifest_log ~counter:last_edit
        with
        | Ok () -> List.iter (Ssd.delete t.ssd) names
        | Error `Stability_timeout ->
            (* Stabilization unavailable: keep the inputs — recovery from the
               stale MANIFEST prefix still finds them. Only space is lost. *)
            ())
  end

(* --- background compaction scheduler ---------------------------------- *)

let queue_gauge t =
  Metrics.set_gauge "engine.compact.queue_depth" (Queue.length t.compact_queue)

let run_compactor t =
  while not (Queue.is_empty t.compact_queue) do
    let req = Queue.pop t.compact_queue in
    queue_gauge t;
    match req with
    | Demand ->
        let rec drain () =
          match compaction_target t with
          | None -> ()
          | Some l ->
              compact t l;
              drain ()
        in
        drain ()
    | Full ->
        for l = 0 to n_levels - 2 do
          if Array.length t.levels.(l) > 0 then compact t l
        done
  done

(* Single guarded entry point for all compaction (the old code duplicated a
   [compacting] flag dance between maybe_compact and compact_now). Work is
   enqueued; one compactor fiber is spawned on demand and exits when the
   queue drains — spawn-on-demand rather than a perpetually parked fiber,
   which the TreatySan starvation watchdog would flag. *)
let request_compaction t req =
  Queue.push req t.compact_queue;
  queue_gauge t;
  if not t.compactor_running then begin
    t.compactor_running <- true;
    Sim.spawn t.sim (fun () ->
        Fun.protect
          ~finally:(fun () -> t.compactor_running <- false)
          (fun () -> run_compactor t))
  end

let maybe_compact t =
  if compaction_target t <> None then request_compaction t Demand

let compaction_idle t = Queue.is_empty t.compact_queue && not t.compactor_running

let wal_pinned t wal_id =
  Hashtbl.fold (fun _ (_, w) pinned -> pinned || w = wal_id) t.prepared false

(* Write [mt] to a new L0 SSTable (nothing if it is empty). The values
   stream from the memtable into the table's blocks. *)
let write_l0 t mt =
  match Memtable.bounds mt with
  | Some (min_key, max_key, max_seq) ->
      let file_id = alloc_file_id t in
      let handle, footer_digest =
        Sstable.build t.ssd t.sec ~file_id ~block_bytes
          (Memtable.to_seq mt)
      in
      let meta =
        meta ~file_id ~level:0 ~footer_digest ~size:(Sstable.data_bytes handle)
          ~min_key ~max_key ~max_seq
      in
      ignore (manifest_append t (Manifest.Add_file meta));
      t.levels.(0) <- Array.append [| { meta; handle } |] t.levels.(0)
  | None -> ()

(* Register WAL [wal_id] in the MANIFEST and make it the current WAL. The
   log starts empty: a file of that name can only be left by a New_wal edit
   that never stabilized, which recovery dropped. *)
let open_wal t wal_id =
  t.wal_manifest_counter <- manifest_append t (Manifest.New_wal { wal_id });
  Ssd.delete t.ssd (Manifest.wal_name wal_id);
  t.wal <- Log_auth.create t.ssd t.sec ~name:(Manifest.wal_name wal_id);
  t.wal_id <- wal_id

(* Log a prepare in the current WAL and pin that WAL until its slice is
   aborted or its commit mark forgotten. The prepare is on disk when this
   returns; nobody waits for it here (a coordinator makes it trusted at its
   commit point), so it only notes its counter. *)
let log_prepare t ~tx writes =
  wal_note t (Wal_record.Prepare (tx, writes));
  Hashtbl.replace t.prepared tx (Pending writes, t.wal_id)

(* Re-log a commit mark found by replay: a Prepare without writes and its
   Resolve, which the next replay turns into the same mark. *)
let log_committed t ~tx ~seq =
  wal_note t (Wal_record.Prepare (tx, []));
  wal_note t (Wal_record.Resolve (tx, Some seq));
  Hashtbl.replace t.prepared tx (Committed { seq; at = Sim.now t.sim }, t.wal_id)

(* Retire WALs whose contents are in SSTables: one Obsolete_wal edit each,
   and the files go only once the last edit is stable. Recovery replays the
   trusted MANIFEST prefix, so a WAL whose retirement never stabilized is
   still live there and its file must still exist — on a timeout the files
   stay (replaying them again is duplicate-but-idempotent, not lost).
   [after] runs in the same fiber once the wait is over. *)
let retire_wals t ?(after = ignore) wal_ids =
  let last_edit =
    List.fold_left
      (fun _ wal_id -> manifest_append t (Manifest.Obsolete_wal { wal_id }))
      0 wal_ids
  in
  Sim.spawn t.sim (fun () ->
      (match
         wait_stable t ~span:Trace.none ~log:manifest_log ~counter:last_edit
       with
      | Ok () -> List.iter (fun id -> Ssd.delete t.ssd (Manifest.wal_name id)) wal_ids
      | Error `Stability_timeout -> ());
      after ())

let flush_oldest_immutable t =
  match List.rev t.immutables with
  | [] -> ()
  | (mt, old_wal_id) :: _ ->
      t.stats.flushes <- t.stats.flushes + 1;
      write_l0 t mt;
      (* The WAL can only retire when its prepared txs are all aborted or
         their commit marks forgotten. Nothing forgets them in a crashed
         incarnation, whose disk is fenced: its flush stops waiting. *)
      let live () = Enclave.live (enclave t) in
      while wal_pinned t old_wal_id && live () do
        Sim.sleep t.sim 200_000
      done;
      if live () then retire_wals t [ old_wal_id ] ~after:(fun () -> Memtable.release mt);
      t.immutables <-
        List.filter (fun (_, wid) -> wid <> old_wal_id) t.immutables;
      (* Off the foreground path: the flush fiber only enqueues compaction
         work; the compactor fiber does the merging, so group commit never
         stalls behind a level merge. *)
      maybe_compact t

let rotate_memtable t =
  let old_mt = t.memtable and old_wal_id = t.wal_id in
  open_wal t (old_wal_id + 1);
  t.memtable <- Memtable.create ~values_in_enclave:t.config.values_in_enclave t.sec;
  t.immutables <- (old_mt, old_wal_id) :: t.immutables

(* Rotate under the commit lock. A rotation yields while it registers the
   new WAL; two rotations interleaved there both made a new memtable, and
   the writes installed into the first one to be replaced left every read
   path (lost updates: TPC-C at 100 warehouses read a warehouse row's
   older version). Holding the lock also keeps a group commit from
   installing across the swap. *)
let rotate_locked t ~when_ =
  Sim.Resource.acquire t.commit_lock;
  Fun.protect ~finally:(fun () -> Sim.Resource.release t.commit_lock) (fun () ->
      when_ () && (rotate_memtable t; true))

let maybe_flush t =
  let full () =
    (not t.config.in_memory)
    && Memtable.approx_bytes t.memtable > t.config.memtable_max_bytes
    && List.length t.immutables < 4
  in
  if full () && rotate_locked t ~when_:full then begin
    if not t.flushing then begin
      t.flushing <- true;
      Sim.spawn t.sim (fun () ->
          Fun.protect ~finally:(fun () -> t.flushing <- false) (fun () ->
              while t.immutables <> [] do
                flush_oldest_immutable t
              done))
    end
  end

let flush_now t =
  ignore (rotate_locked t ~when_:(fun () -> Memtable.entries t.memtable > 0));
  while t.immutables <> [] do
    flush_oldest_immutable t
  done

let compact_now t =
  request_compaction t Full;
  (* Deterministic drain: park until the compactor fiber has consumed the
     queue (same polling idiom as the WAL-retirement wait). *)
  while not (compaction_idle t) do
    Sim.sleep t.sim 50_000
  done

let cache_usage t =
  Option.map (fun c -> (Block_cache.used_bytes c, Block_cache.capacity_bytes c)) t.cache

(* --- writes ----------------------------------------------------------- *)

let stab_wait t ?span ~args wait =
  let wspan =
    if Trace.enabled () then
      Trace.begin_span ?parent:span ~node:t.trace_node ~cat:"storage" "stab.wait" ~args
    else Trace.none
  in
  let t0 = Sim.now t.sim in
  let r = wait wspan in
  Trace.end_span wspan
    ~args:[ ("status", Trace.Str (match r with Ok () -> "ok" | Error _ -> "timeout")) ];
  Metrics.observe "stab.wait_ns" (Sim.now t.sim - t0);
  r

(* Rollback protection for an acknowledged entry in the current WAL: both
   the WAL entry and the MANIFEST edit registering the WAL must be stable,
   or trusted-prefix recovery would drop the WAL altogether. [Error] when
   the counter group is unreachable: the entry is durable locally but NOT
   rollback-protected, so the caller must not ack. *)
let wait_wal_entry_stable t ?span ~counter () =
  match t.stability with
  | Some s when not t.config.in_memory ->
      stab_wait t ?span ~args:[ ("counter", Trace.Int counter) ] (fun span ->
          Result.bind (s.wait_stable ~span ~log:(Log_auth.name t.wal) ~counter)
            (fun () ->
              s.wait_stable ~span ~log:manifest_log ~counter:t.wal_manifest_counter))
  | _ -> Ok ()

let apply_writes t ~seq writes =
  List.iter
    (fun (key, op) ->
      Enclave.charge_engine_op ~lsm:(not t.config.in_memory) (enclave t)
        ~bytes:(Op.size op);
      Memtable.add t.memtable ~key ~seq op)
    writes

let commit t ?span ~writes () =
  t.stats.commits <- t.stats.commits + 1;
  let counter, seq =
    match t.group with
    | Some group ->
        let item = { cwrites = writes; cseq = 0 } in
        let counter = Group_commit.submit group ?span item in
        (counter, item.cseq)
    | None ->
        Sim.Resource.acquire t.commit_lock;
        Fun.protect ~finally:(fun () -> Sim.Resource.release t.commit_lock)
        @@ fun () ->
        let seq = next_seq t in
        let counter =
          wal_append t ?span (Wal_record.Commit_batch [ (seq, writes) ])
        in
        apply_writes t ~seq writes;
        t.visible_seq <- t.last_alloc_seq;
        (counter, seq)
  in
  Result.map
    (fun () ->
      maybe_flush t;
      seq)
    (wait_wal_entry_stable t ?span ~counter ())

let prepare t ~tx ~writes =
  t.stats.prepares <- t.stats.prepares + 1;
  Sim.Resource.acquire t.commit_lock;
  Fun.protect ~finally:(fun () -> Sim.Resource.release t.commit_lock)
  @@ fun () -> log_prepare t ~tx writes

let resolve t ~tx ~commit =
  match Hashtbl.find_opt t.prepared tx with
  | None | Some ((Resolving _ | Committed _), _) -> None
  | Some (Pending writes, wal_id) ->
      Hashtbl.replace t.prepared tx (Resolving writes, wal_id);
      Sim.Resource.acquire t.commit_lock;
      let seq =
        Fun.protect ~finally:(fun () -> Sim.Resource.release t.commit_lock)
        @@ fun () ->
        if commit then begin
          let seq = next_seq t in
          wal_note t (Wal_record.Resolve (tx, Some seq));
          apply_writes t ~seq writes;
          t.visible_seq <- t.last_alloc_seq;
          Some seq
        end
        else begin
          wal_note t (Wal_record.Resolve (tx, None));
          None
        end
      in
      (match seq with
      | Some seq -> Hashtbl.replace t.prepared tx (Committed { seq; at = Sim.now t.sim }, wal_id)
      | None -> Hashtbl.remove t.prepared tx);
      maybe_flush t;
      seq

let prepared_txs t =
  Hashtbl.fold
    (fun tx (slice, _) acc ->
      match slice with Pending _ -> tx :: acc | Resolving _ | Committed _ -> acc)
    t.prepared []

let slice_state t ~tx =
  Option.map
    (function
      | Pending _, _ -> `Prepared
      | Resolving _, _ -> `Resolving
      | Committed _, _ -> `Committed)
    (Hashtbl.find_opt t.prepared tx)

let committed_txs t =
  Hashtbl.fold
    (fun tx (slice, _) acc ->
      match slice with Committed { at; _ } -> (tx, at) :: acc | Pending _ | Resolving _ -> acc)
    t.prepared []

let forget_where t forget =
  Hashtbl.filter_map_inplace
    (fun tx ((slice, _) as entry) ->
      match slice with
      | Committed _ when forget tx -> None
      | Committed _ | Pending _ | Resolving _ -> Some entry)
    t.prepared

let forget_commit t ~tx = forget_where t (fun tx' -> tx' = tx)

let forget_commits t ~coord ~below =
  forget_where t (fun (c, seq) -> c = coord && seq < below)

(* Prepared writes a reader must wait for, those a resolve is applying
   included. *)
let prepared_write_sets t =
  Hashtbl.fold
    (fun _ (slice, _) acc ->
      match slice with
      | Pending writes | Resolving writes -> writes :: acc
      | Committed _ -> acc)
    t.prepared []

let prepared_exists t touched =
  List.exists (List.exists (fun (k, _) -> touched k)) (prepared_write_sets t)

let key_prepared t ~key = prepared_exists t (String.equal key)
let range_prepared t ~lo ~hi = prepared_exists t (fun k -> k >= lo && k <= hi)

(* --- Clog ------------------------------------------------------------- *)

let clog_append t ?span record =
  t.stats.clog_appends <- t.stats.clog_appends + 1;
  match t.clog_group with
  | Some group -> Group_commit.submit group ?span record
  | None -> ephemeral_counter t clog_log

let clog_wait_stable t ?span ~counter () =
  match t.stability with
  | None -> Ok ()
  | Some s ->
      stab_wait t ?span
        ~args:[ ("log", Trace.Str clog_log); ("counter", Trace.Int counter) ]
        (fun span -> s.wait_stable ~span ~log:clog_log ~counter)

let wal_group_stats t = Option.map Group_commit.stats t.group
let clog_group_stats t = Option.map Group_commit.stats t.clog_group

let clog_trim t ~upto = ignore (manifest_append t (Manifest.Clog_trim { upto }))

let log_last_counters t =
  [
    (manifest_log, Log_auth.last_counter t.manifest);
    (clog_log, Log_auth.last_counter t.clog);
    (Log_auth.name t.wal, Log_auth.last_counter t.wal);
  ]

(* --- recovery --------------------------------------------------------- *)

let recover ?node ssd sec cfg stability ~trusted =
  let sim = Ssd.sim ssd in
  let t = create_internal ?node sim ssd sec cfg stability in
  let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let replay_log log =
    Log_auth.replay log ?trusted:(trusted (Log_auth.name log)) ()
  in
  match replay_log t.manifest with
  | Error e -> fail "MANIFEST: %s" (Format.asprintf "%a" Log_auth.pp_replay_error e)
  | Ok (manifest_entries, _manifest_dropped) -> (
      match Manifest.replay_edits manifest_entries with
      | Error m -> fail "MANIFEST: %s" m
      | Ok (version, _edits) -> (
          (* Reopen the SSTable hierarchy, verifying footer digests. *)
          match
            try
              Ok
                (Array.iteri
                   (fun l metas ->
                     t.levels.(l) <-
                       Array.of_list
                         (List.map
                            (fun (m : Manifest.file_meta) ->
                              {
                                meta = m;
                                handle =
                                  Sstable.open_ ssd sec ~file_id:m.file_id
                                    ~footer_digest:m.footer_digest;
                              })
                            metas))
                   version.Manifest.levels)
            with Sec.Integrity_violation m -> Error m
          with
          | Error m -> fail "SSTable: %s" m
          | Ok () -> (
              t.next_file_id <-
                1
                + Array.fold_left
                    (Array.fold_left (fun acc lf -> max acc lf.meta.Manifest.file_id))
                    0 t.levels;
              t.last_alloc_seq <-
                Array.fold_left
                  (Array.fold_left (fun acc lf -> max acc lf.meta.Manifest.max_seq))
                  0 t.levels;
              (* Replay live WALs, oldest first, into the fresh MemTable. *)
              let wal_dropped = ref 0 in
              let prepared : (Wal_record.txid, slice) Hashtbl.t = Hashtbl.create 16 in
              let replay_wal_record = function
                | Wal_record.Commit_batch txs ->
                    List.iter
                      (fun (seq, writes) ->
                        t.last_alloc_seq <- max t.last_alloc_seq seq;
                        List.iter
                          (fun (key, op) -> Memtable.add t.memtable ~key ~seq op)
                          writes)
                      txs
                | Wal_record.Prepare (tx, writes) ->
                    Hashtbl.replace prepared tx (Pending writes)
                | Wal_record.Resolve (tx, outcome) -> (
                    match Hashtbl.find_opt prepared tx with
                    | Some (Pending writes) -> (
                        match outcome with
                        | Some seq ->
                            (* A resolved commit stays a mark, as it was
                               before the crash. *)
                            Hashtbl.replace prepared tx (Committed { seq; at = 0 });
                            t.last_alloc_seq <- max t.last_alloc_seq seq;
                            List.iter
                              (fun (key, op) -> Memtable.add t.memtable ~key ~seq op)
                              writes
                        | None -> Hashtbl.remove prepared tx)
                    | Some (Resolving _ | Committed _) | None -> ())
              in
              let wal_error = ref None in
              List.iter
                (fun wal_id ->
                  if !wal_error = None then begin
                    let wal =
                      Log_auth.create ssd sec ~name:(Manifest.wal_name wal_id)
                    in
                    match replay_log wal with
                    | Error e ->
                        wal_error :=
                          Some
                            (Printf.sprintf "%s: %s" (Manifest.wal_name wal_id)
                               (Format.asprintf "%a" Log_auth.pp_replay_error e))
                    | Ok (entries, dropped) ->
                        wal_dropped := !wal_dropped + dropped;
                        List.iter
                          (fun (_, payload) ->
                            if !wal_error = None then
                              match Wal_record.decode payload with
                              | Ok record -> replay_wal_record record
                              | Error m ->
                                  wal_error :=
                                    Some
                                      (Printf.sprintf "%s: %s"
                                         (Manifest.wal_name wal_id) m))
                          entries
                  end)
                version.Manifest.live_wals;
              match !wal_error with
              | Some m -> fail "WAL: %s" m
              | None -> (
                  (* Version seqs allocated just before the crash may sit in
                     the WAL's unstable tail and not replay, yet they were
                     already visible to readers (Treaty acks a distributed
                     commit without waiting for the local Resolve entry to
                     stabilize — the stable Clog decision re-drives it).
                     Jump the allocator past that lost suffix so a
                     re-resolved prepare never reuses a seq an earlier
                     reader observed; same gap idiom as the coordinator's
                     tx-seq recovery. *)
                  t.last_alloc_seq <- t.last_alloc_seq + 1_000_000;
                  t.visible_seq <- t.last_alloc_seq;
                  (* Replay the Clog (coordinator 2PC state). A
                     group-committed window shares one counter: every record
                     it carries replays with the batch's counter value. *)
                  let rec decode_clog acc = function
                    | [] -> Ok (List.concat (List.rev acc))
                    | (c, _) :: rest when c <= version.Manifest.clog_trim ->
                        decode_clog acc rest
                    | (c, payload) :: rest ->
                        Result.bind (Clog_record.decode payload) (fun record ->
                            decode_clog
                              (List.map (fun r -> (c, r)) (Clog_record.flatten record)
                              :: acc)
                              rest)
                  in
                  match
                    match replay_log t.clog with
                    | Error e -> Error (Format.asprintf "%a" Log_auth.pp_replay_error e)
                    | Ok (entries, dropped) ->
                        Result.map (fun records -> (records, dropped)) (decode_clog [] entries)
                  with
                  | Error m -> fail "CLOG: %s" m
                  | Ok (clog_records, clog_dropped) ->
                      (* Consolidate through the running engine's own
                         steps: flush the replayed state to L0, open a fresh
                         WAL, re-log the surviving prepares and commit marks
                         into it and retire every replayed WAL. The re-logged
                         records are appended before the retiring MANIFEST
                         edits, so the round that trusts those edits (and
                         lets the old files go) carries them too. *)
                      write_l0 t t.memtable;
                      Memtable.release t.memtable;
                      t.memtable <-
                        Memtable.create ~values_in_enclave:cfg.values_in_enclave sec;
                      open_wal t (1 + List.fold_left max 0 version.Manifest.live_wals);
                      let slices =
                        Hashtbl.fold (fun tx slice acc -> (tx, slice) :: acc) prepared []
                      in
                      let prepared_list =
                        List.filter_map
                          (fun (tx, slice) ->
                            match slice with
                            | Pending writes | Resolving writes ->
                                log_prepare t ~tx writes;
                                Some (tx, writes)
                            | Committed { seq; _ } ->
                                log_committed t ~tx ~seq;
                                None)
                          slices
                      in
                      retire_wals t version.Manifest.live_wals;
                      Ok
                        ( t,
                          {
                            prepared = prepared_list;
                            clog_records;
                            wal_entries_dropped = !wal_dropped;
                            clog_entries_dropped = clog_dropped;
                          } )))))
