(* Storage engine: SSD model, authenticated logs (tamper/truncation/rollback
   detection), skip list, MemTable, SSTables, record codecs, group commit,
   the full LSM engine, and model-based property tests with crashes. *)

module Sim = Treaty_sim.Sim
module Enclave = Treaty_tee.Enclave
open Treaty_storage

let with_sim f =
  let sim = Sim.create () in
  Sim.run sim (fun () -> f sim)

let mk_sec ?(mode = Enclave.Scone) ?(auth = true) ?(enc = true) sim =
  let enclave =
    Enclave.create sim ~mode ~cost:Treaty_sim.Costmodel.default ~cores:4
      ~node_id:1 ~code_identity:"storage-test"
  in
  Sec.create ~enclave ~auth
    ~enc:(if enc then Some (Treaty_crypto.Aead.key_of_string "sk") else None)
    ()

(* --- Ssd --------------------------------------------------------------- *)

let ssd_basics () =
  with_sim (fun sim ->
      let sec = mk_sec sim in
      let ssd = Ssd.create sim Treaty_sim.Costmodel.default in
      let e = Sec.enclave sec in
      let off1 = Ssd.append ssd ~enclave:e "f" "hello " in
      let off2 = Ssd.append ssd ~enclave:e "f" "world" in
      Alcotest.(check (pair int int)) "offsets" (0, 6) (off1, off2);
      Alcotest.(check string) "read back" "lo wor" (Ssd.read ssd ~enclave:e "f" ~off:3 ~len:6);
      Alcotest.(check int) "size" 11 (Ssd.size ssd "f");
      let snap = Ssd.snapshot ssd in
      ignore (Ssd.append ssd ~enclave:e "f" "!!!");
      Ssd.restore ssd snap;
      Alcotest.(check int) "rollback restores old size" 11 (Ssd.size ssd "f");
      Ssd.truncate ssd "f" 5;
      Alcotest.(check int) "truncated" 5 (Ssd.size ssd "f");
      Ssd.delete ssd "f";
      Alcotest.(check bool) "deleted" false (Ssd.exists ssd "f"))

(* --- Log_auth ---------------------------------------------------------- *)

let log_roundtrip () =
  with_sim (fun sim ->
      let sec = mk_sec sim in
      let ssd = Ssd.create sim Treaty_sim.Costmodel.default in
      let log = Log_auth.create ssd sec ~name:"L" in
      let counters =
        List.map
          (fun i ->
            Log_auth.append log (fun b -> Buffer.add_string b (Printf.sprintf "entry%d" i)))
          [ 1; 2; 3 ]
      in
      Alcotest.(check (list int)) "dense counters" [ 1; 2; 3 ] counters;
      let log2 = Log_auth.create ssd sec ~name:"L" in
      match Log_auth.replay log2 () with
      | Ok (entries, 0) ->
          Alcotest.(check (list string)) "payloads"
            [ "entry1"; "entry2"; "entry3" ]
            (List.map snd entries);
          Alcotest.(check int) "resumes numbering" 4 (Log_auth.next_counter log2)
      | _ -> Alcotest.fail "replay failed")

let log_tamper_detection () =
  with_sim (fun sim ->
      let sec = mk_sec sim in
      let ssd = Ssd.create sim Treaty_sim.Costmodel.default in
      let log = Log_auth.create ssd sec ~name:"L" in
      for i = 1 to 10 do
        ignore
          (Log_auth.append log (fun b -> Buffer.add_string b (Printf.sprintf "payload-%d" i)))
      done;
      Ssd.tamper ssd "L" ~off:(Ssd.size ssd "L" / 2);
      let log2 = Log_auth.create ssd sec ~name:"L" in
      match Log_auth.replay log2 () with
      | Error (`Tampered _) -> ()
      | Ok _ -> Alcotest.fail "tampered log accepted"
      | Error e -> Alcotest.failf "unexpected error: %a" Log_auth.pp_replay_error e)

let log_truncation_detection () =
  with_sim (fun sim ->
      let sec = mk_sec sim in
      let ssd = Ssd.create sim Treaty_sim.Costmodel.default in
      let log = Log_auth.create ssd sec ~name:"L" in
      for i = 1 to 5 do
        ignore (Log_auth.append log (fun b -> Buffer.add_string b (string_of_int i)))
      done;
      (* Cut mid-entry: structurally invalid. *)
      Ssd.truncate ssd "L" (Ssd.size ssd "L" - 3);
      let log2 = Log_auth.create ssd sec ~name:"L" in
      match Log_auth.replay log2 () with
      | Error `Truncated -> ()
      | _ -> Alcotest.fail "mid-entry truncation undetected")

let log_rollback_detection () =
  with_sim (fun sim ->
      let sec = mk_sec sim in
      let ssd = Ssd.create sim Treaty_sim.Costmodel.default in
      let log = Log_auth.create ssd sec ~name:"L" in
      for i = 1 to 5 do
        ignore (Log_auth.append log (fun b -> Buffer.add_string b (string_of_int i)))
      done;
      let snap = Ssd.snapshot ssd in
      for i = 6 to 9 do
        ignore (Log_auth.append log (fun b -> Buffer.add_string b (string_of_int i)))
      done;
      (* Adversary rolls the disk back to the older (still well-formed)
         state; the trusted counter knows better. *)
      Ssd.restore ssd snap;
      let log2 = Log_auth.create ssd sec ~name:"L" in
      (match Log_auth.replay log2 ~trusted:9 () with
      | Error (`Rolled_back (9, 5)) -> ()
      | Ok _ -> Alcotest.fail "rollback attack accepted"
      | Error e -> Alcotest.failf "unexpected: %a" Log_auth.pp_replay_error e);
      (* Without the trusted counter (no stabilization) the stale log is
         indistinguishable from a crash — it replays "cleanly". This is the
         gap the stabilization protocol closes. *)
      let log3 = Log_auth.create ssd sec ~name:"L" in
      match Log_auth.replay log3 () with
      | Ok (entries, _) -> Alcotest.(check int) "stale prefix accepted" 5 (List.length entries)
      | Error _ -> Alcotest.fail "clean prefix should replay")

let log_unstable_tail_dropped () =
  with_sim (fun sim ->
      let sec = mk_sec sim in
      let ssd = Ssd.create sim Treaty_sim.Costmodel.default in
      let log = Log_auth.create ssd sec ~name:"L" in
      for i = 1 to 6 do
        ignore (Log_auth.append log (fun b -> Buffer.add_string b (string_of_int i)))
      done;
      let enclave = Sec.enclave sec in
      let contents () = Ssd.read ssd ~enclave "L" ~off:0 ~len:(Ssd.size ssd "L") in
      let stable_prefix = contents () in
      for i = 7 to 8 do
        ignore (Log_auth.append log (fun b -> Buffer.add_string b (string_of_int i)))
      done;
      let replay log ~trusted =
        match Log_auth.replay log ~trusted () with
        | Ok r -> r
        | Error e -> Alcotest.failf "unexpected: %a" Log_auth.pp_replay_error e
      in
      (* Only 6 were stabilized before the crash: the tail cannot be
         trusted and is discarded. *)
      let log2 = Log_auth.create ssd sec ~name:"L" in
      let entries, dropped = replay log2 ~trusted:6 in
      Alcotest.(check int) "kept stable prefix" 6 (List.length entries);
      Alcotest.(check int) "dropped tail" 2 dropped;
      Alcotest.(check int) "appends continue from stable point" 7
        (Log_auth.next_counter log2);
      Alcotest.(check bool) "file is its trusted prefix, byte for byte" true
        (contents () = stable_prefix);
      (* A fresh handle replays the cut file cleanly and appends on its
         chain: the next replay verifies the new entry's MAC. *)
      let log3 = Log_auth.create ssd sec ~name:"L" in
      let entries, dropped = replay log3 ~trusted:6 in
      Alcotest.(check (pair int int)) "cut file replays whole" (6, 0)
        (List.length entries, dropped);
      Alcotest.(check int) "append continues the chain" 7
        (Log_auth.append log3 (fun b -> Buffer.add_string b "7b"));
      let entries, _ = replay (Log_auth.create ssd sec ~name:"L") ~trusted:7 in
      Alcotest.(check (list (pair int string))) "chain holds across the cut"
        (List.init 6 (fun i -> (i + 1, string_of_int (i + 1))) @ [ (7, "7b") ])
        entries)

let log_plain_mode_no_auth () =
  with_sim (fun sim ->
      let sec = mk_sec ~auth:false ~enc:false sim in
      let ssd = Ssd.create sim Treaty_sim.Costmodel.default in
      let log = Log_auth.create ssd sec ~name:"L" in
      ignore (Log_auth.append log (fun b -> Buffer.add_string b "entry"));
      (* The native baseline stores plaintext and cannot detect tampering;
         that is the point of the comparison. *)
      let raw = Ssd.read ssd ~enclave:(Sec.enclave sec) "L" ~off:0 ~len:(Ssd.size ssd "L") in
      let contains_substring hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "plaintext on disk" true (contains_substring raw "entry"))

(* --- Skiplist ---------------------------------------------------------- *)

let skiplist_versions () =
  let sl = Skiplist.create () in
  Skiplist.insert sl ~key:"k" ~seq:1 "v1";
  Skiplist.insert sl ~key:"k" ~seq:5 "v5";
  Skiplist.insert sl ~key:"k" ~seq:3 "v3";
  Alcotest.(check (option (pair int string))) "freshest below 10" (Some (5, "v5"))
    (Skiplist.find sl ~key:"k" ~max_seq:10);
  Alcotest.(check (option (pair int string))) "snapshot at 4" (Some (3, "v3"))
    (Skiplist.find sl ~key:"k" ~max_seq:4);
  Alcotest.(check (option (pair int string))) "snapshot at 2" (Some (1, "v1"))
    (Skiplist.find sl ~key:"k" ~max_seq:2);
  Alcotest.(check (option (pair int string))) "before first" None
    (Skiplist.find sl ~key:"k" ~max_seq:0);
  Alcotest.(check (option (pair int string))) "missing key" None
    (Skiplist.find sl ~key:"zzz" ~max_seq:10)

let prop_skiplist_vs_model =
  QCheck.Test.make ~name:"skiplist agrees with a model map" ~count:100
    QCheck.(list (pair (int_range 0 20) (int_range 1 50)))
    (fun ops ->
      let sl = Skiplist.create () in
      let model : (string * int, int) Hashtbl.t = Hashtbl.create 64 in
      List.iteri
        (fun i (k, seq) ->
          let key = Printf.sprintf "key%02d" k in
          Skiplist.insert sl ~key ~seq i;
          Hashtbl.replace model (key, seq) i)
        ops;
      (* Every (key, snapshot) lookup agrees with the model's best version. *)
      List.for_all
        (fun snap ->
          List.for_all
            (fun k ->
              let key = Printf.sprintf "key%02d" k in
              let best =
                Hashtbl.fold
                  (fun (mk, mseq) v acc ->
                    if mk = key && mseq <= snap then
                      match acc with
                      | Some (bseq, _) when bseq >= mseq -> acc
                      | _ -> Some (mseq, v)
                    else acc)
                  model None
              in
              Skiplist.find sl ~key ~max_seq:snap = best)
            (List.init 21 Fun.id))
        [ 0; 10; 25; 50 ])

let prop_skiplist_sorted =
  QCheck.Test.make ~name:"skiplist iterates in internal-key order" ~count:100
    QCheck.(list (pair (int_range 0 30) (int_range 1 99)))
    (fun ops ->
      let sl = Skiplist.create () in
      List.iter
        (fun (k, seq) -> Skiplist.insert sl ~key:(Printf.sprintf "%03d" k) ~seq ())
        ops;
      let order = Skiplist.fold sl ~init:[] ~f:(fun acc ~key ~seq () -> (key, seq) :: acc) in
      let order = List.rev order in
      let rec sorted = function
        | (k1, s1) :: ((k2, s2) :: _ as rest) ->
            (k1 < k2 || (k1 = k2 && s1 > s2)) && sorted rest
        | _ -> true
      in
      sorted order)

(* --- Memtable ---------------------------------------------------------- *)

let memtable_roundtrip_and_tamper () =
  with_sim (fun sim ->
      let sec = mk_sec sim in
      let mt = Memtable.create sec in
      Memtable.add mt ~key:"a" ~seq:1 (Op.Put "v1");
      Memtable.add mt ~key:"a" ~seq:2 (Op.Put "v2");
      Memtable.add mt ~key:"b" ~seq:3 Op.Delete;
      (match Memtable.get mt ~key:"a" ~max_seq:10 with
      | Memtable.Found (2, "v2") -> ()
      | _ -> Alcotest.fail "wrong version");
      (match Memtable.get mt ~key:"a" ~max_seq:1 with
      | Memtable.Found (1, "v1") -> ()
      | _ -> Alcotest.fail "snapshot read failed");
      (match Memtable.get mt ~key:"b" ~max_seq:10 with
      | Memtable.Deleted 3 -> ()
      | _ -> Alcotest.fail "tombstone lost");
      Alcotest.(check int) "entries" 3 (Memtable.entries mt);
      (* Host memory holds the values: flipping a byte there must be
         detected by the in-enclave hash. *)
      Memtable.host_tamper mt;
      let tamper_detected =
        try
          (* One of the values is now corrupt. *)
          ignore (Memtable.get mt ~key:"a" ~max_seq:10);
          ignore (Memtable.get mt ~key:"a" ~max_seq:1);
          false
        with Sec.Integrity_violation _ -> true
      in
      Alcotest.(check bool) "host tampering detected" true tamper_detected)

let memtable_epc_accounting () =
  with_sim (fun sim ->
      let sec = mk_sec sim in
      let e = Sec.enclave sec in
      let epc0 = Enclave.epc_used e in
      let host0 = Enclave.host_used e in
      let mt = Memtable.create sec in
      Memtable.add mt ~key:"key" ~seq:1 (Op.Put (String.make 1000 'v'));
      Alcotest.(check bool) "keys in enclave" true (Enclave.epc_used e > epc0);
      Alcotest.(check bool) "values in host" true (Enclave.host_used e - host0 >= 1000);
      let epc_with_data = Enclave.epc_used e in
      Alcotest.(check bool) "values not in EPC" true (epc_with_data - epc0 < 500);
      Memtable.release mt;
      Alcotest.(check int) "EPC returned" epc0 (Enclave.epc_used e);
      (* Ablation: values_in_enclave charges the EPC instead. *)
      let mt2 = Memtable.create ~values_in_enclave:true sec in
      Memtable.add mt2 ~key:"key" ~seq:1 (Op.Put (String.make 1000 'v'));
      Alcotest.(check bool) "ablation puts values in EPC" true
        (Enclave.epc_used e - epc0 >= 1000);
      Memtable.release mt2)

(* --- Sstable ----------------------------------------------------------- *)

let build_entries n =
  List.init n (fun i -> (Printf.sprintf "key%04d" i, n - i, Op.Put (Printf.sprintf "val%d" i)))

let sstable_roundtrip () =
  with_sim (fun sim ->
      let sec = mk_sec sim in
      let ssd = Ssd.create sim Treaty_sim.Costmodel.default in
      let entries = build_entries 500 in
      let h, digest = Sstable.build ssd sec ~file_id:1 ~block_bytes:512 (List.to_seq entries) in
      Alcotest.(check bool) "multiple blocks" true (Sstable.block_count h > 4);
      (match Sstable.get ssd sec h ~key:"key0123" ~max_seq:max_int with
      | Some (_, Op.Put "val123") -> ()
      | _ -> Alcotest.fail "lookup failed");
      Alcotest.(check bool) "absent key" true
        (Sstable.get ssd sec h ~key:"nope" ~max_seq:max_int = None);
      (* Reopen via the manifest-recorded digest (recovery path). *)
      let h2 = Sstable.open_ ssd sec ~file_id:1 ~footer_digest:digest in
      (match Sstable.get ssd sec h2 ~key:"key0456" ~max_seq:max_int with
      | Some (_, Op.Put "val456") -> ()
      | _ -> Alcotest.fail "reopened lookup failed");
      Alcotest.(check int) "full scan" 500 (List.length (Sstable.load_all ssd sec h2)))

let sstable_tamper () =
  with_sim (fun sim ->
      let sec = mk_sec sim in
      let ssd = Ssd.create sim Treaty_sim.Costmodel.default in
      let entries = build_entries 200 in
      let h, digest = Sstable.build ssd sec ~file_id:2 ~block_bytes:512 (List.to_seq entries) in
      let name = Sstable.file_name ~file_id:2 in
      Ssd.tamper ssd name ~off:64;
      (* A read touching the tampered block must fail its hash. *)
      let detected =
        try
          List.iter
            (fun i ->
              ignore
                (Sstable.get ssd sec h
                   ~key:(Printf.sprintf "key%04d" i)
                   ~max_seq:max_int))
            (List.init 200 Fun.id);
          false
        with Sec.Integrity_violation _ -> true
      in
      Alcotest.(check bool) "block tampering detected" true detected;
      (* Tamper the footer: reopening must fail against the digest. *)
      Ssd.tamper ssd name ~off:(Ssd.size ssd name - 20);
      let footer_detected =
        try
          ignore (Sstable.open_ ssd sec ~file_id:2 ~footer_digest:digest);
          false
        with Sec.Integrity_violation _ -> true
      in
      Alcotest.(check bool) "footer tampering detected" true footer_detected)

let sstable_snapshot_reads () =
  with_sim (fun sim ->
      let sec = mk_sec sim in
      let ssd = Ssd.create sim Treaty_sim.Costmodel.default in
      let entries = [ ("k", 9, Op.Put "new"); ("k", 4, Op.Put "old"); ("k", 2, Op.Delete) ] in
      let h, _ = Sstable.build ssd sec ~file_id:3 ~block_bytes:4096 (List.to_seq entries) in
      (match Sstable.get ssd sec h ~key:"k" ~max_seq:100 with
      | Some (9, Op.Put "new") -> ()
      | _ -> Alcotest.fail "latest");
      (match Sstable.get ssd sec h ~key:"k" ~max_seq:5 with
      | Some (4, Op.Put "old") -> ()
      | _ -> Alcotest.fail "middle");
      match Sstable.get ssd sec h ~key:"k" ~max_seq:3 with
      | Some (2, Op.Delete) -> ()
      | _ -> Alcotest.fail "tombstone")

let sstable_range () =
  with_sim (fun sim ->
      let sec = mk_sec sim in
      let ssd = Ssd.create sim Treaty_sim.Costmodel.default in
      let entries = build_entries 300 in
      let h, _ = Sstable.build ssd sec ~file_id:9 ~block_bytes:512 (List.to_seq entries) in
      let r = Sstable.range ssd sec h ~lo:"key0010" ~hi:"key0014" ~max_seq:max_int in
      Alcotest.(check int) "5 keys" 5 (List.length r);
      Alcotest.(check bool) "sorted and bounded" true
        (List.for_all (fun (k, _, _) -> k >= "key0010" && k <= "key0014") r);
      Alcotest.(check int) "empty outside" 0
        (List.length (Sstable.range ssd sec h ~lo:"zzz" ~hi:"zzzz" ~max_seq:max_int)))

let memtable_range () =
  with_sim (fun sim ->
      let sec = mk_sec sim in
      let mt = Memtable.create sec in
      List.iter
        (fun (k, s, v) -> Memtable.add mt ~key:k ~seq:s (Op.Put v))
        [ ("a", 1, "va"); ("b", 2, "vb"); ("b", 5, "vb2"); ("c", 3, "vc"); ("d", 4, "vd") ];
      let r = Memtable.range mt ~lo:"b" ~hi:"c" ~max_seq:10 in
      Alcotest.(check int) "versions in range" 3 (List.length r);
      (* snapshot filter *)
      let r2 = Memtable.range mt ~lo:"b" ~hi:"c" ~max_seq:2 in
      Alcotest.(check (list (pair string int))) "only old versions"
        [ ("b", 2) ]
        (List.map (fun (k, s, _) -> (k, s)) r2))

let prop_skiplist_range =
  QCheck.Test.make ~name:"fold_range = filtered fold" ~count:100
    QCheck.(list (pair (int_range 0 30) (int_range 1 50)))
    (fun ops ->
      let sl = Skiplist.create () in
      List.iteri
        (fun i (k, seq) -> Skiplist.insert sl ~key:(Printf.sprintf "%03d" k) ~seq i)
        ops;
      let lo = "005" and hi = "020" in
      let via_range =
        Skiplist.fold_range sl ~lo ~hi ~init:[] ~f:(fun acc ~key ~seq v -> (key, seq, v) :: acc)
      in
      let via_filter =
        Skiplist.fold sl ~init:[] ~f:(fun acc ~key ~seq v ->
            if key >= lo && key <= hi then (key, seq, v) :: acc else acc)
      in
      via_range = via_filter)

(* --- record codecs ----------------------------------------------------- *)

let codec_roundtrips () =
  let wal_records =
    [
      Wal_record.Commit_batch [ (5, [ ("a", Op.Put "x"); ("b", Op.Delete) ]); (6, []) ];
      Wal_record.Prepare ((2, 77), [ ("k", Op.Put "v") ]);
      Wal_record.Resolve ((2, 77), Some 9);
      Wal_record.Resolve ((3, 1), None);
    ]
  in
  List.iter
    (fun r ->
      Alcotest.(check bool) "wal codec" true (Wal_record.decode (Wal_record.encode r) = Ok r))
    wal_records;
  let clog_records =
    [
      Clog_record.Begin_2pc { tx_seq = 4; participants = [ 1; 2; 3 ] };
      Clog_record.Decision { tx_seq = 4; commit = true };
      Clog_record.Decision { tx_seq = 5; commit = false };
      Clog_record.Finished { tx_seq = 4 };
      Clog_record.Batch
        [
          Clog_record.Begin_2pc { tx_seq = 6; participants = [ 2 ] };
          Clog_record.Decision { tx_seq = 6; commit = true };
          Clog_record.Batch [ Clog_record.Finished { tx_seq = 6 } ];
        ];
    ]
  in
  List.iter
    (fun r ->
      Alcotest.(check bool) "clog codec" true
        (Clog_record.decode (Clog_record.encode r) = Ok r))
    clog_records;
  let edits =
    [
      Manifest.Add_file
        {
          Manifest.file_id = 7;
          level = 2;
          footer_digest = "0123456789abcdef0123456789abcdef";
          min_key = "a";
          max_key = "zz";
          max_seq = 99;
          size = 4096;
        };
      Manifest.Delete_file { level = 1; file_id = 3 };
      Manifest.New_wal { wal_id = 2 };
      Manifest.Obsolete_wal { wal_id = 1 };
      Manifest.Clog_trim { upto = 17 };
    ]
  in
  List.iter
    (fun e ->
      Alcotest.(check bool) "manifest codec" true (Manifest.decode (Manifest.encode e) = Ok e))
    edits;
  (* An Add_file edit records the footer format; any other than the one
     Sstable writes is malformed. *)
  let add_file version =
    let module W = Treaty_util.Wire in
    let b = Buffer.create 64 in
    W.w8 b 1;
    W.w64 b 7;
    W.w32 b 2;
    W.wstr b "digest";
    W.w32 b version;
    W.wstr b "a";
    W.wstr b "zz";
    W.w64 b 99;
    W.w64 b 4096;
    Buffer.contents b
  in
  Alcotest.(check bool) "current footer version decodes" true
    (Result.is_ok (Manifest.decode (add_file Sstable.footer_version)));
  List.iter
    (fun v ->
      Alcotest.(check bool)
        (Printf.sprintf "footer version %d is malformed" v)
        true
        (Result.is_error (Manifest.decode (add_file v))))
    [ 0; 1; 3 ]

let manifest_version_fold () =
  let v = Manifest.empty_version 4 in
  let meta id level =
    {
      Manifest.file_id = id;
      level;
      footer_digest = "";
      min_key = Printf.sprintf "%d" id;
      max_key = Printf.sprintf "%d" id;
      max_seq = 0;
      size = 10;
    }
  in
  let v = Manifest.apply_edit v (Manifest.New_wal { wal_id = 1 }) in
  let v = Manifest.apply_edit v (Manifest.Add_file (meta 1 0)) in
  let v = Manifest.apply_edit v (Manifest.Add_file (meta 2 0)) in
  let v = Manifest.apply_edit v (Manifest.New_wal { wal_id = 2 }) in
  let v = Manifest.apply_edit v (Manifest.Obsolete_wal { wal_id = 1 }) in
  let v = Manifest.apply_edit v (Manifest.Delete_file { level = 0; file_id = 1 }) in
  Alcotest.(check (list int)) "live wals" [ 2 ] v.Manifest.live_wals;
  Alcotest.(check (list int)) "L0 files" [ 2 ]
    (List.map (fun m -> m.Manifest.file_id) v.Manifest.levels.(0))

(* --- group commit ------------------------------------------------------ *)

let group_commit_batching () =
  with_sim (fun sim ->
      let batches = ref [] in
      let g =
        Group_commit.create sim ~window_ns:1000
          ~flush:(fun _fspan items ->
            batches := items :: !batches;
            List.length !batches)
          ()
      in
      let results = ref [] in
      for i = 1 to 6 do
        Sim.spawn sim (fun () ->
            let c = Group_commit.submit g i in
            results := (i, c) :: !results)
      done;
      Sim.sleep sim 10_000;
      Alcotest.(check int) "one batch for concurrent submitters" 1 (List.length !batches);
      Alcotest.(check int) "all items in it" 6 (List.length (List.hd !batches));
      Alcotest.(check bool) "all got the same counter" true
        (List.for_all (fun (_, c) -> c = 1) !results))

let clog_group_batches () =
  (* Concurrent Clog appends share authenticated appends and counter
     submissions; every record still replays on recovery, tagged with its
     batch's (monotone) counter. *)
  with_sim (fun sim ->
      let sec = mk_sec sim in
      let ssd = Ssd.create sim Treaty_sim.Costmodel.default in
      let cfg = Engine.default_config in
      let eng = Engine.create ssd sec cfg None in
      let n = 24 in
      let counters = Array.make n 0 in
      let pending = ref n in
      for i = 0 to n - 1 do
        Sim.spawn sim (fun () ->
            let c =
              Engine.clog_append eng
                (Clog_record.Decision { tx_seq = i; commit = i mod 2 = 0 })
            in
            counters.(i) <- c;
            (match Engine.clog_wait_stable eng ~counter:c () with
            | Ok () -> ()
            | Error `Stability_timeout -> Alcotest.fail "no stabilization, yet a timeout");
            decr pending)
      done;
      Sim.sleep sim 50_000_000;
      Alcotest.(check int) "all appends returned" 0 !pending;
      Alcotest.(check int) "appends counted" n (Engine.stats eng).Engine.clog_appends;
      (match Engine.clog_group_stats eng with
      | None -> Alcotest.fail "clog group commit off"
      | Some gs ->
          Alcotest.(check int) "every record flushed" n gs.Group_commit.items;
          Alcotest.(check bool)
            (Printf.sprintf "coalesced (%d batches for %d records)"
               gs.Group_commit.batches n)
            true
            (gs.Group_commit.batches < n));
      (* Counters are monotone: a later batch never gets a smaller value. *)
      let sorted = Array.copy counters in
      Array.sort compare sorted;
      Alcotest.(check bool) "batch counters positive" true (sorted.(0) >= 1);
      (* Crash and recover: the replay must surface all n decisions. *)
      match
        Engine.recover ssd (mk_sec sim) cfg None
          ~trusted:(fun _ -> None)
      with
      | Error m -> Alcotest.failf "recovery failed: %s" m
      | Ok (_, info) ->
          let seen = Hashtbl.create n in
          List.iter
            (fun (c, r) ->
              match r with
              | Clog_record.Decision { tx_seq; commit } ->
                  Hashtbl.replace seen tx_seq (commit, c)
              | Clog_record.Batch _ ->
                  Alcotest.fail "recovery leaked an unflattened batch"
              | _ -> ())
            info.Engine.clog_records;
          for i = 0 to n - 1 do
            match Hashtbl.find_opt seen i with
            | None -> Alcotest.failf "decision %d lost in batching" i
            | Some (commit, c) ->
                Alcotest.(check bool)
                  (Printf.sprintf "decision %d intact" i)
                  (i mod 2 = 0) commit;
                Alcotest.(check int)
                  (Printf.sprintf "decision %d counter" i)
                  counters.(i) c
          done)

(* --- engine ------------------------------------------------------------ *)

let engine_cfg =
  {
    Engine.default_config with
    Engine.memtable_max_bytes = 16 * 1024;
    file_bytes = 8 * 1024;
    level_base_bytes = 32 * 1024;
  }

let mk_engine ?(mode = Enclave.Scone) ?(auth = true) ?(enc = true) sim =
  let sec = mk_sec ~mode ~auth ~enc sim in
  let ssd = Ssd.create sim Treaty_sim.Costmodel.default in
  (Engine.create ssd sec engine_cfg None, ssd, sec)

let engine_compaction_cascade () =
  with_sim (fun sim ->
      let eng, _, _ = mk_engine sim in
      (* Enough data to force flushes and at least one compaction. *)
      for i = 0 to 4_000 do
        ignore
          (Engine.commit eng
             ~writes:[ (Printf.sprintf "k%04d" (i mod 800), Op.Put (String.make 100 'v')) ]
             ())
      done;
      Sim.sleep sim 500_000_000 (* let background flushes drain *);
      Alcotest.(check bool) "flushed" true ((Engine.stats eng).flushes > 0);
      Alcotest.(check bool) "compacted" true ((Engine.stats eng).compactions > 0);
      (* All data still readable after the file churn. *)
      let snap = Engine.snapshot eng in
      for i = 0 to 799 do
        match Engine.get eng ~key:(Printf.sprintf "k%04d" i) ~snapshot:snap with
        | Memtable.Found _ -> ()
        | _ -> Alcotest.failf "key %d lost in compaction" i
      done)

(* Fibers commit at once while the memtable fills and rotates again and
   again: every committed write must stay readable. Two rotations that
   interleaved while one registered its new WAL used to orphan a memtable
   with its writes. *)
let engine_concurrent_rotation () =
  with_sim (fun sim ->
      let eng, _, _ = mk_engine sim in
      let fibers = 8 and per_fiber = 150 in
      let (), (_ : unit list) =
        Sim.fan_out sim (List.init fibers Fun.id) ~local:ignore (fun f ->
            for i = 0 to per_fiber - 1 do
              ignore
                (Engine.commit eng
                   ~writes:[ (Printf.sprintf "f%d:%04d" f i, Op.Put (String.make 100 'v')) ]
                   ())
            done)
      in
      Sim.sleep sim 500_000_000;
      Alcotest.(check bool) "rotated more than once" true ((Engine.stats eng).flushes > 1);
      let snap = Engine.snapshot eng in
      for f = 0 to fibers - 1 do
        for i = 0 to per_fiber - 1 do
          match Engine.get eng ~key:(Printf.sprintf "f%d:%04d" f i) ~snapshot:snap with
          | Memtable.Found _ -> ()
          | Memtable.Deleted _ | Memtable.Not_found ->
              Alcotest.failf "fiber %d's write %d was lost" f i
        done
      done)

let engine_scan () =
  with_sim (fun sim ->
      let eng, _, _ = mk_engine sim in
      for i = 0 to 499 do
        ignore
          (Engine.commit eng
             ~writes:[ (Printf.sprintf "scan%04d" i, Op.Put (Printf.sprintf "v%d" i)) ]
             ())
      done;
      (* Overwrites and deletes inside the range. *)
      ignore (Engine.commit eng ~writes:[ ("scan0100", Op.Put "overwritten") ] ());
      ignore (Engine.commit eng ~writes:[ ("scan0101", Op.Delete) ] ());
      Engine.flush_now eng;
      (* More writes after the flush so the scan spans memtable + sstables. *)
      ignore (Engine.commit eng ~writes:[ ("scan0102", Op.Put "post-flush") ] ());
      let snap = Engine.snapshot eng in
      let result = Engine.scan eng ~lo:"scan0099" ~hi:"scan0104" ~snapshot:snap in
      Alcotest.(check (list (pair string string)))
        "merged, deduped, tombstone dropped"
        [
          ("scan0099", "v99");
          ("scan0100", "overwritten");
          ("scan0102", "post-flush");
          ("scan0103", "v103");
          ("scan0104", "v104");
        ]
        result;
      Alcotest.(check (list (pair string string))) "empty range" []
        (Engine.scan eng ~lo:"zzz" ~hi:"zzzz" ~snapshot:snap);
      (* Old snapshot does not see later writes. *)
      let before = Engine.scan eng ~lo:"scan0102" ~hi:"scan0102" ~snapshot:1 in
      Alcotest.(check bool) "snapshot isolation on scans" true (before = []))

let compaction_respects_pinned_snapshots () =
  with_sim (fun sim ->
      let eng, _, _ = mk_engine sim in
      (* Install v1 of a key, pin a snapshot that sees it, then bury it
         under many newer versions and force compactions: the pinned
         version must survive GC. *)
      let s1 = Result.get_ok (Engine.commit eng ~writes:[ ("pinned", Op.Put "v1") ] ()) in
      let snap = Engine.snapshot eng in
      Engine.retain_snapshot eng snap;
      for i = 0 to 2_000 do
        ignore
          (Engine.commit eng
             ~writes:
               [
                 ("pinned", Op.Put (Printf.sprintf "v%d" (i + 2)));
                 (Printf.sprintf "fill%04d" i, Op.Put (String.make 200 'f'));
               ]
             ())
      done;
      Engine.flush_now eng;
      Engine.compact_now eng;
      Alcotest.(check bool) "compactions ran" true ((Engine.stats eng).compactions > 0);
      (match Engine.get eng ~key:"pinned" ~snapshot:snap with
      | Memtable.Found (seq, "v1") -> Alcotest.(check int) "same version" s1 seq
      | _ -> Alcotest.fail "pinned version lost to GC");
      Engine.release_snapshot eng snap;
      (* After release, a fresh read sees only the newest. *)
      match Engine.get eng ~key:"pinned" ~snapshot:(Engine.snapshot eng) with
      | Memtable.Found (_, v) -> Alcotest.(check string) "newest" "v2002" v
      | _ -> Alcotest.fail "key lost")

(* Planted regression for the compaction GC watermark: a version covered by
   the lowest retained snapshot must survive compaction even when the key
   was later deleted (the tombstone may not swallow it), and the watermark
   accessors must track retain/release exactly — a leaked retention would
   pin GC forever. *)
let gc_watermark_and_tombstones () =
  with_sim (fun sim ->
      let eng, _, _ = mk_engine sim in
      let s1 = Result.get_ok (Engine.commit eng ~writes:[ ("wm", Op.Put "v1") ] ()) in
      let snap = Engine.snapshot eng in
      Engine.retain_snapshot eng snap;
      Alcotest.(check int) "watermark = retained snapshot" snap
        (Engine.min_active_snapshot eng);
      Alcotest.(check int) "one retention" 1 (Engine.active_snapshot_count eng);
      (* Overwrite, then delete, then bury under fill to force compaction
         with the snapshot pinned. *)
      ignore (Engine.commit eng ~writes:[ ("wm", Op.Put "v2") ] ());
      ignore (Engine.commit eng ~writes:[ ("wm", Op.Delete) ] ());
      for i = 0 to 2_000 do
        ignore
          (Engine.commit eng
             ~writes:[ (Printf.sprintf "fill%04d" i, Op.Put (String.make 200 'f')) ]
             ())
      done;
      Engine.flush_now eng;
      Engine.compact_now eng;
      Alcotest.(check bool) "compactions ran" true
        ((Engine.stats eng).compactions > 0);
      Alcotest.(check int) "watermark still pinned" snap
        (Engine.min_active_snapshot eng);
      (* The retained snapshot still reads v1 — not the tombstone. *)
      (match Engine.get eng ~key:"wm" ~snapshot:snap with
      | Memtable.Found (seq, "v1") -> Alcotest.(check int) "v1's seq" s1 seq
      | _ -> Alcotest.fail "retained version GCed under a live snapshot");
      (* A fresh snapshot sees the delete. *)
      (match Engine.get eng ~key:"wm" ~snapshot:(Engine.snapshot eng) with
      | Memtable.Deleted _ | Memtable.Not_found -> ()
      | Memtable.Found _ -> Alcotest.fail "delete lost");
      Engine.release_snapshot eng snap;
      Alcotest.(check int) "no retentions left" 0
        (Engine.active_snapshot_count eng);
      Alcotest.(check bool) "watermark follows visible seq again" true
        (Engine.min_active_snapshot eng > snap);
      (* With the pin gone, a compaction that rewrites the key's file (the
         fresh version overlaps it) finally drops v1: the stale snapshot no
         longer finds it. *)
      ignore (Engine.commit eng ~writes:[ ("wm", Op.Put "v3") ] ());
      Engine.flush_now eng;
      Engine.compact_now eng;
      match Engine.get eng ~key:"wm" ~snapshot:snap with
      | Memtable.Found (_, "v1") -> Alcotest.fail "released version not GCed"
      | _ -> ())

(* Duplicate read/lock entries: however many times a transaction touches a
   key — repeated point reads, a scan over it — the recorded read set keeps
   one entry per key, so OCC prepare acquires each read lock once and the
   serializability checker sees no duplicate edges. *)
let local_txn_read_dedup () =
  let module Core = Treaty_core in
  with_sim (fun sim ->
      let eng, _, sec = mk_engine sim in
      ignore (Engine.commit eng ~writes:[ ("dup", Op.Put "v") ] ());
      let run isolation =
        let locks =
          Core.Lock_table.create sim ~enclave:(Sec.enclave sec) ~timeout_ns:1_000_000
        in
        let txn =
          Core.Local_txn.begin_ ~engine:eng ~locks ~isolation
            ~tx:{ Core.Types.coord = 1; seq = 1 } ()
        in
        (match Core.Local_txn.get txn "dup" with
        | Ok (Some "v") -> ()
        | _ -> Alcotest.fail "get");
        (match Core.Local_txn.get txn "dup" with
        | Ok (Some "v") -> ()
        | _ -> Alcotest.fail "reentrant get");
        (match Core.Local_txn.scan txn ~lo:"dup" ~hi:"dup" with
        | Ok [ ("dup", "v") ] -> ()
        | _ -> Alcotest.fail "scan");
        Alcotest.(check int) "one read-set entry" 1
          (List.length (Core.Local_txn.read_set txn));
        (txn, locks)
      in
      (* OCC: accesses take no locks; prepare locks the deduped read set —
         exactly one acquisition — and validates. *)
      let txn, locks = run Core.Types.Optimistic in
      (match Core.Local_txn.prepare txn with
      | Ok () -> ()
      | _ -> Alcotest.fail "occ prepare");
      Alcotest.(check int) "occ: single read-lock acquisition" 1
        (Core.Lock_table.stats locks).Core.Lock_table.acquisitions;
      Core.Local_txn.finish txn;
      Alcotest.(check int) "occ: released" 0 (Core.Lock_table.locked_keys locks);
      (* 2PL: accesses lock at access time (reentrant re-acquisitions are
         granted) but the read set is still deduplicated. *)
      let txn, locks = run Core.Types.Pessimistic in
      (match Core.Local_txn.prepare txn with
      | Ok () -> ()
      | _ -> Alcotest.fail "2pl prepare");
      Core.Local_txn.finish txn;
      Alcotest.(check int) "2pl: released" 0 (Core.Lock_table.locked_keys locks))

let engine_recovery_exact () =
  with_sim (fun sim ->
      let sec = mk_sec sim in
      let ssd = Ssd.create sim Treaty_sim.Costmodel.default in
      let eng = Engine.create ssd sec engine_cfg None in
      let expected = Hashtbl.create 64 in
      let rng = Treaty_sim.Rng.create 5L in
      for i = 0 to 1500 do
        let k = Printf.sprintf "key%03d" (Treaty_sim.Rng.int rng 300) in
        if Treaty_sim.Rng.int rng 10 = 0 then begin
          ignore (Engine.commit eng ~writes:[ (k, Op.Delete) ] ());
          Hashtbl.replace expected k None
        end
        else begin
          let v = Printf.sprintf "v%d" i in
          ignore (Engine.commit eng ~writes:[ (k, Op.Put v) ] ());
          Hashtbl.replace expected k (Some v)
        end
      done;
      Engine.prepare eng ~tx:(9, 1) ~writes:[ ("prepared-key", Op.Put "pv") ];
      (* Crash: recover from the SSD with a fresh enclave/Sec. *)
      let sec2 = mk_sec sim in
      match Engine.recover ssd sec2 engine_cfg None ~trusted:(fun _ -> None) with
      | Error m -> Alcotest.failf "recovery failed: %s" m
      | Ok (eng2, info) ->
          Alcotest.(check int) "prepared tx recovered" 1 (List.length info.Engine.prepared);
          let snap = Engine.snapshot eng2 in
          Hashtbl.iter
            (fun k v ->
              match (Engine.get eng2 ~key:k ~snapshot:snap, v) with
              | Memtable.Found (_, got), Some want when got = want -> ()
              | (Memtable.Deleted _ | Memtable.Not_found), None -> ()
              | got, _ ->
                  Alcotest.failf "key %s mismatches after recovery (%s)" k
                    (match got with
                    | Memtable.Found _ -> "found-wrong"
                    | Memtable.Deleted _ -> "deleted"
                    | Memtable.Not_found -> "missing"))
            expected;
          (* Resolve the recovered prepared tx and read its write. *)
          (match Engine.resolve eng2 ~tx:(9, 1) ~commit:true with
          | Some _ -> ()
          | None -> Alcotest.fail "recovered prepare not resolvable");
          match Engine.get eng2 ~key:"prepared-key" ~snapshot:(Engine.snapshot eng2) with
          | Memtable.Found (_, "pv") -> ()
          | _ -> Alcotest.fail "prepared write lost")

let engine_recovery_idempotent () =
  with_sim (fun sim ->
      let sec = mk_sec sim in
      let ssd = Ssd.create sim Treaty_sim.Costmodel.default in
      let eng = Engine.create ssd sec engine_cfg None in
      for i = 0 to 200 do
        ignore (Engine.commit eng ~writes:[ (Printf.sprintf "k%d" i, Op.Put "v") ] ())
      done;
      let recover () =
        match
          Engine.recover ssd (mk_sec sim) engine_cfg None
            ~trusted:(fun _ -> None)
        with
        | Ok (e, _) -> e
        | Error m -> Alcotest.failf "recovery failed: %s" m
      in
      let e1 = recover () in
      let e2 = recover () in
      let snap1 = Engine.snapshot e1 and snap2 = Engine.snapshot e2 in
      for i = 0 to 200 do
        let k = Printf.sprintf "k%d" i in
        let a = Engine.get e1 ~key:k ~snapshot:snap1 in
        let b = Engine.get e2 ~key:k ~snapshot:snap2 in
        if a <> b then Alcotest.failf "recovery not idempotent at %s" k
      done)

let engine_recovery_unstable_retirement () =
  (* Recovery retires every replayed WAL with an Obsolete_wal edit. If the
     node crashes again before that edit is stable, the next recovery
     replays the MANIFEST's trusted prefix, which still lists the old WAL:
     its file must still be there, or the WAL reads as rolled back. *)
  with_sim (fun sim ->
      let sec = mk_sec sim in
      let ssd = Ssd.create sim Treaty_sim.Costmodel.default in
      let eng = Engine.create ssd sec engine_cfg None in
      for i = 0 to 40 do
        ignore
          (Engine.commit eng
             ~writes:[ (Printf.sprintf "k%d" i, Op.Put (Printf.sprintf "v%d" i)) ]
             ())
      done;
      Engine.prepare eng ~tx:(9, 1) ~writes:[ ("prepared-key", Op.Put "pv") ];
      (* Everything written before the crash is stable; no MANIFEST edit made
         after recovery starts ever is. *)
      let stable = Engine.log_last_counters eng in
      let trusted log = List.assoc_opt log stable in
      let manifest_stable = List.assoc "MANIFEST" stable in
      let stability =
        {
          Engine.submit = (fun ~span:_ ~log:_ ~counter:_ -> ());
          note = (fun ~log:_ ~counter:_ -> ());
          wait_stable =
            (fun ~span:_ ~log ~counter ->
              if log = "MANIFEST" && counter > manifest_stable then
                Error `Stability_timeout
              else Ok ());
        }
      in
      let recover ?(trusted = trusted) () =
        match Engine.recover ssd (mk_sec sim) engine_cfg (Some stability) ~trusted with
        | Ok r -> r
        | Error m -> Alcotest.failf "recovery failed: %s" m
      in
      let state eng =
        let snap = Engine.snapshot eng in
        List.init 41 (fun i ->
            match Engine.get eng ~key:(Printf.sprintf "k%d" i) ~snapshot:snap with
            | Memtable.Found (_, v) -> Some v
            | Memtable.Deleted _ | Memtable.Not_found -> None)
      in
      let e1, _ = recover () in
      let before = state e1 in
      (* Let the retirement fiber give up on the unstable edit. *)
      Sim.sleep sim 1_000_000;
      let e2, info2 = recover () in
      Alcotest.(check (list (option string))) "same state after second crash"
        before (state e2);
      Alcotest.(check (option string)) "last write intact" (Some "v40")
        (List.nth (state e2) 40);
      Alcotest.(check int) "prepare still recovered" 1
        (List.length info2.Engine.prepared);
      (* The second recovery reused the SSTable and WAL ids of the first one's
         dropped edits. Once its own edits are trusted, they replay cleanly. *)
      let stable2 = Engine.log_last_counters e2 in
      let e3, info3 = recover ~trusted:(fun log -> List.assoc_opt log stable2) () in
      Alcotest.(check (list (option string))) "same state after third recovery"
        before (state e3);
      Alcotest.(check int) "prepare recovered once" 1
        (List.length info3.Engine.prepared))

let engine_duplicate_resolve_ignored () =
  with_sim (fun sim ->
      let eng, _, _ = mk_engine sim in
      Engine.prepare eng ~tx:(1, 1) ~writes:[ ("k", Op.Put "v") ];
      (match Engine.resolve eng ~tx:(1, 1) ~commit:true with
      | Some _ -> ()
      | None -> Alcotest.fail "first resolve failed");
      (* "If a node has already committed the Tx, this message is ignored." *)
      match Engine.resolve eng ~tx:(1, 1) ~commit:true with
      | None -> ()
      | Some _ -> Alcotest.fail "duplicate commit re-executed")

let prop_engine_vs_model =
  QCheck.Test.make ~name:"engine agrees with model map across crashes" ~count:15
    QCheck.(pair (int_bound 1000) (list (triple (int_range 0 50) (int_range 0 2) small_string)))
    (fun (seed, ops) ->
      let result = ref true in
      let sim = Sim.create ~seed:(Int64.of_int (seed + 1)) () in
      Sim.run sim (fun () ->
          let sec = mk_sec sim in
          let ssd = Ssd.create sim Treaty_sim.Costmodel.default in
          let eng = ref (Engine.create ssd sec engine_cfg None) in
          let model : (string, string option) Hashtbl.t = Hashtbl.create 64 in
          let step = ref 0 in
          List.iter
            (fun (k, kind, v) ->
              incr step;
              let key = Printf.sprintf "key%02d" k in
              (match kind with
              | 0 ->
                  ignore (Engine.commit !eng ~writes:[ (key, Op.Put v) ] ());
                  Hashtbl.replace model key (Some v)
              | 1 ->
                  ignore (Engine.commit !eng ~writes:[ (key, Op.Delete) ] ());
                  Hashtbl.replace model key None
              | _ ->
                  (* read + compare *)
                  let got = Engine.get !eng ~key ~snapshot:(Engine.snapshot !eng) in
                  let want = Option.join (Hashtbl.find_opt model key) in
                  let matches =
                    match (got, want) with
                    | Memtable.Found (_, g), Some w -> g = w
                    | (Memtable.Deleted _ | Memtable.Not_found), None -> true
                    | _ -> false
                  in
                  if not matches then result := false);
              (* Crash and recover occasionally. *)
              if !step mod 17 = 0 then
                match
                  Engine.recover ssd (mk_sec sim) engine_cfg None
                    ~trusted:(fun _ -> None)
                with
                | Ok (e, _) -> eng := e
                | Error _ -> result := false)
            ops);
      !result)

(* --- bloom filter + block cache (PR 5) --------------------------------- *)

let bloom_no_false_negatives () =
  let n = 500 in
  let b = Bloom.create ~expected:n in
  for i = 0 to n - 1 do
    Bloom.add b (Printf.sprintf "present-%04d" i)
  done;
  for i = 0 to n - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "member %d" i)
      true
      (Bloom.mem b (Printf.sprintf "present-%04d" i))
  done;
  (* 10 bits/key, k=7: the false-positive rate on absent keys must sit
     near the theoretical ~1%, and in particular far from 0% (filter works
     at all) and far from 100% (filter filters at all). *)
  let fps = ref 0 in
  let probes = 10_000 in
  for i = 0 to probes - 1 do
    if Bloom.mem b (Printf.sprintf "absent-%05d" i) then incr fps
  done;
  Alcotest.(check bool)
    (Printf.sprintf "fp rate sane (%d/%d)" !fps probes)
    true
    (!fps > 0 && !fps < probes / 10)

let bloom_codec_roundtrip () =
  let b = Bloom.create ~expected:64 in
  List.iter (Bloom.add b) [ "alpha"; "beta"; "gamma" ];
  let buf = Buffer.create 128 in
  Bloom.encode buf b;
  let b2 =
    match Bloom.decode (Treaty_util.Wire.reader (Buffer.contents buf)) with
    | Ok b2 -> b2
    | Error m -> Alcotest.failf "bloom decode: %s" m
  in
  List.iter
    (fun k -> Alcotest.(check bool) k true (Bloom.mem b2 k))
    [ "alpha"; "beta"; "gamma" ];
  Alcotest.(check bool) "sizes match" true (Bloom.bytes b = Bloom.bytes b2)

let block_cache_eviction_lru () =
  let c = Block_cache.create ~capacity_bytes:1000 in
  ignore (Block_cache.insert c ~file_id:1 ~block:0 ~bytes:300 "a");
  ignore (Block_cache.insert c ~file_id:1 ~block:1 ~bytes:300 "b");
  ignore (Block_cache.insert c ~file_id:1 ~block:2 ~bytes:300 "c");
  (* Bump the oldest entry: it must survive the next eviction instead of
     the (now least-recent) second entry. *)
  Alcotest.(check (option string)) "bump a" (Some "a")
    (Block_cache.find c ~file_id:1 ~block:0);
  let freed = Block_cache.insert c ~file_id:1 ~block:3 ~bytes:300 "d" in
  Alcotest.(check int) "evicted one entry's bytes" 300 freed;
  Alcotest.(check int) "one eviction" 1 (Block_cache.stats c).Block_cache.evictions;
  Alcotest.(check bool) "budget holds" true
    (Block_cache.used_bytes c <= Block_cache.capacity_bytes c);
  Alcotest.(check (option string)) "LRU victim was b" None
    (Block_cache.find c ~file_id:1 ~block:1);
  Alcotest.(check (option string)) "bumped a survived" (Some "a")
    (Block_cache.find c ~file_id:1 ~block:0);
  (* A value larger than the whole budget is refused, cache untouched. *)
  Alcotest.(check int) "oversized refused" 0
    (Block_cache.insert c ~file_id:9 ~block:0 ~bytes:5000 "huge");
  Alcotest.(check (option string)) "oversized not cached" None
    (Block_cache.find c ~file_id:9 ~block:0)

let block_cache_invalidate () =
  let c = Block_cache.create ~capacity_bytes:10_000 in
  ignore (Block_cache.insert c ~file_id:1 ~block:0 ~bytes:100 "f1b0");
  ignore (Block_cache.insert c ~file_id:2 ~block:0 ~bytes:100 "f2b0");
  ignore (Block_cache.insert c ~file_id:1 ~block:1 ~bytes:100 "f1b1");
  Alcotest.(check int) "freed file 1's bytes" 200
    (Block_cache.invalidate_file c ~file_id:1);
  Alcotest.(check (option string)) "file 1 block 0 gone" None
    (Block_cache.find c ~file_id:1 ~block:0);
  Alcotest.(check (option string)) "file 1 block 1 gone" None
    (Block_cache.find c ~file_id:1 ~block:1);
  Alcotest.(check (option string)) "file 2 untouched" (Some "f2b0")
    (Block_cache.find c ~file_id:2 ~block:0);
  Alcotest.(check int) "one entry left" 1 (Block_cache.entries c)

let engine_bloom_hint_correctness () =
  (* Bloom positives are only hints: every probe — resident, absent, or a
     filter false positive — must be answered by the verified block. *)
  with_sim (fun sim ->
      let eng, _, _ = mk_engine sim in
      for i = 0 to 399 do
        ignore
          (Engine.commit eng
             ~writes:[ (Printf.sprintf "ro%04d" (2 * i), Op.Put (Printf.sprintf "v%d" i)) ]
             ())
      done;
      Engine.flush_now eng;
      let snap = Engine.snapshot eng in
      for i = 0 to 399 do
        (match Engine.get eng ~key:(Printf.sprintf "ro%04d" (2 * i)) ~snapshot:snap with
        | Memtable.Found (_, v) ->
            Alcotest.(check string) "resident value" (Printf.sprintf "v%d" i) v
        | _ -> Alcotest.failf "resident key %d missing" i);
        (* Odd keys interleave with residents: in every file's fence range,
           so only the Bloom filter (or the block itself) rejects them. *)
        match Engine.get eng ~key:(Printf.sprintf "ro%04d" ((2 * i) + 1)) ~snapshot:snap with
        | Memtable.Not_found -> ()
        | _ -> Alcotest.failf "absent key %d resurrected" i
      done;
      let s = Engine.stats eng in
      Alcotest.(check bool) "bloom skipped most absent probes" true
        (s.Engine.bloom_negatives > 300);
      Alcotest.(check bool) "cache populated" true (s.Engine.cache_misses > 0))

let engine_cache_invalidation_on_compaction () =
  with_sim (fun sim ->
      let eng, _, _ = mk_engine sim in
      for i = 0 to 299 do
        ignore
          (Engine.commit eng
             ~writes:[ (Printf.sprintf "ci%04d" i, Op.Put (Printf.sprintf "old%d" i)) ]
             ())
      done;
      Engine.flush_now eng;
      let snap = Engine.snapshot eng in
      (* Two passes: the second hits the cache. *)
      for pass = 1 to 2 do
        ignore pass;
        for i = 0 to 299 do
          match Engine.get eng ~key:(Printf.sprintf "ci%04d" i) ~snapshot:snap with
          | Memtable.Found _ -> ()
          | _ -> Alcotest.failf "key %d missing pre-compaction" i
        done
      done;
      Alcotest.(check bool) "cache warm" true ((Engine.stats eng).cache_hits > 0);
      (* Overwrite everything and compact: the input files die, and with
         them their cache entries — reads must see the new versions. *)
      for i = 0 to 299 do
        ignore
          (Engine.commit eng
             ~writes:[ (Printf.sprintf "ci%04d" i, Op.Put (Printf.sprintf "new%d" i)) ]
             ())
      done;
      Engine.flush_now eng;
      Engine.compact_now eng;
      Alcotest.(check bool) "compacted" true ((Engine.stats eng).compactions > 0);
      let snap2 = Engine.snapshot eng in
      for i = 0 to 299 do
        match Engine.get eng ~key:(Printf.sprintf "ci%04d" i) ~snapshot:snap2 with
        | Memtable.Found (_, v) ->
            Alcotest.(check string)
              (Printf.sprintf "key %d post-compaction" i)
              (Printf.sprintf "new%d" i)
              v
        | _ -> Alcotest.failf "key %d lost across compaction" i
      done;
      match Engine.cache_usage eng with
      | None -> Alcotest.fail "cache disabled"
      | Some (used, cap) ->
          Alcotest.(check bool) "cache budget holds" true (used <= cap))

(* A reader holds a level's file list across yields; a compaction that
   retires one of those files in between makes the block read miss. That
   typed miss (Ssd.No_such_file) is the one case get retries. *)
let engine_get_retries_compaction_race () =
  with_sim (fun sim ->
      let eng, _, _ = mk_engine sim in
      let n = 300 in
      let key i = Printf.sprintf "race%04d" i in
      let write round =
        for i = 0 to n - 1 do
          ignore
            (Engine.commit eng
               ~writes:[ (key i, Op.Put (Printf.sprintf "r%d-%d" round i)) ]
               ())
        done
      in
      write 0;
      Engine.flush_now eng;
      let stop = ref false and reader_done = Sim.ivar () in
      Sim.spawn sim (fun () ->
          while not !stop do
            let snap = Engine.snapshot eng in
            Engine.retain_snapshot eng snap;
            for i = 0 to n - 1 do
              match Engine.get eng ~key:(key i) ~snapshot:snap with
              | Memtable.Found _ -> ()
              | _ -> Alcotest.failf "key %d lost to a concurrent compaction" i
            done;
            Engine.release_snapshot eng snap
          done;
          Sim.fill reader_done ());
      for round = 1 to 6 do
        write round;
        Engine.flush_now eng;
        Engine.compact_now eng
      done;
      stop := true;
      Sim.read sim reader_done;
      Alcotest.(check bool) "the race was hit and retried" true
        ((Engine.stats eng).Engine.get_retries > 0))

(* The host cutting a live SSTable short is an attack, not a race: the
   read of a block past the new end fails verification and is not retried.
   Deleting it outright looks like a race at first, so it is retried, and
   reported once the retries run out. *)
let engine_truncated_sstable_detected () =
  with_sim (fun sim ->
      let eng, ssd, _ = mk_engine sim in
      for i = 0 to 299 do
        ignore
          (Engine.commit eng
             ~writes:[ (Printf.sprintf "tr%04d" i, Op.Put (String.make 20 'v')) ]
             ())
      done;
      Engine.flush_now eng;
      Sim.sleep sim 500_000_000 (* let background flushes and compactions drain *);
      Alcotest.(check bool) "engine idle" true (Engine.compaction_idle eng);
      let ssts =
        List.filter (String.starts_with ~prefix:"sst-") (Ssd.list_files ssd)
      in
      Alcotest.(check bool) "flushed to SSTables" true (ssts <> []);
      List.iter (fun name -> Ssd.truncate ssd name (Ssd.size ssd name / 4)) ssts;
      let snap = Engine.snapshot eng in
      (match Engine.get eng ~key:"tr0299" ~snapshot:snap with
      | _ -> Alcotest.fail "read of a truncated SSTable succeeded"
      | exception Sec.Integrity_violation _ -> ());
      Alcotest.(check int) "truncation is not retried as a race" 0
        (Engine.stats eng).Engine.get_retries;
      (* A live file that stays gone is a deletion attack: retried as a
         possible race, then reported as an integrity failure. *)
      List.iter (Ssd.delete ssd) ssts;
      (match Engine.get eng ~key:"tr0299" ~snapshot:snap with
      | _ -> Alcotest.fail "read of a deleted SSTable succeeded"
      | exception Sec.Integrity_violation _ -> ());
      Alcotest.(check int) "deletion retried before it is reported" 3
        (Engine.stats eng).Engine.get_retries)

let engine_cache_capacity_eviction () =
  with_sim (fun sim ->
      let sec = mk_sec sim in
      let ssd = Ssd.create sim Treaty_sim.Costmodel.default in
      (* A budget of a couple of blocks forces evictions as reads sweep. *)
      let cfg = { engine_cfg with Engine.block_cache_bytes = 4 * 1024 } in
      let eng = Engine.create ssd sec cfg None in
      for i = 0 to 499 do
        ignore
          (Engine.commit eng
             ~writes:[ (Printf.sprintf "ev%04d" i, Op.Put (String.make 100 'e')) ]
             ())
      done;
      Engine.flush_now eng;
      let snap = Engine.snapshot eng in
      for pass = 1 to 2 do
        ignore pass;
        for i = 0 to 499 do
          match Engine.get eng ~key:(Printf.sprintf "ev%04d" i) ~snapshot:snap with
          | Memtable.Found _ -> ()
          | _ -> Alcotest.failf "key %d missing" i
        done
      done;
      let s = Engine.stats eng in
      Alcotest.(check bool) "evictions happened" true (s.Engine.cache_evictions > 0);
      match Engine.cache_usage eng with
      | None -> Alcotest.fail "cache disabled"
      | Some (used, cap) ->
          Alcotest.(check bool) "budget never exceeded" true (used <= cap))

(* --- Seal_slots ------------------------------------------------------- *)

let seal_slots_keep_newest () =
  (* Each incarnation writes through its own handle, and a crash fences
     it ([Ssd.detach]) — here while a write has deleted its slot and not
     yet landed its record. The record written last must survive, also
     when the newest record sits in slot 0 at a restart. *)
  with_sim (fun sim ->
      let e = Sec.enclave (mk_sec sim) in
      let device = Ssd.create sim Treaty_sim.Costmodel.default in
      let boot () =
        let h = Ssd.attach device in
        let w, records = Seal_slots.open_ h ~enclave:e "seal" in
        (h, w, records)
      in
      let crash_mid_write h w record =
        Sim.spawn sim (fun () -> Seal_slots.write w record);
        Sim.yield sim;
        Ssd.detach h
      in
      let h, w, records = boot () in
      Alcotest.(check (list string)) "fresh device" [] records;
      List.iter (Seal_slots.write w) [ "a"; "b"; "c" ];
      Alcotest.check_raises "overlapping writes refused"
        (Invalid_argument "Seal_slots.write: a write is in flight") (fun () ->
          Sim.spawn sim (fun () -> Seal_slots.write w "x");
          Sim.yield sim;
          Seal_slots.write w "y");
      Sim.sleep sim 1_000_000;
      crash_mid_write h w "d";
      let h, w, records = boot () in
      Alcotest.(check (list string)) "crash mid-write" [ "x" ] records;
      Seal_slots.write w "e";
      Ssd.detach h;
      let h, w, records = boot () in
      Alcotest.(check (list string)) "restart" [ "e"; "x" ] records;
      crash_mid_write h w "f";
      let _, _, records = boot () in
      Alcotest.(check (list string)) "crash after a restart" [ "e" ] records)

let suite =
  [
    Alcotest.test_case "ssd basics + adversary ops" `Quick ssd_basics;
    Alcotest.test_case "log roundtrip" `Quick log_roundtrip;
    Alcotest.test_case "log tamper detection" `Quick log_tamper_detection;
    Alcotest.test_case "log truncation detection" `Quick log_truncation_detection;
    Alcotest.test_case "engine get retries a compaction race" `Quick
      engine_get_retries_compaction_race;
    Alcotest.test_case "engine truncated sstable detected" `Quick
      engine_truncated_sstable_detected;
    Alcotest.test_case "log rollback detection (trusted counter)" `Quick log_rollback_detection;
    Alcotest.test_case "log unstable tail dropped" `Quick log_unstable_tail_dropped;
    Alcotest.test_case "plain mode stores plaintext" `Quick log_plain_mode_no_auth;
    Alcotest.test_case "skiplist version visibility" `Quick skiplist_versions;
    QCheck_alcotest.to_alcotest prop_skiplist_vs_model;
    QCheck_alcotest.to_alcotest prop_skiplist_sorted;
    Alcotest.test_case "memtable roundtrip + host tamper" `Quick memtable_roundtrip_and_tamper;
    Alcotest.test_case "memtable EPC accounting" `Quick memtable_epc_accounting;
    Alcotest.test_case "sstable roundtrip" `Quick sstable_roundtrip;
    Alcotest.test_case "sstable tamper detection" `Quick sstable_tamper;
    Alcotest.test_case "sstable snapshot reads" `Quick sstable_snapshot_reads;
    Alcotest.test_case "record codecs" `Quick codec_roundtrips;
    Alcotest.test_case "manifest version fold" `Quick manifest_version_fold;
    Alcotest.test_case "group commit batching" `Quick group_commit_batching;
    Alcotest.test_case "clog group commit + batched replay" `Quick clog_group_batches;
    Alcotest.test_case "engine flush + compaction" `Slow engine_compaction_cascade;
    Alcotest.test_case "concurrent commits across rotations lose no write" `Quick
      engine_concurrent_rotation;
    Alcotest.test_case "engine range scan" `Quick engine_scan;
    Alcotest.test_case "sstable range" `Quick sstable_range;
    Alcotest.test_case "memtable range" `Quick memtable_range;
    QCheck_alcotest.to_alcotest prop_skiplist_range;
    Alcotest.test_case "gc watermark + tombstones" `Slow
      gc_watermark_and_tombstones;
    Alcotest.test_case "local txn read-set dedup" `Quick local_txn_read_dedup;
    Alcotest.test_case "compaction respects pinned snapshots" `Slow
      compaction_respects_pinned_snapshots;
    Alcotest.test_case "engine recovery exact state" `Quick engine_recovery_exact;
    Alcotest.test_case "engine recovery idempotent" `Quick engine_recovery_idempotent;
    Alcotest.test_case "duplicate resolve ignored" `Quick engine_duplicate_resolve_ignored;
    Alcotest.test_case "bloom no false negatives" `Quick bloom_no_false_negatives;
    Alcotest.test_case "bloom codec roundtrip" `Quick bloom_codec_roundtrip;
    Alcotest.test_case "block cache LRU eviction" `Quick block_cache_eviction_lru;
    Alcotest.test_case "block cache file invalidation" `Quick block_cache_invalidate;
    Alcotest.test_case "read-opt answers from verified blocks" `Quick
      engine_bloom_hint_correctness;
    Alcotest.test_case "compaction invalidates cached blocks" `Quick
      engine_cache_invalidation_on_compaction;
    Alcotest.test_case "cache eviction under a tight budget" `Quick
      engine_cache_capacity_eviction;
    QCheck_alcotest.to_alcotest prop_engine_vs_model;
    Alcotest.test_case "engine recovery keeps WALs until retirement is stable"
      `Quick engine_recovery_unstable_retirement;
    Alcotest.test_case "seal slots keep the newest record" `Quick seal_slots_keep_newest;
  ]
