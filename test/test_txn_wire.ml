(* The transaction protocol's wire format (Txn_wire): pinned bytes for every
   request and reply, round trips, and a seeded mutation sweep proving every
   decoder total — the WAL and Clog record, MANIFEST edit and SSTable
   footer and block decoders included. *)

open Treaty_core
module Rng = Treaty_sim.Rng

let hex s =
  String.concat ""
    (List.map (fun c -> Printf.sprintf "%02x" (Char.code c)) (List.of_seq (String.to_seq s)))

(* One message type: a sample value, its encoder and decoder, and the
   encoding's golden bytes. The bytes are the format peers agree on, so a
   change to them is a protocol change, not a refactor. *)
type sample =
  | Sample : {
      name : string;
      value : 'a;
      encode : 'a -> string;
      decode : string -> 'a Txn_wire.decoded;
      golden : string;
    }
      -> sample

let sample name value encode decode golden =
  Sample { name; value; encode; decode; golden }

let header = { Txn_wire.client_id = 7; tx_seq = 42 }

let status_sample name st golden =
  sample name st Txn_wire.status_reply
    (fun s ->
      match Txn_wire.decode_ack s with
      | Ok () -> Ok Txn_wire.St_ok
      | Error (Refused st) -> Ok st
      | Error (Aborted _ | Malformed) as e -> e)
    golden

let commit_sample name reason golden =
  sample name reason
    (fun reason -> Txn_wire.encode_commit_reply (Error reason))
    (fun s ->
      match Txn_wire.decode_commit_reply s with
      | Error (Aborted reason) -> Ok reason
      | Ok () -> Error Txn_wire.Malformed
      | Error (Refused _ | Malformed) as e -> e)
    golden

let decision_sample name d golden =
  sample name d Txn_wire.encode_decision Txn_wire.decode_decision golden

let samples =
  Txn_wire.
    [ sample "txn ops get" [ Get "k" ] encode_ops decode_ops
        "0100000000010000006b";
      sample "txn ops writes then get" [ Put ("k", "v"); Del "j"; Get "k" ]
        encode_ops decode_ops
        "0300000001010000006b01000000760201000000\
         6a00010000006b";
      sample "txn ops writes" [ Put ("k", "v"); Del "k" ] encode_ops decode_ops
        "0200000001010000006b010000007602010000006b";
      sample "txn ops gets" [ Get "a"; Get_for_update "b" ] encode_ops decode_ops
        "02000000000100000061040100000062";
      sample "txn ops write then locking get" [ Put ("k", "v"); Get_for_update "k" ]
        encode_ops decode_ops
        "0200000001010000006b010000007604010000006b";
      sample "txn ops scan" [ Scan ("a", "z") ] encode_ops decode_ops
        "01000000030100000061010000007a";
      sample "txn ops write then scan" [ Put ("k", "v"); Scan ("a", "z") ]
        encode_ops decode_ops
        "0200000001010000006b0100000076030100000061010000007a";
      sample "decision query" 42
        (fun tx_seq -> encode_query ~tx_seq)
        decode_query "2a00000000000000";
      sample "register" (7, "tok")
        (fun (client_id, token) -> encode_register ~client_id ~token)
        decode_register "070000000000000003000000746f6b";
      sample "begin" 7
        (fun client_id -> encode_begin ~client_id)
        decode_begin "0700000000000000";
      sample "client op" (header, [ Put ("key", "val"); Get "key" ])
        (fun (h, ops) -> encode_client_op h ops)
        decode_client_op
        "07000000000000002a000000000000000200000001030000006b6579030000\
         0076616c00030000006b6579";
      sample "client op get" (header, [ Get "k" ])
        (fun (h, ops) -> encode_client_op h ops)
        decode_client_op
        "07000000000000002a000000000000000100000000010000006b";
      sample "client op multi-get" (header, [ Put ("k", "v"); Get "a"; Get_for_update "b" ])
        (fun (h, ops) -> encode_client_op h ops)
        decode_client_op
        "07000000000000002a000000000000000300000001010000006b01000000760001\
         00000061040100000062";
      sample "client op writes" (header, [ Del "k" ])
        (fun (h, ops) -> encode_client_op h ops)
        decode_client_op
        "07000000000000002a000000000000000100000002010000006b";
      sample "client op write then scan" (header, [ Del "k"; Scan ("a", "z") ])
        (fun (h, ops) -> encode_client_op h ops)
        decode_client_op
        "07000000000000002a000000000000000200000002010000006b03010000006101\
         0000007a";
      sample "client commit" (header, [ Put ("k", "v"); Del "j" ])
        (fun (h, writes) -> encode_client_commit h writes)
        decode_client_commit
        "07000000000000002a000000000000000200000001010000006b01000000760201\
         0000006a";
      sample "client commit without writes" (header, [])
        (fun (h, writes) -> encode_client_commit h writes)
        decode_client_commit "07000000000000002a0000000000000000000000";
      sample "client rollback" (header, ())
        (fun (h, ()) -> encode_client_tx h)
        decode_client_tx "07000000000000002a00000000000000";
      sample "client read-only" (7, [ "a"; "b" ])
        (fun (client_id, keys) -> encode_client_ro ~client_id keys)
        decode_client_ro "07000000000000000200000001000000610100000062";
      status_sample "status ok" St_ok "00";
      status_sample "status lock timeout" St_lock_timeout "01";
      status_sample "status unknown tx" St_unknown_tx "02";
      status_sample "status unauth" St_unauth "03";
      status_sample "status conflict" St_conflict "04";
      sample "op reply value" (Some "v", 9)
        (fun (v, seq) -> encode_op_reply v seq)
        decode_op_reply "000101000000760900000000000000";
      sample "op reply absent" (None, 0)
        (fun (v, seq) -> encode_op_reply v seq)
        decode_op_reply "00000000000000000000";
      (* A request's answer: one get's is the op reply byte for byte, more
         gets' is one optional value per get, in request order. *)
      sample "answer of one get" (Reads [ (Some "v", 9) ]) encode_answer
        (decode_answer [ Put ("k", "v"); Get_for_update "k" ])
        "000101000000760900000000000000";
      sample "answer of writes alone" (Reads []) encode_answer
        (decode_answer [ Del "k" ]) "00000000000000000000";
      sample "multi-get reply" (Reads [ (Some "x", 0); (None, 0) ]) encode_answer
        (decode_answer [ Get "a"; Get_for_update "b" ])
        "000200000001010000007800";
      sample "scan reply" [ ("a", "1"); ("b", "2") ] encode_scan_reply
        decode_scan_reply
        "00020000000100000061010000003101000000620100000032";
      sample "prepare ack"
        { incarnation = 2; targets = [ ("W", 9) ]; reads = [ ("a", 3) ] }
        encode_prepare_ack decode_prepare_ack
        "0002000000010000000100000057090000000000000001000000010000006103000000\
         00000000";
      sample "commit ack" 5 encode_commit_ack decode_commit_ack
        "000500000000000000";
      sample "begin reply" 42
        (fun tx_seq -> encode_begin_reply ~tx_seq)
        decode_begin_reply "002a00000000000000";
      sample "commit reply ok" () (fun () -> encode_commit_reply (Ok ()))
        decode_commit_reply "00";
      commit_sample "commit reply lock timeout" Types.Lock_timeout "0100";
      commit_sample "commit reply validation failed" Types.Validation_failed
        "0101";
      commit_sample "commit reply participant failed" Types.Participant_failed
        "0102";
      commit_sample "commit reply stabilization unavailable"
        Types.Stabilization_unavailable "0104";
      sample "read-only reply" [ Some "x"; None ] encode_ro_reply
        decode_ro_reply "000200000001010000007800";
      decision_sample "decision commit" (Decided true) "63";
      decision_sample "decision abort" (Decided false) "61";
      decision_sample "decision pending" Pending "70";
      decision_sample "decision unknown" Unknown "75";
      decision_sample "decision recovering" Recovering "72";
      sample "prepare state prepared" Prepared encode_prepare_state
        decode_prepare_state "50";
      sample "prepare state not prepared" Not_prepared encode_prepare_state
        decode_prepare_state "4e";
      sample "prepare state ask later" Ask_later encode_prepare_state
        decode_prepare_state "4c" ]

let pinned_round_trip () =
  List.iter
    (fun (Sample s) ->
      let bytes = s.encode s.value in
      Alcotest.(check string) (s.name ^ ": golden bytes") s.golden (hex bytes);
      Alcotest.(check bool) (s.name ^ ": round trip") true (s.decode bytes = Ok s.value))
    samples

(* The format's lossy corners, kept byte for byte. *)
let lossy_mappings () =
  let commit_reason code =
    match Txn_wire.decode_commit_reply (Printf.sprintf "\001%c" (Char.chr code)) with
    | Error (Aborted r) -> Types.abort_reason_to_string r
    | Ok () | Error (Refused _ | Malformed) -> "not an abort"
  in
  Alcotest.(check string) "reason byte 3 reads as a failed participant"
    (Types.abort_reason_to_string Types.Participant_failed) (commit_reason 3);
  Alcotest.(check string) "Rolled_back is sent as byte 3" "0103"
    (hex (Txn_wire.encode_commit_reply (Error Types.Rolled_back)));
  Alcotest.(check bool) "status 2 on an op reply is an unknown tx" true
    (Txn_wire.decode_op_reply "\002" = Error (Refused St_unknown_tx))

(* Requests of any shape but writes, then gets or one scan alone, encoded
   with the raw encoders, which do not check it. *)
let bad_shapes =
  Txn_wire.
    [ ("read before a write", [ Get "a"; Put ("b", "v") ]);
      ("locking get before a write", [ Get_for_update "a"; Del "b" ]);
      ("scan after a get", [ Get "a"; Scan ("a", "z") ]);
      ("scan after a locking get", [ Put ("a", "v"); Get_for_update "a"; Scan ("a", "z") ]);
      ("read between writes", [ Del "a"; Get "a"; Del "b" ]);
      ("scan before a write", [ Scan ("a", "z"); Put ("b", "v") ]);
      ("two scans", [ Scan ("a", "m"); Scan ("n", "z") ]);
      ("get after a scan", [ Scan ("a", "z"); Get "b" ]) ]

let rejected_requests =
  List.concat_map
    (fun (what, ops) ->
      [ ("txn ops, " ^ what, Txn_wire.encode_ops ops, fun s -> Txn_wire.decode_ops s = Error Malformed);
        ( "client op, " ^ what,
          Txn_wire.encode_client_op header ops,
          fun s -> Txn_wire.decode_client_op s = Error Malformed );
        ( "client commit, " ^ what,
          Txn_wire.encode_client_commit header ops,
          fun s -> Txn_wire.decode_client_commit s = Error Malformed ) ])
    bad_shapes
  @ Txn_wire.
      [ ("empty txn ops", encode_ops [], fun s -> decode_ops s = Error Malformed);
        ( "empty client op",
          encode_client_op header [],
          fun s -> decode_client_op s = Error Malformed );
        ( "client commit with a read",
          encode_client_commit header [ Put ("a", "v"); Get "a" ],
          fun s -> decode_client_commit s = Error Malformed );
        ( "client commit of a read alone",
          encode_client_commit header [ Get "a" ],
          fun s -> decode_client_commit s = Error Malformed );
        ( "client commit with a locking get",
          encode_client_commit header [ Put ("a", "v"); Get_for_update "b" ],
          fun s -> decode_client_commit s = Error Malformed );
        ( "client commit with a scan",
          encode_client_commit header [ Put ("a", "v"); Scan ("a", "z") ],
          fun s -> decode_client_commit s = Error Malformed ) ]

let rejected_shapes () =
  List.iter
    (fun (name, bytes, rejected) ->
      Alcotest.(check bool) (name ^ " is malformed") true (rejected bytes))
    rejected_requests

(* An OK status followed by a short body is malformed, not an OK reply. *)
let truncated_ok_reply () =
  List.iter
    (fun s ->
      Alcotest.(check bool) (Printf.sprintf "op reply %S" s) true
        (Txn_wire.decode_op_reply s = Error Malformed))
    [ "\000"; "\000\001"; "\000\001\005\000\000\000v"; "\000\000\009\000" ];
  Alcotest.(check bool) "read-only value cut short" true
    (Txn_wire.decode_ro_reply "\000\001\000\000\000\001" = Error Malformed);
  (* A gets reply must carry one value per get of the request. *)
  let two = Txn_wire.encode_answer (Reads [ (Some "x", 0); (None, 0) ]) in
  List.iter
    (fun gets ->
      Alcotest.(check bool) (Printf.sprintf "two values for %d gets" gets) true
        (Txn_wire.decode_reads ~gets two = Error Malformed))
    [ 3; 5 ];
  Alcotest.(check bool) "unknown status code" true
    (Txn_wire.decode_op_reply "\009" = Error Malformed)

(* Feed [decode] every truncation prefix of [valid], a random non-zero XOR
   at every offset, and random trailing junk. [decode] classifies each
   input: [true] for a typed failure, [false] for a value; it must never
   raise. A truncation or junk that decodes to a value is counted in
   [accepted]: the caller says how many it tolerates. *)
let sweep rng ~name ~valid decode =
  let n = String.length valid and runs = ref 0 and accepted = ref [] in
  let run ~strict what input =
    incr runs;
    match decode input with
    | true -> ()
    | false -> if strict then accepted := what :: !accepted
    | exception e ->
        Alcotest.failf "%s, %s (%s): raised %s" name what (hex input)
          (Printexc.to_string e)
  in
  for len = 0 to n - 1 do
    run ~strict:true (Printf.sprintf "truncated to %d" len) (String.sub valid 0 len)
  done;
  for off = 0 to n - 1 do
    for _ = 1 to 4 do
      let b = Bytes.of_string valid in
      let x = 1 + Rng.int rng 255 in
      Bytes.set b off (Char.chr (Char.code valid.[off] lxor x));
      run ~strict:false (Printf.sprintf "byte %d xor %d" off x) (Bytes.to_string b)
    done
  done;
  for extra = 1 to 8 do
    run ~strict:true
      (Printf.sprintf "%d junk bytes" extra)
      (valid ^ Bytes.to_string (Rng.bytes rng extra))
  done;
  (!runs, List.rev !accepted)

(* Seeded mutation sweep over every decoder. A decoder may answer [Ok] or a
   typed failure; it must never raise. *)
let mutation_sweep () =
  let rng = Rng.create 0x7478_6e77L in
  let total = ref 0 in
  List.iter
    (fun (Sample s) ->
      let runs, _ =
        sweep rng ~name:s.name ~valid:(s.encode s.value) (fun input ->
            match s.decode input with
            | Ok _ -> false
            | Error (Txn_wire.Refused _ | Aborted _ | Malformed) -> true)
      in
      total := !total + runs)
    samples;
  (* A rejected shape stays rejected cut short or with junk after it. *)
  List.iter
    (fun (name, valid, rejected) ->
      let runs, accepted = sweep rng ~name ~valid rejected in
      total := !total + runs;
      Alcotest.(check (list string)) (name ^ ": truncations and junk rejected") []
        accepted)
    rejected_requests;
  Alcotest.(check bool) "the sweep ran" true (!total > 1000)

(* The same sweep over the three logs recovery replays. Their payloads are
   MAC-checked before they are decoded, but the decoders are total anyway:
   a truncated record or one with junk after it is a typed error, and no
   mutation raises. A MANIFEST edit goes through the whole replay, which
   also refuses a level outside the tree. *)
let log_record_sweep () =
  let module Op = Treaty_storage.Op in
  let module Wal = Treaty_storage.Wal_record in
  let module Clog = Treaty_storage.Clog_record in
  let module Manifest = Treaty_storage.Manifest in
  let rng = Rng.create 0x6c6f_6773L in
  let total = ref 0 in
  let check name valid decode =
    let runs, accepted = sweep rng ~name ~valid decode in
    total := !total + runs;
    Alcotest.(check (list string)) (name ^ ": truncations and junk rejected") []
      accepted
  in
  List.iteri
    (fun i r ->
      check (Printf.sprintf "wal record %d" i) (Wal.encode r) (fun input ->
          Result.is_error (Wal.decode input)))
    [
      Wal.Commit_batch [ (5, [ ("a", Op.Put "x"); ("b", Op.Delete) ]); (6, []) ];
      Wal.Prepare ((2, 77), [ ("k", Op.Put "v") ]);
      Wal.Resolve ((2, 77), Some 9);
      Wal.Resolve ((3, 1), None);
    ];
  List.iteri
    (fun i r ->
      check (Printf.sprintf "clog record %d" i) (Clog.encode r) (fun input ->
          Result.is_error (Clog.decode input)))
    [
      Clog.Begin_2pc { tx_seq = 4; participants = [ 1; 2; 3 ] };
      Clog.Decision { tx_seq = 4; commit = true };
      Clog.Finished { tx_seq = 4 };
      Clog.Batch
        [
          Clog.Begin_2pc { tx_seq = 6; participants = [ 2 ] };
          Clog.Decision { tx_seq = 6; commit = false };
          Clog.Batch [ Clog.Finished { tx_seq = 6 } ];
        ];
    ];
  List.iteri
    (fun i e ->
      check (Printf.sprintf "manifest edit %d" i) (Manifest.encode e) (fun input ->
          Result.is_error (Manifest.replay_edits [ (1, input) ])))
    [
      Manifest.Add_file
        {
          file_id = 12;
          level = 1;
          footer_digest = String.make 32 'd';
          min_key = "a";
          max_key = "k";
          max_seq = 40;
          size = 4096;
        };
      Manifest.Delete_file { level = 0; file_id = 3 };
      Manifest.New_wal { wal_id = 2 };
      Manifest.Obsolete_wal { wal_id = 1 };
      Manifest.Clog_trim { upto = 9 };
    ];
  Alcotest.(check bool) "the sweep ran" true (!total > 1000)

(* The readers nested in those decoders are total too: an op and a Bloom
   filter cut short or mutated give an [Error], never an exception. They
   read from a cursor and leave what follows to their caller, so junk after
   a valid encoding is not theirs to reject. *)
let nested_reader_sweep () =
  let module Op = Treaty_storage.Op in
  let module Bloom = Treaty_storage.Bloom in
  let module Wire = Treaty_util.Wire in
  let rng = Rng.create 0x6f70_626cL in
  let encoded w x =
    let b = Buffer.create 64 in
    w b x;
    Buffer.contents b
  in
  let bloom = Bloom.create ~expected:8 in
  List.iter (Bloom.add bloom) [ "a"; "b" ];
  List.iter
    (fun (name, valid, decode) ->
      let runs, accepted = sweep rng ~name ~valid decode in
      Alcotest.(check bool) (name ^ ": the sweep ran") true (runs > 10);
      Alcotest.(check (list string)) (name ^ ": truncations rejected") []
        (List.filter (String.starts_with ~prefix:"truncated") accepted))
    [
      ("op put", encoded Op.encode (Op.Put "value"), fun s -> Result.is_error (Op.decode (Wire.reader s)));
      ("op delete", encoded Op.encode Op.Delete, fun s -> Result.is_error (Op.decode (Wire.reader s)));
      ("bloom", encoded Bloom.encode bloom, fun s -> Result.is_error (Bloom.decode (Wire.reader s)));
    ]

(* The same sweep over an SSTable's footer and one of its blocks, cut from
   a table built on a simulated SSD without encryption, so the block is
   stored as its plaintext. Both are digest-checked before they are
   decoded, but the decoders are total anyway. *)
let sstable_sweep () =
  let module Sim = Treaty_sim.Sim in
  let module Costmodel = Treaty_sim.Costmodel in
  let module Enclave = Treaty_tee.Enclave in
  let module Op = Treaty_storage.Op in
  let module Sec = Treaty_storage.Sec in
  let module Ssd = Treaty_storage.Ssd in
  let module Sstable = Treaty_storage.Sstable in
  let sim = Sim.create () in
  Sim.run sim (fun () ->
      let enclave =
        Enclave.create sim ~mode:Enclave.Scone ~cost:Costmodel.default ~cores:4
          ~node_id:1 ~code_identity:"wire-test"
      in
      let sec = Sec.create ~enclave ~auth:true ~enc:None () in
      let ssd = Ssd.create sim Costmodel.default in
      let entries = [ ("a", 3, Op.Put "x"); ("a", 2, Op.Delete); ("b", 1, Op.Put "yy") ] in
      let h, _ = Sstable.build ssd sec ~file_id:1 ~block_bytes:4096 (List.to_seq entries) in
      Alcotest.(check int) "one block" 1 (Sstable.block_count h);
      let name = Sstable.file_name ~file_id:1 in
      let data = Sstable.data_bytes h in
      let read off len = Ssd.read ssd ~enclave name ~off ~len in
      let block = read 0 data in
      let footer = read data (Ssd.size ssd name - 16 - data) in
      Alcotest.(check bool) "the block decodes" true
        (Sstable.decode_block block = Ok entries);
      Alcotest.(check bool) "the footer decodes" true
        (Result.is_ok (Sstable.decode_footer footer));
      let rng = Rng.create 0x7373_7462L in
      List.iter
        (fun (name, valid, decode) ->
          let runs, accepted = sweep rng ~name ~valid decode in
          Alcotest.(check bool) (name ^ ": the sweep ran") true (runs > 100);
          Alcotest.(check (list string)) (name ^ ": truncations and junk rejected")
            [] accepted)
        [
          ("sstable block", block, fun input -> Result.is_error (Sstable.decode_block input));
          ("sstable footer", footer, fun input -> Result.is_error (Sstable.decode_footer input));
        ])

let suite =
  [ Alcotest.test_case "pinned bytes round-trip" `Quick pinned_round_trip;
    Alcotest.test_case "lossy reason and status mappings kept" `Quick
      lossy_mappings;
    Alcotest.test_case "truncated ok reply is a typed error" `Quick
      truncated_ok_reply;
    Alcotest.test_case "op lists of any other shape are malformed" `Quick
      rejected_shapes;
    Alcotest.test_case "seeded mutation sweep: every decoder total" `Quick
      mutation_sweep;
    Alcotest.test_case
      "seeded mutation sweep: WAL and Clog records, MANIFEST edits" `Quick
      log_record_sweep;
    Alcotest.test_case "seeded mutation sweep: SSTable footer and block" `Quick
      sstable_sweep;
    Alcotest.test_case "seeded mutation sweep: op and Bloom readers" `Quick
      nested_reader_sweep ]
