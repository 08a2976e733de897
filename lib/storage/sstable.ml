module Wire = Treaty_util.Wire

type entry = string * int * Op.t

type block_meta = {
  first_key : string;
  last_key : string;
  offset : int;
  length : int;
  bhash : string;
}

type handle = {
  file_id : int;
  name : string;
  index : block_meta array;
  bloom : Bloom.t option;  (* None for format-v1 files: always "maybe" *)
  hmin_key : string;
  hmax_key : string;
  data_bytes : int;
}

let file_name ~file_id = Printf.sprintf "sst-%06d" file_id
let magic = "TRTYSSTB"
let footer_version = 2

(* A block's plaintext: [count | (key, seq, op)*] with [Wire]'s framing.
   It is written straight into the buffer its protected form lives in: a
   block is a few values, and each copy of one is a fresh major-heap
   block. *)
let block_size entries =
  List.fold_left
    (fun n (key, _, op) ->
      n + 4 + String.length key + 8 + 1
      + match op with Op.Put v -> 4 + String.length v | Op.Delete -> 0)
    4 entries

let write_block entries b off =
  let pos = ref off in
  let w32 v =
    Bytes.set_int32_le b !pos (Int32.of_int v);
    pos := !pos + 4
  in
  let wstr s =
    w32 (String.length s);
    Bytes.blit_string s 0 b !pos (String.length s);
    pos := !pos + String.length s
  in
  w32 (List.length entries);
  List.iter
    (fun (key, seq, op) ->
      wstr key;
      Bytes.set_int64_le b !pos (Int64.of_int seq);
      pos := !pos + 8;
      match op with
      | Op.Put v ->
          Bytes.set b !pos '\001';
          incr pos;
          wstr v
      | Op.Delete ->
          Bytes.set b !pos '\000';
          incr pos)
    entries

let decode_block data =
  let r = Wire.reader data in
  let n = Wire.r32 r in
  List.init n (fun _ ->
      let key = Wire.rstr r in
      let seq = Wire.r64 r in
      let op = Op.decode r in
      (key, seq, op))

let encode_index b index =
  Wire.wlist b
    (fun b m ->
      Wire.wstr b m.first_key;
      Wire.wstr b m.last_key;
      Wire.w64 b m.offset;
      Wire.w64 b m.length;
      Wire.wstr b m.bhash)
    (Array.to_list index)

let decode_index r =
  Wire.rlist r (fun r ->
      let first_key = Wire.rstr r in
      let last_key = Wire.rstr r in
      let offset = Wire.r64 r in
      let length = Wire.r64 r in
      let bhash = Wire.rstr r in
      { first_key; last_key; offset; length; bhash })
  |> Array.of_list

(* Footer format v2 (PR 5): a version tag, the Bloom filter over the user
   keys, then the block index. v1 footers are the bare index list — still
   decoded for files recorded with [footer_version = 1] in the MANIFEST.
   Either way the whole footer is covered by the digest in [Add_file], so
   the filter is as tamper-evident as the index. *)
let encode_footer bloom index =
  let b = Buffer.create 1024 in
  Wire.w8 b footer_version;
  Bloom.encode b bloom;
  encode_index b index;
  Buffer.contents b

let decode_footer ~version data =
  let r = Wire.reader data in
  match version with
  | 1 -> (None, decode_index r)
  | 2 ->
      let tag = Wire.r8 r in
      if tag <> footer_version then
        raise (Wire.Malformed (Printf.sprintf "bad footer version tag %d" tag));
      let bloom = Bloom.decode r in
      (Some bloom, decode_index r)
  | v -> raise (Wire.Malformed (Printf.sprintf "unknown footer version %d" v))

(* Split sorted entries into blocks of roughly [block_bytes] plaintext,
   never splitting the versions of one user key across blocks, and hand
   each block to [emit] as soon as it is complete: a caller that streams
   its entries holds one block of them at a time. *)
let partition_blocks ~block_bytes entries ~emit =
  let cur = ref [] and cur_bytes = ref 0 in
  let flush_cur () =
    if !cur <> [] then begin
      emit (List.rev !cur);
      cur := [];
      cur_bytes := 0
    end
  in
  Seq.iter
    (fun ((key, _, op) as e) ->
      let sz = String.length key + 16 + Op.size op in
      let same_key_as_prev =
        match !cur with (k, _, _) :: _ -> k = key | [] -> false
      in
      if !cur_bytes + sz > block_bytes && !cur <> [] && not same_key_as_prev then
        flush_cur ();
      cur := e :: !cur;
      cur_bytes := !cur_bytes + sz)
    entries;
  flush_cur ()

(* The filter covers distinct user keys, given in order. *)
let bloom_of_keys keys =
  let bloom = Bloom.create ~expected:(List.length keys) in
  List.iter (Bloom.add bloom) keys;
  bloom

let account_bloom sec = function
  | None -> ()
  | Some bloom ->
      (* The filter is enclave-resident for the file's lifetime. *)
      Treaty_tee.Enclave.alloc_enclave (Sec.enclave sec) (Bloom.bytes bloom)

let release sec h =
  match h.bloom with
  | None -> ()
  | Some bloom -> Treaty_tee.Enclave.free_enclave (Sec.enclave sec) (Bloom.bytes bloom)

let build ssd sec ~file_id ~block_bytes entries =
  let name = file_name ~file_id in
  (* The blocks become the file's parts as they are: joining them would
     copy the whole table once more. *)
  let blocks = ref [] and data_bytes = ref 0 in
  let index = ref [] in
  (* Entries arrive in internal-key order, so distinct keys are adjacent. *)
  let keys = ref [] in
  partition_blocks ~block_bytes entries ~emit:(fun block_entries ->
      List.iter
        (fun (k, _, _) ->
          match !keys with
          | prev :: _ when String.equal prev k -> ()
          | _ -> keys := k :: !keys)
        block_entries;
      let stored =
        Sec.protect_with sec ~len:(block_size block_entries) (write_block block_entries)
      in
      (* TreatySan boundary: SSTable blocks go to the untrusted SSD. *)
      Treaty_crypto.Taint.check ~what:("sstable block write " ^ name) stored;
      let bhash = Sec.digest sec stored in
      let first_key = (fun (k, _, _) -> k) (List.hd block_entries) in
      let last_key =
        (fun (k, _, _) -> k) (List.nth block_entries (List.length block_entries - 1))
      in
      index :=
        {
          first_key;
          last_key;
          offset = !data_bytes;
          length = String.length stored;
          bhash;
        }
        :: !index;
      blocks := stored :: !blocks;
      data_bytes := !data_bytes + String.length stored);
  if !index = [] then invalid_arg "Sstable.build: empty";
  let index = Array.of_list (List.rev !index) in
  let data_bytes = !data_bytes in
  let bloom = bloom_of_keys (List.rev !keys) in
  let footer = encode_footer bloom index in
  let footer_digest = Sec.digest sec footer in
  let tail = Buffer.create 16 in
  Wire.w64 tail (String.length footer);
  Buffer.add_string tail magic;
  (* A fresh table replaces any stale file of the same id: one left by an
     Add_file edit that never stabilized, which recovery dropped. *)
  Ssd.delete ssd name;
  ignore
    (Ssd.append_parts ssd ~enclave:(Sec.enclave sec) name
       (List.rev_append !blocks [ footer; Buffer.contents tail ]));
  account_bloom sec (Some bloom);
  let handle =
    {
      file_id;
      name;
      index;
      bloom = Some bloom;
      hmin_key = index.(0).first_key;
      hmax_key = index.(Array.length index - 1).last_key;
      data_bytes;
    }
  in
  (handle, footer_digest)

let open_ ?(version = footer_version) ssd sec ~file_id ~footer_digest =
  let name = file_name ~file_id in
  let total = Ssd.size ssd name in
  let enclave = Sec.enclave sec in
  if total < 16 then raise (Sec.Integrity_violation (name ^ ": too small"));
  let tail = Ssd.read ssd ~enclave name ~off:(total - 16) ~len:16 in
  let r = Wire.reader tail in
  let footer_len = Wire.r64 r in
  if Wire.rbytes r 8 <> magic then
    raise (Sec.Integrity_violation (name ^ ": bad magic"));
  if footer_len < 0 || footer_len > total - 16 then
    raise (Sec.Integrity_violation (name ^ ": bad footer length"));
  let footer = Ssd.read ssd ~enclave name ~off:(total - 16 - footer_len) ~len:footer_len in
  Sec.check_digest sec ~what:(name ^ ": footer digest") ~data:footer
    ~expected:footer_digest;
  let bloom, index =
    try decode_footer ~version footer
    with Wire.Malformed m -> raise (Sec.Integrity_violation (name ^ ": " ^ m))
  in
  if Array.length index = 0 then raise (Sec.Integrity_violation (name ^ ": empty index"));
  account_bloom sec bloom;
  {
    file_id;
    name;
    index;
    bloom;
    hmin_key = index.(0).first_key;
    hmax_key = index.(Array.length index - 1).last_key;
    data_bytes = total - 16 - footer_len;
  }

let id h = h.file_id
let min_key h = h.hmin_key
let max_key h = h.hmax_key
let data_bytes h = h.data_bytes
let block_count h = Array.length h.index

let overlaps h ~min ~max = not (h.hmax_key < min || h.hmin_key > max)

let may_contain h key =
  match h.bloom with None -> true | Some bloom -> Bloom.mem bloom key

let read_stored_block ssd sec h meta =
  (* The enclave-resident index says where the block lives; the host decides
     how long the file is. A block past the end means the file was cut. *)
  if Ssd.exists ssd h.name && meta.offset + meta.length > Ssd.size ssd h.name then
    raise (Sec.Integrity_violation (h.name ^ ": block past end of file"));
  let stored =
    Ssd.read ssd ~enclave:(Sec.enclave sec) h.name ~off:meta.offset ~len:meta.length
  in
  Sec.check_digest sec ~what:(h.name ^ ": block hash") ~data:stored
    ~expected:meta.bhash;
  let plain = Sec.unprotect sec stored in
  let entries =
    try decode_block plain
    with Wire.Malformed m -> raise (Sec.Integrity_violation (h.name ^ ": " ^ m))
  in
  (entries, plain)

let read_block ssd sec h meta = fst (read_stored_block ssd sec h meta)

(* Binary search for the block whose key range may contain [key]. *)
let find_block_idx h key =
  let lo = ref 0 and hi = ref (Array.length h.index - 1) and found = ref None in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let m = h.index.(mid) in
    if key < m.first_key then hi := mid - 1
    else if key > m.last_key then lo := mid + 1
    else begin
      found := Some mid;
      lo := !hi + 1
    end
  done;
  !found

let find_block h key = Option.map (fun i -> h.index.(i)) (find_block_idx h key)

let read_block_idx ssd sec h idx = read_stored_block ssd sec h h.index.(idx)

let block_span h idx =
  let m = h.index.(idx) in
  (m.first_key, m.last_key)

let search_entries entries ~key ~max_seq =
  (* Entries are (key asc, seq desc): first matching version wins. *)
  List.find_map
    (fun (k, seq, op) -> if k = key && seq <= max_seq then Some (seq, op) else None)
    entries

let get ssd sec h ~key ~max_seq =
  match find_block h key with
  | None -> None
  | Some meta -> search_entries (read_block ssd sec h meta) ~key ~max_seq

let load_all ssd sec h =
  Array.to_list h.index |> List.concat_map (read_block ssd sec h)

let range ssd sec h ~lo ~hi ~max_seq =
  Array.to_list h.index
  |> List.concat_map (fun meta ->
         if meta.last_key < lo || meta.first_key > hi then []
         else
           List.filter
             (fun (k, seq, _) -> k >= lo && k <= hi && seq <= max_seq)
             (read_block ssd sec h meta))
