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
  version : int;
  hmin_key : string;
  hmax_key : string;
  data_bytes : int;
}

let file_name ~file_id = Printf.sprintf "sst-%06d" file_id
let magic = "TRTYSSTB"
let footer_version = 2

let encode_block entries =
  let b = Buffer.create 4096 in
  Wire.w32 b (List.length entries);
  List.iter
    (fun (key, seq, op) ->
      Wire.wstr b key;
      Wire.w64 b seq;
      Op.encode b op)
    entries;
  Buffer.contents b

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
   never splitting the versions of one user key across blocks. *)
let partition_blocks ~block_bytes entries =
  let blocks = ref [] and cur = ref [] and cur_bytes = ref 0 in
  let flush_cur () =
    if !cur <> [] then begin
      blocks := List.rev !cur :: !blocks;
      cur := [];
      cur_bytes := 0
    end
  in
  let rec go = function
    | [] -> ()
    | ((key, _, op) as e) :: rest ->
        let sz = String.length key + 16 + Op.size op in
        let same_key_as_prev =
          match !cur with (k, _, _) :: _ -> k = key | [] -> false
        in
        if !cur_bytes + sz > block_bytes && !cur <> [] && not same_key_as_prev then
          flush_cur ();
        cur := e :: !cur;
        cur_bytes := !cur_bytes + sz;
        go rest
  in
  go entries;
  flush_cur ();
  List.rev !blocks

(* The filter covers distinct user keys; entries arrive in internal-key
   order, so distinct keys are adjacent. *)
let bloom_of_entries entries =
  let distinct =
    List.fold_left
      (fun (n, prev) (k, _, _) -> if Some k = prev then (n, prev) else (n + 1, Some k))
      (0, None) entries
    |> fst
  in
  let bloom = Bloom.create ~expected:distinct in
  List.iter (fun (k, _, _) -> Bloom.add bloom k) entries;
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
  if entries = [] then invalid_arg "Sstable.build: empty";
  let name = file_name ~file_id in
  let file = Buffer.create (64 * 1024) in
  let index = ref [] in
  List.iter
    (fun block_entries ->
      let plain = encode_block block_entries in
      let stored = Sec.protect sec plain in
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
          offset = Buffer.length file;
          length = String.length stored;
          bhash;
        }
        :: !index;
      Buffer.add_string file stored)
    (partition_blocks ~block_bytes entries);
  let index = Array.of_list (List.rev !index) in
  let data_bytes = Buffer.length file in
  let bloom = bloom_of_entries entries in
  let footer = encode_footer bloom index in
  let footer_digest = Sec.digest sec footer in
  Buffer.add_string file footer;
  let tail = Buffer.create 16 in
  Wire.w64 tail (String.length footer);
  Buffer.add_string tail magic;
  Buffer.add_string file (Buffer.contents tail);
  (* A fresh table replaces any stale file of the same id: one left by an
     Add_file edit that never stabilized, which recovery dropped. *)
  Ssd.delete ssd name;
  ignore (Ssd.append ssd ~enclave:(Sec.enclave sec) name (Buffer.contents file));
  account_bloom sec (Some bloom);
  let handle =
    {
      file_id;
      name;
      index;
      bloom = Some bloom;
      version = footer_version;
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
    version;
    hmin_key = index.(0).first_key;
    hmax_key = index.(Array.length index - 1).last_key;
    data_bytes = total - 16 - footer_len;
  }

let id h = h.file_id
let min_key h = h.hmin_key
let max_key h = h.hmax_key
let data_bytes h = h.data_bytes
let block_count h = Array.length h.index
let format_version h = h.version

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
