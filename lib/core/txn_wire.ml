module Wire = Treaty_util.Wire

let k_txn_op = 1
let k_prepare = 2
let k_commit = 3
let k_abort = 4
let k_query_decision = 5
let k_query_prepared = 7
let k_client_register = 10
let k_client_begin = 11
let k_client_op = 12
let k_client_commit = 13
let k_client_abort = 14
let k_client_ro = 16

type status = St_ok | St_lock_timeout | St_unknown_tx | St_unauth | St_conflict
type op =
  | Get of string
  | Get_for_update of string
  | Put of string * string
  | Del of string
  | Scan of string * string
type header = { client_id : int; tx_seq : int }
type decision = Decided of bool | Pending | Unknown | Recovering
type prepare_state = Prepared | Not_prepared | Ask_later

type vote = {
  incarnation : int;
  targets : (string * int) list;
  reads : (string * int) list;
}

type failure =
  | Refused of status
  | Aborted of Types.abort_reason
  | Malformed

type 'a decoded = ('a, failure) result
type answer = Reads of (string option * int) list | Rows of (string * string) list

let is_write = function
  | Put _ | Del _ -> true
  | Get _ | Get_for_update _ | Scan _ -> false

let is_get = function
  | Get _ | Get_for_update _ -> true
  | Put _ | Del _ | Scan _ -> false

let is_scan = function
  | Scan _ -> true
  | Get _ | Get_for_update _ | Put _ | Del _ -> false

(* A request's shape: its writes in order, then either any number of gets,
   locking or not, or one scan alone. *)
let rec well_shaped = function
  | [] | [ Scan _ ] -> true
  | Scan _ :: _ :: _ -> false
  | (Get _ | Get_for_update _) :: rest -> List.for_all is_get rest
  | (Put _ | Del _) :: rest -> well_shaped rest

let status_code = function
  | St_ok -> 0
  | St_lock_timeout -> 1
  | St_unknown_tx -> 2
  | St_unauth -> 3
  | St_conflict -> 4

let status_of_code = function
  | 0 -> Some St_ok
  | 1 -> Some St_lock_timeout
  | 2 -> Some St_unknown_tx
  | 3 -> Some St_unauth
  | 4 -> Some St_conflict
  | _unknown -> None

(* Commit-failure reason byte. Lossy: the three reasons a coordinator never
   sends share code 3, and every code but 0, 1 and 4 reads back as a failed
   participant. *)
let reason_code = function
  | Types.Lock_timeout -> 0
  | Types.Validation_failed -> 1
  | Types.Participant_failed -> 2
  | Types.Integrity | Types.Rolled_back | Types.Unauthenticated -> 3
  | Types.Stabilization_unavailable -> 4

let reason_of_code = function
  | 0 -> Types.Lock_timeout
  | 1 -> Types.Validation_failed
  | 4 -> Types.Stabilization_unavailable
  | _participant_or_lossy -> Types.Participant_failed

(* --- building blocks ---------------------------------------------------- *)

(* Codecs are built by partial application at module initialisation, so a
   message costs its bytes and its decoded value, not a chain of closures.
   One scratch writer serves every message: an encoder never yields, and
   the scratch keeps the capacity it grew to, so a batched request of many
   kilobytes is one copy of its bytes, not a buffer doubling its way up. *)

let scratch = Buffer.create 256

let build w x =
  Buffer.clear scratch;
  w scratch x;
  Buffer.contents scratch

(* Each decoder catches [Wire.Malformed] around its whole read, so no
   truncated or corrupt input escapes as an exception. *)
let request body s =
  match body (Wire.reader s) with
  | v -> Ok v
  | exception Wire.Malformed _ -> Error Malformed

let reply body s =
  match
    let r = Wire.reader s in
    match status_of_code (Wire.r8 r) with
    | Some St_ok -> Ok (body r)
    | Some st -> Error (Refused st)
    | None -> Error Malformed
  with
  | v -> v
  | exception Wire.Malformed _ -> Error Malformed

let w_ok w b x =
  Wire.w8 b (status_code St_ok);
  w b x

let w_op b = function
  | Get key ->
      Wire.w8 b 0;
      Wire.wstr b key
  | Put (key, value) ->
      Wire.w8 b 1;
      Wire.wstr b key;
      Wire.wstr b value
  | Del key ->
      Wire.w8 b 2;
      Wire.wstr b key
  | Scan (lo, hi) ->
      Wire.w8 b 3;
      Wire.wstr b lo;
      Wire.wstr b hi
  | Get_for_update key ->
      Wire.w8 b 4;
      Wire.wstr b key

let r_op r =
  match Wire.r8 r with
  | 0 -> Get (Wire.rstr r)
  | 1 ->
      let key = Wire.rstr r in
      let value = Wire.rstr r in
      Put (key, value)
  | 2 -> Del (Wire.rstr r)
  | 3 ->
      let lo = Wire.rstr r in
      let hi = Wire.rstr r in
      Scan (lo, hi)
  | 4 -> Get_for_update (Wire.rstr r)
  | n -> raise (Wire.Malformed (Printf.sprintf "bad op tag %d" n))

(* A request's op list: [reads] allows trailing reads, and only a commit
   may be empty. Any other shape is malformed. *)
let r_ops ~reads r =
  let ops = Wire.rlist r r_op in
  let shaped =
    if reads then ops <> [] && well_shaped ops
    else List.for_all is_write ops
  in
  if shaped then ops else raise (Wire.Malformed "op list shape")

let w_ops b ops = Wire.wlist b w_op ops

(* Read [ra] then [rb], in that order. *)
let pair ra rb r =
  let a = ra r in
  (a, rb r)

let w_pair wa wb b (x, y) =
  wa b x;
  wb b y

let w_header b h =
  Wire.w64 b h.client_id;
  Wire.w64 b h.tx_seq

let r_header r =
  let client_id = Wire.r64 r in
  { client_id; tx_seq = Wire.r64 r }

let w_opt b = function
  | Some v ->
      Wire.w8 b 1;
      Wire.wstr b v
  | None -> Wire.w8 b 0

let r_opt r = if Wire.r8 r = 1 then Some (Wire.rstr r) else None
let w_list w b l = Wire.wlist b w l
let r_list rd r = Wire.rlist r rd

(* --- requests ----------------------------------------------------------- *)

let encode_ops = build w_ops
let decode_ops = request (r_ops ~reads:true)
let encode_query ~tx_seq = build Wire.w64 tx_seq
let decode_query = request Wire.r64

let encode_register ~client_id ~token =
  build (w_pair Wire.w64 Wire.wstr) (client_id, token)

let decode_register = request (pair Wire.r64 Wire.rstr)
let encode_begin ~client_id = build Wire.w64 client_id
let decode_begin = request Wire.r64
let w_client_ops = w_pair w_header w_ops
let encode_client_op h ops = build w_client_ops (h, ops)
let decode_client_op = request (pair r_header (r_ops ~reads:true))
let encode_client_commit h writes = build w_client_ops (h, writes)
let decode_client_commit = request (pair r_header (r_ops ~reads:false))
let encode_client_tx = build w_header
let decode_client_tx = request (fun r -> (r_header r, ()))
let w_client_ro = w_pair Wire.w64 (w_list Wire.wstr)
let encode_client_ro ~client_id keys = build w_client_ro (client_id, keys)
let decode_client_ro = request (pair Wire.r64 (r_list Wire.rstr))

(* --- replies ------------------------------------------------------------ *)

let status_reply st = String.make 1 (Char.chr (status_code st))
let decode_ack = reply ignore
let w_op_reply = w_ok (w_pair w_opt Wire.w64)
let encode_op_reply value seq = build w_op_reply (value, seq)
let decode_op_reply = reply (pair r_opt Wire.r64)
let encode_scan_reply = build (w_ok (w_list (w_pair Wire.wstr Wire.wstr)))
let decode_scan_reply = reply (r_list (pair Wire.rstr Wire.rstr))
let w_versions = w_list (w_pair Wire.wstr Wire.w64)
let r_versions = r_list (pair Wire.rstr Wire.r64)

let w_vote =
  w_ok (fun b v ->
      Wire.w32 b v.incarnation;
      w_versions b v.targets;
      w_versions b v.reads)

let encode_prepare_ack v = build w_vote v

let decode_prepare_ack =
  reply (fun r ->
      let incarnation = Wire.r32 r in
      let targets = r_versions r in
      { incarnation; targets; reads = r_versions r })
let encode_commit_ack = build (w_ok Wire.w64)
let decode_commit_ack = reply Wire.r64
let encode_begin_reply ~tx_seq = build (w_ok Wire.w64) tx_seq
let decode_begin_reply = reply Wire.r64

(* An aborted commit reuses the [St_lock_timeout] code, then a reason byte. *)
let encode_commit_reply = function
  | Ok () -> status_reply St_ok
  | Error reason ->
      build (w_pair Wire.w8 Wire.w8)
        (status_code St_lock_timeout, reason_code reason)

let decode_commit_reply s =
  match
    let r = Wire.reader s in
    match status_of_code (Wire.r8 r) with
    | Some St_ok -> Ok ()
    | Some St_lock_timeout -> Error (Aborted (reason_of_code (Wire.r8 r)))
    | Some st -> Error (Refused st)
    | None -> Error Malformed
  with
  | v -> v
  | exception Wire.Malformed _ -> Error Malformed

let w_values = w_ok (w_list w_opt)
let encode_ro_reply = build w_values
let decode_ro_reply = reply (r_list r_opt)

(* A reply to a request's gets: the op reply for at most one get, with
   the version read, and one optional value per get, as a read-only reply
   carries them, for more. *)
let encode_answer = function
  | Reads [] -> encode_op_reply None 0
  | Reads [ (value, seq) ] -> encode_op_reply value seq
  | Reads reads -> build w_values (List.map fst reads)
  | Rows kvs -> encode_scan_reply kvs

let decode_reads ~gets s =
  if gets <= 1 then
    Result.map (fun read -> if gets = 0 then [] else [ read ]) (decode_op_reply s)
  else
    match decode_ro_reply s with
    | Ok values when List.length values = gets -> Ok (List.map (fun v -> (v, 0)) values)
    | Ok _miscounted -> Error Malformed
    | Error _ as e -> e

let decode_answer ops s =
  if List.exists is_scan ops then Result.map (fun kvs -> Rows kvs) (decode_scan_reply s)
  else
    Result.map
      (fun reads -> Reads reads)
      (decode_reads ~gets:(List.fold_left (fun n op -> if is_get op then n + 1 else n) 0 ops) s)

let encode_decision = function
  | Decided true -> "c"
  | Decided false -> "a"
  | Pending -> "p"
  | Unknown -> "u"
  | Recovering -> "r"

let decode_decision s =
  match if s = "" then None else Some s.[0] with
  | Some 'c' -> Ok (Decided true)
  | Some 'a' -> Ok (Decided false)
  | Some 'p' -> Ok Pending
  | Some 'u' -> Ok Unknown
  | Some 'r' -> Ok Recovering
  | Some _unknown -> Error Malformed
  | None -> Error Malformed

let encode_prepare_state = function
  | Prepared -> "P"
  | Not_prepared -> "N"
  | Ask_later -> "L"

let decode_prepare_state s =
  match if s = "" then None else Some s.[0] with
  | Some 'P' -> Ok Prepared
  | Some 'N' -> Ok Not_prepared
  | Some 'L' -> Ok Ask_later
  | Some _ | None -> Error Malformed
