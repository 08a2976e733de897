module Wire = Treaty_util.Wire

type txid = int * int

type record =
  | Commit_batch of (int * (string * Op.t) list) list
  | Prepare of txid * (string * Op.t) list
  | Resolve of txid * int option

let encode_writes b writes =
  Wire.wlist b
    (fun b (key, op) ->
      Wire.wstr b key;
      Op.encode b op)
    writes

let decode_writes r =
  Wire.rlist r (fun r ->
      let key = Wire.rstr r in
      let op = Op.decode r in
      (key, op))

let encode record =
  let b = Buffer.create 128 in
  (match record with
  | Commit_batch txs ->
      Wire.w8 b 1;
      Wire.wlist b
        (fun b (seq, writes) ->
          Wire.w64 b seq;
          encode_writes b writes)
        txs
  | Prepare ((coord, tx), writes) ->
      Wire.w8 b 2;
      Wire.w64 b coord;
      Wire.w64 b tx;
      encode_writes b writes
  | Resolve ((coord, tx), outcome) ->
      Wire.w8 b 3;
      Wire.w64 b coord;
      Wire.w64 b tx;
      (match outcome with
      | Some seq ->
          Wire.w8 b 1;
          Wire.w64 b seq
      | None -> Wire.w8 b 0));
  Buffer.contents b

let read r =
  match Wire.r8 r with
  | 1 ->
      Commit_batch
        (Wire.rlist r (fun r ->
             let seq = Wire.r64 r in
             let writes = decode_writes r in
             (seq, writes)))
  | 2 ->
      let coord = Wire.r64 r in
      let tx = Wire.r64 r in
      Prepare ((coord, tx), decode_writes r)
  | 3 ->
      let coord = Wire.r64 r in
      let tx = Wire.r64 r in
      let outcome = if Wire.r8 r = 1 then Some (Wire.r64 r) else None in
      Resolve ((coord, tx), outcome)
  | n -> raise (Wire.Malformed (Printf.sprintf "bad wal record tag %d" n))

let decode payload =
  let r = Wire.reader payload in
  match read r with
  | record when Wire.at_end r -> Ok record
  | _ -> Error "trailing bytes after a wal record"
  | exception Wire.Malformed m -> Error m
