module Wire = Treaty_util.Wire

type record =
  | Begin_2pc of { tx_seq : int; participants : int list }
  | Decision of { tx_seq : int; commit : bool }
  | Finished of { tx_seq : int }
  | Batch of record list

let rec encode_into b record =
  match record with
  | Begin_2pc { tx_seq; participants } ->
      Wire.w8 b 1;
      Wire.w64 b tx_seq;
      Wire.wlist b Wire.w64 participants
  | Decision { tx_seq; commit } ->
      Wire.w8 b 2;
      Wire.w64 b tx_seq;
      Wire.wbool b commit
  | Finished { tx_seq } ->
      Wire.w8 b 3;
      Wire.w64 b tx_seq
  | Batch records ->
      Wire.w8 b 4;
      Wire.wlist b encode_into records

let encode record =
  let b = Buffer.create 32 in
  encode_into b record;
  Buffer.contents b

let rec decode_one r =
  match Wire.r8 r with
  | 1 ->
      let tx_seq = Wire.r64 r in
      let participants = Wire.rlist r Wire.r64 in
      Begin_2pc { tx_seq; participants }
  | 2 ->
      let tx_seq = Wire.r64 r in
      let commit = Wire.rbool r in
      Decision { tx_seq; commit }
  | 3 -> Finished { tx_seq = Wire.r64 r }
  | 4 -> Batch (Wire.rlist r decode_one)
  | n -> raise (Wire.Malformed (Printf.sprintf "bad clog record tag %d" n))

let decode payload =
  let r = Wire.reader payload in
  match decode_one r with
  | record when Wire.at_end r -> Ok record
  | _ -> Error "trailing bytes after a clog record"
  | exception Wire.Malformed m -> Error m

let rec flatten record =
  match record with
  | Batch records -> List.concat_map flatten records
  | r -> [ r ]
