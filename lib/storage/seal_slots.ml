module Enclave = Treaty_tee.Enclave
module Wire = Treaty_util.Wire

type t = {
  ssd : Ssd.t;
  enclave : Enclave.t;
  slots : string array;
  mutable next_seq : int;
  mutable next_slot : int;  (* the slot not holding the newest record *)
  mutable writing : bool;
}

(* A slot's one record: its sequence number, then its bytes. *)
let read_slot ssd ~enclave file =
  let len = Ssd.size ssd file in
  if len = 0 then None
  else
    let r = Wire.reader (Ssd.read ssd ~enclave file ~off:0 ~len) in
    match
      let seq = Wire.r64 r in
      (seq, Wire.rstr r)
    with
    | record -> Some record
    | exception Wire.Malformed _ -> None

let open_ ssd ~enclave name =
  let slots = [| name ^ ".0"; name ^ ".1" |] in
  let found = Array.map (read_slot ssd ~enclave) slots in
  let seq i = match found.(i) with Some (s, _) -> s | None -> -1 in
  let newest = if seq 0 >= seq 1 then 0 else 1 in
  let t =
    {
      ssd;
      enclave;
      slots;
      next_seq = max (seq 0) (seq 1) + 1;
      next_slot = 1 - newest;
      writing = false;
    }
  in
  let records =
    Array.to_list found |> List.filter_map Fun.id
    |> List.sort (fun (a, _) (b, _) -> compare b a)
    |> List.map snd
  in
  (t, records)

let write t record =
  if t.writing then invalid_arg "Seal_slots.write: a write is in flight";
  t.writing <- true;
  let b = Buffer.create (String.length record + 16) in
  Wire.w64 b t.next_seq;
  Wire.wstr b record;
  let file = t.slots.(t.next_slot) in
  Ssd.delete t.ssd file;
  ignore (Ssd.append t.ssd ~enclave:t.enclave file (Buffer.contents b));
  t.next_seq <- t.next_seq + 1;
  t.next_slot <- 1 - t.next_slot;
  t.writing <- false
