module Enclave = Treaty_tee.Enclave

(* A protected value is its own immutable string, as [Ssd] stores parts: a
   shared growable buffer would hold doubling slack and copy every value
   again on each regrowth. [stored] is mutable only for [host_tamper]. *)
type value_ref = {
  mutable stored : string;
  vhash : string;
  tombstone : bool;
}

type lookup = Found of int * string | Deleted of int | Not_found

type t = {
  sec : Sec.t;
  sl : value_ref Skiplist.t;
  values_in_enclave : bool;
  mutable enclave_bytes : int;
  mutable host_bytes : int;
  mutable released : bool;
}

(* Per-entry enclave footprint: key bytes + seq + value pointer + hash. *)
let entry_overhead key = String.length key + 8 + 16 + 32

let create ?(values_in_enclave = false) sec =
  {
    sec;
    sl = Skiplist.create ();
    values_in_enclave;
    enclave_bytes = 0;
    host_bytes = 0;
    released = false;
  }

let charge_alloc t ~enclave_part ~value_part =
  let e = Sec.enclave t.sec in
  t.enclave_bytes <- t.enclave_bytes + enclave_part;
  Enclave.alloc_enclave e enclave_part;
  if t.values_in_enclave then begin
    t.enclave_bytes <- t.enclave_bytes + value_part;
    Enclave.alloc_enclave e value_part
  end
  else begin
    t.host_bytes <- t.host_bytes + value_part;
    Enclave.alloc_host e value_part
  end

let add t ~key ~seq op =
  let plain = match op with Op.Put v -> v | Op.Delete -> "" in
  let tombstone = op = Op.Delete in
  (* Values headed for untrusted host memory are protected; in the
     all-in-enclave ablation they stay plaintext inside the EPC. *)
  let stored = if t.values_in_enclave then plain else Sec.protect t.sec plain in
  (* TreatySan boundary: in the default layout this buffer lands in
     untrusted host memory (in the all-in-enclave ablation it stays in the
     EPC, so plaintext there is fine). *)
  if not t.values_in_enclave then
    Treaty_crypto.Taint.check ~what:"memtable host write" stored;
  let vhash = Sec.digest t.sec stored in
  charge_alloc t ~enclave_part:(entry_overhead key) ~value_part:(String.length stored);
  Skiplist.insert t.sl ~key ~seq { stored; vhash; tombstone }

let fetch t vref =
  Sec.check_digest t.sec ~what:"memtable value" ~data:vref.stored ~expected:vref.vhash;
  if t.values_in_enclave then vref.stored else Sec.unprotect t.sec vref.stored

let get t ~key ~max_seq =
  match Skiplist.find t.sl ~key ~max_seq with
  | None -> Not_found
  | Some (seq, vref) ->
      if vref.tombstone then Deleted seq else Found (seq, fetch t vref)

let entries t = Skiplist.length t.sl
let approx_bytes t = t.enclave_bytes + t.host_bytes

let to_seq t =
  Skiplist.fold t.sl ~init:[] ~f:(fun acc ~key ~seq vref -> (key, seq, vref) :: acc)
  |> List.rev |> List.to_seq
  |> Seq.map (fun (key, seq, vref) ->
         (key, seq, if vref.tombstone then Op.Delete else Op.Put (fetch t vref)))

let bounds t =
  Skiplist.fold t.sl ~init:None ~f:(fun acc ~key ~seq _ ->
      match acc with
      | None -> Some (key, key, seq)
      | Some (lo, _, s) -> Some (lo, key, max s seq))

let range t ~lo ~hi ~max_seq =
  Skiplist.fold_range t.sl ~lo ~hi ~init:[] ~f:(fun acc ~key ~seq vref ->
      if seq > max_seq then acc
      else
        let op = if vref.tombstone then Op.Delete else Op.Put (fetch t vref) in
        (key, seq, op) :: acc)
  |> List.rev

let release t =
  if not t.released then begin
    t.released <- true;
    let e = Sec.enclave t.sec in
    Enclave.free_enclave e t.enclave_bytes;
    Enclave.free_host e t.host_bytes
  end

(* Flip one byte in the middle of the middle live value, in key order. *)
let host_tamper t =
  let live =
    Skiplist.fold t.sl ~init:[] ~f:(fun acc ~key:_ ~seq:_ vref ->
        if vref.tombstone || vref.stored = "" then acc else vref :: acc)
    |> List.rev
  in
  match live with
  | [] -> ()
  | _ ->
      let vref = List.nth live (List.length live / 2) in
      let b = Bytes.of_string vref.stored in
      let i = Bytes.length b / 2 in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x01));
      vref.stored <- Bytes.to_string b
