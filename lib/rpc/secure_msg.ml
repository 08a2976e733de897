module Aead = Treaty_crypto.Aead
module Taint = Treaty_crypto.Taint

type meta = {
  coord : int;
  tx_seq : int;
  op_id : int;
  src : int;
  kind : int;
  is_response : bool;
  req_id : int;
  acked : int;
}

let meta_size = 80

type security = Plain | Secure of Aead.key

(* This module is a lint wire-zone: no [String.sub] / [( ^ )] — every encode
   and decode runs over byte regions of one packet buffer. *)

let put64 b off v =
  for i = 0 to 7 do
    Bytes.set b (off + i) (Char.chr ((v lsr (8 * i)) land 0xff))
  done

let get64b b off =
  let v = ref 0 in
  for i = 7 downto 0 do
    v := (!v lsl 8) lor Char.code (Bytes.get b (off + i))
  done;
  !v

let put32 b off v =
  for i = 0 to 3 do
    Bytes.set b (off + i) (Char.chr ((v lsr (8 * i)) land 0xff))
  done

let get32b b off =
  let v = ref 0 in
  for i = 3 downto 0 do
    v := (!v lsl 8) lor Char.code (Bytes.get b (off + i))
  done;
  !v

let encode_meta_into b off m =
  Bytes.fill b off meta_size '\000';
  put64 b off m.coord;
  put64 b (off + 8) m.tx_seq;
  put64 b (off + 16) m.op_id;
  put64 b (off + 24) m.src;
  put64 b (off + 32) m.kind;
  put64 b (off + 40) (if m.is_response then 1 else 0);
  put64 b (off + 48) m.req_id;
  put64 b (off + 56) m.acked

let decode_meta_bytes b off =
  {
    coord = get64b b off;
    tx_seq = get64b b (off + 8);
    op_id = get64b b (off + 16);
    src = get64b b (off + 24);
    kind = get64b b (off + 32);
    is_response = get64b b (off + 40) = 1;
    req_id = get64b b (off + 48);
    acked = get64b b (off + 56);
  }

let at_most_once_key m = (m.coord, m.tx_seq, m.op_id)

(* Register the caller's payload with the plaintext sanitizer: if the raw
   data string (rather than the sealed packet) ever reaches the network,
   TreatySan flags it. The empty string is skipped — zero-length blocks are
   shared atoms in the runtime, so registering one would taint every "" in
   the program. *)
let taint_data data = if String.length data > 0 then Taint.register data

module Burst = struct
  let version = 2

  let header_size security ~msgs =
    match security with
    | Plain -> 1 + 4 + (4 * msgs)
    | Secure _ -> 1 + Aead.iv_size + 4 + (4 * msgs)

  let wire_size security ~data_lens =
    let msgs = List.length data_lens in
    let bodies = List.fold_left (fun acc l -> acc + meta_size + l) 0 data_lens in
    header_size security ~msgs
    + bodies
    + (match security with Plain -> 0 | Secure _ -> Aead.mac_size)

  (* Packet layout:

     {v 0x02 | IV (12 B, Secure) | count (4 B) | len_0..len_n-1 (4 B each)
        | enc( meta_0|data_0 | ... | meta_n-1|data_n-1 ) | MAC (16 B, Secure) v}

     The whole header — version byte, IV, count and the sub-message length
     table — is the AAD of a single packet-level AEAD: one IV, one keystream
     pass, one MAC. Tampering with any framing length (or any body byte)
     fails the one MAC and rejects the whole packet. *)
  let encode_into security ~iv_gen buf msgs =
    let n = List.length msgs in
    let count_off =
      match security with Plain -> 1 | Secure _ -> 1 + Aead.iv_size
    in
    let lens_off = count_off + 4 in
    let body_off = lens_off + (4 * n) in
    Bytes.set buf 0 (Char.chr version);
    put32 buf count_off n;
    let write_bodies () =
      let i = ref 0 and off = ref body_off in
      List.iter
        (fun (m, data) ->
          let data_len = String.length data in
          let len = meta_size + data_len in
          put32 buf (lens_off + (4 * !i)) len;
          encode_meta_into buf !off m;
          Bytes.blit_string data 0 buf (!off + meta_size) data_len;
          incr i;
          off := !off + len)
        msgs;
      !off
    in
    match security with
    | Plain -> write_bodies ()
    | Secure key ->
        Aead.Iv_gen.next_into iv_gen buf 1;
        let iv = Bytes.sub_string buf 1 Aead.iv_size in
        List.iter (fun (_, data) -> taint_data data) msgs;
        let body_end = write_bodies () in
        let ct_len = body_end - body_off in
        Aead.xor_region key ~iv buf ~off:body_off ~len:ct_len;
        Aead.tag_region key ~iv buf ~aad_off:0 ~aad_len:body_off
          ~ct_off:body_off ~ct_len ~mac_off:body_end;
        body_end + Aead.mac_size

  (* Slice the (already plaintext) bodies out of [b]. The length table was
     authenticated (Secure) or structurally checked (Plain) by the caller. *)
  let slice_bodies b ~n ~lens_off ~body_off ~body_len =
    let msgs = ref [] and off = ref body_off and ok = ref true in
    for i = 0 to n - 1 do
      if !ok then begin
        let len = get32b b (lens_off + (4 * i)) in
        if len < meta_size || !off + len > body_off + body_len then ok := false
        else begin
          let meta = decode_meta_bytes b !off in
          let data = Bytes.sub_string b (!off + meta_size) (len - meta_size) in
          msgs := (meta, data) :: !msgs;
          off := !off + len
        end
      end
    done;
    if !ok && !off = body_off + body_len then Ok (List.rev !msgs)
    else Error `Malformed

  (* The packet is copied once into [buf], the caller's reusable scratch,
     and verified, decrypted and sliced there. *)
  let decode security ~buf:b packet =
    let pn = String.length packet in
    if pn < 5 || Char.code packet.[0] <> version then Error `Malformed
    else if Bytes.length b < pn then invalid_arg "Secure_msg.Burst.decode: buf"
    else begin
      Bytes.blit_string packet 0 b 0 pn;
      match security with
      | Plain ->
          let n = get32b b 1 in
          let lens_off = 5 in
          let body_off = lens_off + (4 * n) in
          if n < 0 || body_off > pn then Error `Malformed
          else slice_bodies b ~n ~lens_off ~body_off ~body_len:(pn - body_off)
      | Secure key ->
          let count_off = 1 + Aead.iv_size in
          if pn < count_off + 4 + Aead.mac_size then Error `Malformed
          else begin
            let n = get32b b count_off in
            let lens_off = count_off + 4 in
            let body_off = lens_off + (4 * n) in
            if n < 0 || body_off + Aead.mac_size > pn then Error `Malformed
            else begin
              let ct_len = pn - body_off - Aead.mac_size in
              let iv = Bytes.sub_string b 1 Aead.iv_size in
              (* Verify before trusting the length table: it is part of the
                 AAD, so a flipped length byte is a MAC failure (`Tampered),
                 not a framing error. *)
              if
                not
                  (Aead.check_region key ~iv b ~aad_off:0 ~aad_len:body_off
                     ~ct_off:body_off ~ct_len ~mac_off:(body_off + ct_len))
              then Error `Tampered
              else begin
                Aead.xor_region key ~iv b ~off:body_off ~len:ct_len;
                slice_bodies b ~n ~lens_off ~body_off ~body_len:ct_len
              end
            end
          end
    end
end
