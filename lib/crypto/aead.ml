type key = { enc : string; mac : Hmac.t }

let iv_size = 12
let mac_size = 16
let overhead = iv_size + mac_size

let check_iv fn iv = if String.length iv <> iv_size then invalid_arg (fn ^ ": iv size")

let key_of_string material =
  let enc = Sha256.digest_string ("treaty-aead-enc:" ^ material) in
  let mac_key = Sha256.digest_string ("treaty-aead-mac:" ^ material) in
  { enc; mac = Hmac.create mac_key }

let len32_int n =
  let b = Bytes.create 4 in
  Bytes.set b 0 (Char.chr (n land 0xff));
  Bytes.set b 1 (Char.chr ((n lsr 8) land 0xff));
  Bytes.set b 2 (Char.chr ((n lsr 16) land 0xff));
  Bytes.set b 3 (Char.chr ((n lsr 24) land 0xff));
  Bytes.unsafe_to_string b

let len32 s = len32_int (String.length s)

let tag key ~iv ~aad ct =
  (* Unambiguous framing: lengths of aad and ct are MACed too. *)
  let full = Hmac.mac_parts key.mac [ iv; len32 aad; aad; len32 ct; ct ] in
  String.sub full 0 mac_size

let seal key ~iv ?(aad = "") pt =
  check_iv "Aead.seal" iv;
  Taint.register pt;
  let ct = Chacha20.xor ~key:key.enc ~nonce:iv pt in
  (ct, tag key ~iv ~aad ct)

let open_ key ~iv ?(aad = "") ~mac ct =
  if
    String.length iv = iv_size
    && String.length mac = mac_size
    && Hmac.equal_tags mac (tag key ~iv ~aad ct)
  then Ok (Chacha20.xor ~key:key.enc ~nonce:iv ct)
  else Error `Mac_mismatch

let seal_packed key ~iv ?aad pt =
  let ct, mac = seal key ~iv ?aad pt in
  iv ^ ct ^ mac

let open_packed key ?aad packed =
  if String.length packed < overhead then Error `Truncated
  else begin
    let iv = String.sub packed 0 iv_size in
    let ct_len = String.length packed - overhead in
    let ct = String.sub packed iv_size ct_len in
    let mac = String.sub packed (iv_size + ct_len) mac_size in
    match open_ key ~iv ?aad ~mac ct with
    | Ok pt -> Ok pt
    | Error `Mac_mismatch -> Error `Mac_mismatch
  end

let xor_region key ~iv buf ~off ~len =
  check_iv "Aead.xor_region" iv;
  Chacha20.xor_into ~key:key.enc ~nonce:iv buf ~off ~len

let tag_region key ~iv buf ~aad_off ~aad_len ~ct_off ~ct_len =
  (* Same transcript as {!tag}: iv, len32 aad, aad, len32 ct, ct — so a
     region-sealed message verifies against a string-sealed one and vice
     versa. The regions are fed straight from the packet buffer. *)
  check_iv "Aead.tag_region" iv;
  let s = Hmac.stream key.mac in
  Hmac.feed_string s iv;
  Hmac.feed_string s (len32_int aad_len);
  Hmac.feed_bytes s buf aad_off aad_len;
  Hmac.feed_string s (len32_int ct_len);
  Hmac.feed_bytes s buf ct_off ct_len;
  String.sub (Hmac.stream_mac s) 0 mac_size

let check_region key ~iv buf ~aad_off ~aad_len ~ct_off ~ct_len ~mac =
  String.length mac = mac_size
  && Hmac.equal_tags mac (tag_region key ~iv buf ~aad_off ~aad_len ~ct_off ~ct_len)

module Iv_gen = struct
  type t = { prefix : string; mutable counter : int; scratch : Bytes.t }

  let create ~node_id =
    let prefix =
      let b = Bytes.create 4 in
      Bytes.set b 0 (Char.chr (node_id land 0xff));
      Bytes.set b 1 (Char.chr ((node_id lsr 8) land 0xff));
      Bytes.set b 2 (Char.chr ((node_id lsr 16) land 0xff));
      Bytes.set b 3 (Char.chr ((node_id lsr 24) land 0xff));
      Bytes.unsafe_to_string b
    in
    { prefix; counter = 0; scratch = Bytes.create iv_size }

  let next_into t buf off =
    t.counter <- t.counter + 1;
    Bytes.blit_string t.prefix 0 buf off 4;
    let c = t.counter in
    for i = 0 to 7 do
      Bytes.unsafe_set buf (off + 4 + i) (Char.unsafe_chr ((c lsr (8 * i)) land 0xff))
    done

  let next t =
    next_into t t.scratch 0;
    (* One fresh string per IV (callers hold on to it); the intermediate
       8-byte counter buffer and concat are gone. *)
    Bytes.to_string t.scratch
end
