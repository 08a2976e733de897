type key = { enc : string; mac : Hmac.t }

let iv_size = 12
let mac_size = 16
let overhead = iv_size + mac_size

let check_iv fn iv = if String.length iv <> iv_size then invalid_arg (fn ^ ": iv size")

let key_of_string material =
  let enc = Sha256.digest_string ("treaty-aead-enc:" ^ material) in
  let mac_key = Sha256.digest_string ("treaty-aead-mac:" ^ material) in
  { enc; mac = Hmac.create mac_key }

(* A tag's length words, then the tag checked against a received one: a
   tag never yields, so one scratch serves every key. *)
let scratch = Bytes.create mac_size

let feed_len32 s n =
  let b = scratch in
  Bytes.set b 0 (Char.chr (n land 0xff));
  Bytes.set b 1 (Char.chr ((n lsr 8) land 0xff));
  Bytes.set b 2 (Char.chr ((n lsr 16) land 0xff));
  Bytes.set b 3 (Char.chr ((n lsr 24) land 0xff));
  Hmac.feed_bytes s b 0 4

(* The one tag transcript every seal and open uses: iv, len32 aad, aad,
   len32 ct, ct. The lengths of aad and ct are MACed too, so the framing is
   unambiguous. The IV, the AAD and the ciphertext are byte regions, fed
   straight from wherever they lie; the 16-byte tag goes to
   [dst.[dst_off ..)]. *)
let tag_into key iv iv_off aad aad_off aad_len ct ct_off ct_len dst dst_off =
  let s = Hmac.stream key.mac in
  Hmac.feed_bytes s iv iv_off iv_size;
  feed_len32 s aad_len;
  Hmac.feed_bytes s aad aad_off aad_len;
  feed_len32 s ct_len;
  Hmac.feed_bytes s ct ct_off ct_len;
  Hmac.stream_mac_into s dst dst_off mac_size

let tag_of key iv iv_off aad aad_off aad_len ct ct_off ct_len =
  let t = Bytes.create mac_size in
  tag_into key iv iv_off aad aad_off aad_len ct ct_off ct_len t 0;
  Bytes.unsafe_to_string t

let tag key ~iv ~aad ct =
  tag_of key (Bytes.unsafe_of_string iv) 0 (Bytes.unsafe_of_string aad) 0
    (String.length aad) (Bytes.unsafe_of_string ct) 0 (String.length ct)

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

(* One buffer, [iv | ct | mac]: [write] puts the [len] plaintext bytes at
   the offset it is given, and they are encrypted in place and MACed where
   they lie. *)
let seal_packed_with key ~iv ?(aad = "") ~len write =
  check_iv "Aead.seal" iv;
  let out = Bytes.create (overhead + len) in
  Bytes.blit_string iv 0 out 0 iv_size;
  write out iv_size;
  Chacha20.xor_into ~key:key.enc ~nonce:iv out ~off:iv_size ~len;
  let mac =
    tag_of key out 0 (Bytes.unsafe_of_string aad) 0 (String.length aad) out iv_size len
  in
  Bytes.blit_string mac 0 out (iv_size + len) mac_size;
  Bytes.unsafe_to_string out

(* The plaintext is copied in once. Same bytes as [iv ^ ct ^ mac] of
   {!seal}. *)
let seal_packed key ~iv ?aad pt =
  Taint.register pt;
  let len = String.length pt in
  seal_packed_with key ~iv ?aad ~len (fun out off -> Bytes.blit_string pt 0 out off len)

(* The tag is checked over the packed string in place before anything is
   decrypted; only the plaintext is copied out. *)
let open_packed key ?(aad = "") packed =
  let len = String.length packed in
  if len < overhead then Error `Truncated
  else begin
    let p = Bytes.unsafe_of_string packed in
    let ct_len = len - overhead in
    let mac = String.sub packed (iv_size + ct_len) mac_size in
    if
      Hmac.equal_tags mac
        (tag_of key p 0 (Bytes.unsafe_of_string aad) 0 (String.length aad) p iv_size ct_len)
    then begin
      let pt = Bytes.sub p iv_size ct_len in
      Chacha20.xor_into ~key:key.enc ~nonce:(String.sub packed 0 iv_size) pt ~off:0
        ~len:ct_len;
      Ok (Bytes.unsafe_to_string pt)
    end
    else Error `Mac_mismatch
  end

let xor_region key ~iv buf ~off ~len =
  check_iv "Aead.xor_region" iv;
  Chacha20.xor_into ~key:key.enc ~nonce:iv buf ~off ~len

let tag_region key ~iv buf ~aad_off ~aad_len ~ct_off ~ct_len ~mac_off =
  (* Same transcript as {!tag}, so a region-sealed message verifies against
     a string-sealed one and vice versa. *)
  check_iv "Aead.tag_region" iv;
  tag_into key (Bytes.unsafe_of_string iv) 0 buf aad_off aad_len buf ct_off ct_len
    buf mac_off

let check_region key ~iv buf ~aad_off ~aad_len ~ct_off ~ct_len ~mac_off =
  check_iv "Aead.check_region" iv;
  if mac_off < 0 || mac_off > Bytes.length buf - mac_size then
    invalid_arg "Aead.check_region: mac region";
  tag_into key (Bytes.unsafe_of_string iv) 0 buf aad_off aad_len buf ct_off ct_len
    scratch 0;
  (* Timing-safe: every byte is compared. *)
  let acc = ref 0 in
  for i = 0 to mac_size - 1 do
    acc :=
      !acc
      lor (Char.code (Bytes.get scratch i) lxor Char.code (Bytes.get buf (mac_off + i)))
  done;
  !acc = 0

module Iv_gen = struct
  type t = {
    prefix : string;
    mutable counter : int;
    last : int; (* the incarnation's last counter value *)
    scratch : Bytes.t;
  }

  exception Exhausted

  let counter_bits = 40
  let max_incarnation = (1 lsl (62 - counter_bits)) - 1

  let create ~incarnation ~node_id =
    if incarnation < 0 || incarnation > max_incarnation then
      invalid_arg "Aead.Iv_gen.create: incarnation out of range";
    let prefix =
      let b = Bytes.create 4 in
      Bytes.set b 0 (Char.chr (node_id land 0xff));
      Bytes.set b 1 (Char.chr ((node_id lsr 8) land 0xff));
      Bytes.set b 2 (Char.chr ((node_id lsr 16) land 0xff));
      Bytes.set b 3 (Char.chr ((node_id lsr 24) land 0xff));
      Bytes.unsafe_to_string b
    in
    let base = incarnation lsl counter_bits in
    {
      prefix;
      counter = base;
      last = base + (1 lsl counter_bits) - 1;
      scratch = Bytes.create iv_size;
    }

  let next_into t buf off =
    if t.counter >= t.last then raise Exhausted;
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
