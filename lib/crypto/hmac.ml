(* A key's inner and outer states, computed once. *)
type t = { inner : Sha256.ctx; outer : Sha256.ctx }

(* Scratch for one MAC at a time, shared by every key: a MAC copies its
   key's state in and finalizes there, so it allocates only the tag it
   returns. A MAC never yields, so no two share the scratch. The stream has
   its own inner state, so a one-shot MAC between a stream's feeds leaves
   it alone. *)
let s_inner = Sha256.init ()  (* a one-shot MAC's inner hash *)
let st_inner = Sha256.init ()  (* the stream's inner hash *)
let s_outer = Sha256.init ()
let digest = Bytes.create Sha256.digest_size  (* the inner digest, then the tag *)

let block_size = 64

let create key =
  let key =
    if String.length key > block_size then Sha256.digest_string key else key
  in
  let ipad = Bytes.make block_size '\x36' and opad = Bytes.make block_size '\x5c' in
  String.iteri
    (fun i c ->
      Bytes.set ipad i (Char.chr (Char.code c lxor 0x36));
      Bytes.set opad i (Char.chr (Char.code c lxor 0x5c)))
    key;
  let inner = Sha256.init () and outer = Sha256.init () in
  Sha256.update inner ipad 0 block_size;
  Sha256.update outer opad 0 block_size;
  { inner; outer }

(* Finish [t]'s MAC whose inner hash is [inner]: the tag lands in
   [digest]. *)
let finish_into t inner =
  Sha256.finalize_into inner digest 0;
  Sha256.copy_into t.outer s_outer;
  Sha256.update s_outer digest 0 Sha256.digest_size;
  Sha256.finalize_into s_outer digest 0

let finish t inner =
  finish_into t inner;
  Bytes.sub_string digest 0 Sha256.digest_size

let start t =
  Sha256.copy_into t.inner s_inner;
  s_inner

let mac t msg =
  let ctx = start t in
  Sha256.update_string ctx msg;
  finish t ctx

let mac_parts t parts =
  let ctx = start t in
  List.iter (Sha256.update_string ctx) parts;
  finish t ctx

let mac_bytes t buf off len =
  let ctx = start t in
  Sha256.update ctx buf off len;
  finish t ctx

type stream = t

let stream t =
  Sha256.copy_into t.inner st_inner;
  t

let feed_string _ data = Sha256.update_string st_inner data
let feed_bytes _ buf off len = Sha256.update st_inner buf off len
let stream_mac s = finish s st_inner

let stream_mac_into s dst off len =
  if len < 0 || len > Sha256.digest_size || off < 0 || off > Bytes.length dst - len
  then invalid_arg "Hmac.stream_mac_into";
  finish_into s st_inner;
  Bytes.blit digest 0 dst off len

let equal_tags a b =
  String.length a = String.length b
  && begin
       let acc = ref 0 in
       String.iteri (fun i c -> acc := !acc lor (Char.code c lxor Char.code b.[i])) a;
       !acc = 0
     end

let verify t msg ~tag = equal_tags (mac t msg) tag
