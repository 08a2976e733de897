let key_size = 32
let nonce_size = 12

(* Keystream XOR over buf.[off .. off+len) from block [counter] (mod 2^32),
   in crypto_stubs.c. Callers validate key, nonce and region first. *)
external xor_stub : string -> string -> int -> Bytes.t -> int -> int -> unit
  = "caml_treaty_chacha20_xor_byte" "caml_treaty_chacha20_xor"
[@@noalloc]

let xor_into ~key ~nonce ?(counter = 1) buf ~off ~len =
  if String.length key <> key_size then invalid_arg "Chacha20: key size";
  if String.length nonce <> nonce_size then invalid_arg "Chacha20: nonce size";
  if off < 0 || len < 0 || off > Bytes.length buf - len then
    invalid_arg "Chacha20.xor_into: region out of bounds";
  xor_stub key nonce counter buf off len

let block ~key ~nonce ~counter =
  let out = Bytes.make 64 '\000' in
  xor_into ~key ~nonce ~counter out ~off:0 ~len:64;
  Bytes.unsafe_to_string out

let xor ~key ~nonce ?(counter = 1) msg =
  let out = Bytes.of_string msg in
  xor_into ~key ~nonce ~counter out ~off:0 ~len:(Bytes.length out);
  Bytes.unsafe_to_string out
