(* ChaCha20, RFC 8439. The keystream kernel is C in crypto_stubs.c, chosen
   once from CPUID when the program loads; this module checks sizes and
   regions around it. *)

let key_size = 32
let nonce_size = 12

(* Keystream XOR over buf.[off .. off+len) from block [counter] (mod 2^32),
   with the kernel the CPU supports best. Callers validate key, nonce and
   region first. *)
external xor_stub : string -> string -> int -> Bytes.t -> int -> int -> unit
  = "caml_treaty_chacha20_xor_byte" "caml_treaty_chacha20_xor"
[@@noalloc]

external kernel_id : unit -> int = "caml_treaty_chacha20_kernel" [@@noalloc]

let check ~key ~nonce buf ~off ~len =
  if String.length key <> key_size then invalid_arg "Chacha20: key size";
  if String.length nonce <> nonce_size then invalid_arg "Chacha20: nonce size";
  if off < 0 || len < 0 || off > Bytes.length buf - len then
    invalid_arg "Chacha20.xor_into: region out of bounds"

module Kernel = struct
  type t = Portable | Avx2

  let name = function Portable -> "portable" | Avx2 -> "avx2"
  let selected = if kernel_id () = 1 then Avx2 else Portable
  let available = function Portable -> true | Avx2 -> selected = Avx2

  external portable : string -> string -> int -> Bytes.t -> int -> int -> unit
    = "caml_treaty_chacha20_xor_portable_byte" "caml_treaty_chacha20_xor_portable"
  [@@noalloc]

  external avx2 : string -> string -> int -> Bytes.t -> int -> int -> unit
    = "caml_treaty_chacha20_xor_avx2_byte" "caml_treaty_chacha20_xor_avx2"
  [@@noalloc]

  let xor_into k ~key ~nonce ?(counter = 1) buf ~off ~len =
    check ~key ~nonce buf ~off ~len;
    if not (available k) then
      invalid_arg "Chacha20.Kernel.xor_into: this CPU lacks the kernel's instructions";
    match k with
    | Portable -> portable key nonce counter buf off len
    | Avx2 -> avx2 key nonce counter buf off len
end

let kernel = Kernel.name Kernel.selected

let xor_into ~key ~nonce ?(counter = 1) buf ~off ~len =
  check ~key ~nonce buf ~off ~len;
  xor_stub key nonce counter buf off len

let block ~key ~nonce ~counter =
  let out = Bytes.make 64 '\000' in
  xor_into ~key ~nonce ~counter out ~off:0 ~len:64;
  Bytes.unsafe_to_string out

let xor ~key ~nonce ?(counter = 1) msg =
  let out = Bytes.of_string msg in
  xor_into ~key ~nonce ~counter out ~off:0 ~len:(Bytes.length out);
  Bytes.unsafe_to_string out
