(* SHA-256, FIPS 180-4. The compression function is a C kernel in
   crypto_stubs.c, chosen once from CPUID when the program loads; this
   module does the buffering, padding and bounds checks around it. *)

let digest_size = 32

(* Absorb [n] whole 64-byte blocks of [src] from [off] into the state, with
   the kernel the CPU supports best. Callers guarantee
   [off + 64 * n <= Bytes.length src]. *)
external compress : Bytes.t -> Bytes.t -> int -> int -> unit
  = "caml_treaty_sha256_blocks"
[@@noalloc]

external kernel_id : unit -> int = "caml_treaty_sha256_kernel" [@@noalloc]

module Kernel = struct
  type t = Portable | Sha_ni

  let name = function Portable -> "portable" | Sha_ni -> "sha-ni"
  let selected = if kernel_id () = 1 then Sha_ni else Portable
  let available = function Portable -> true | Sha_ni -> selected = Sha_ni

  external portable : Bytes.t -> Bytes.t -> int -> int -> unit
    = "caml_treaty_sha256_blocks_portable"
  [@@noalloc]

  external sha_ni : Bytes.t -> Bytes.t -> int -> int -> unit
    = "caml_treaty_sha256_blocks_sha_ni"
  [@@noalloc]

  let compress k ~state src off nblocks =
    if
      Bytes.length state <> 32 || off < 0 || off > Bytes.length src || nblocks < 0
      || nblocks > (Bytes.length src - off) / 64
    then invalid_arg "Sha256.Kernel.compress";
    if not (available k) then
      invalid_arg "Sha256.Kernel.compress: this CPU lacks the kernel's instructions";
    match k with
    | Portable -> portable state src off nblocks
    | Sha_ni -> sha_ni state src off nblocks
end

let kernel = Kernel.name Kernel.selected

type ctx = {
  h : Bytes.t; (* 8 state words, big-endian: the digest once finalized *)
  buf : Bytes.t; (* 64-byte partial-block buffer *)
  mutable buf_len : int;
  mutable total : int; (* total bytes absorbed *)
}

let iv =
  let b = Bytes.create 32 in
  Array.iteri
    (fun i v -> Bytes.set_int32_be b (4 * i) (Int32.of_int v))
    [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f; 0x9b05688c;
       0x1f83d9ab; 0x5be0cd19 |];
  Bytes.unsafe_to_string b

let init () =
  { h = Bytes.of_string iv; buf = Bytes.create 64; buf_len = 0; total = 0 }

let copy c =
  { h = Bytes.copy c.h; buf = Bytes.copy c.buf; buf_len = c.buf_len; total = c.total }

let copy_into src dst =
  Bytes.blit src.h 0 dst.h 0 32;
  Bytes.blit src.buf 0 dst.buf 0 src.buf_len;
  dst.buf_len <- src.buf_len;
  dst.total <- src.total

let update ctx src off len =
  if off < 0 || len < 0 || off > Bytes.length src - len then
    invalid_arg "Sha256.update";
  ctx.total <- ctx.total + len;
  let pos = ref off and remaining = ref len in
  (* Top up a partial block first. *)
  if ctx.buf_len > 0 then begin
    let take = min len (64 - ctx.buf_len) in
    Bytes.blit src off ctx.buf ctx.buf_len take;
    ctx.buf_len <- ctx.buf_len + take;
    pos := off + take;
    remaining := len - take;
    if ctx.buf_len = 64 then begin
      compress ctx.h ctx.buf 0 1;
      ctx.buf_len <- 0
    end
  end;
  let blocks = !remaining / 64 in
  if blocks > 0 then begin
    compress ctx.h src !pos blocks;
    pos := !pos + (64 * blocks);
    remaining := !remaining - (64 * blocks)
  end;
  if !remaining > 0 then begin
    Bytes.blit src !pos ctx.buf 0 !remaining;
    ctx.buf_len <- !remaining
  end

let update_string ctx s = update ctx (Bytes.unsafe_of_string s) 0 (String.length s)

(* Padding, in place: 0x80, zeros, 8-byte big-endian bit length — spilling
   into a second block when the length field does not fit. The digest is
   left in [ctx.h]. *)
let pad ctx =
  let buf = ctx.buf in
  let n = ctx.buf_len + 1 in
  Bytes.set buf ctx.buf_len '\x80';
  if n > 56 then begin
    Bytes.fill buf n (64 - n) '\000';
    compress ctx.h buf 0 1;
    Bytes.fill buf 0 56 '\000'
  end
  else Bytes.fill buf n (56 - n) '\000';
  Bytes.set_int64_be buf 56 (Int64.of_int (ctx.total * 8));
  compress ctx.h buf 0 1

let finalize ctx =
  pad ctx;
  Bytes.to_string ctx.h

let finalize_into ctx dst off =
  if off < 0 || off > Bytes.length dst - digest_size then
    invalid_arg "Sha256.finalize_into";
  pad ctx;
  Bytes.blit ctx.h 0 dst off digest_size

let digest_bytes b =
  let ctx = init () in
  update ctx b 0 (Bytes.length b);
  finalize ctx

let digest_string s = digest_bytes (Bytes.unsafe_of_string s)

let to_hex s =
  let out = Buffer.create (2 * String.length s) in
  String.iter (fun c -> Buffer.add_string out (Printf.sprintf "%02x" (Char.code c))) s;
  Buffer.contents out
