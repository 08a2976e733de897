(* Pure-OCaml reference ChaCha20 block function and SHA-256 compress,
   written straight from RFC 8439 and FIPS 180-4 with 32-bit words kept in
   OCaml ints masked to 32 bits. The native kernels in lib/crypto are
   checked against these in differential property tests; nothing outside
   the test suite uses them. *)

let mask = 0xffffffff
let[@inline] rotl x n = ((x lsl n) lor (x lsr (32 - n))) land mask
let[@inline] rotr x n = ((x lsr n) lor (x lsl (32 - n))) land mask

let le32 s off =
  Char.code s.[off]
  lor (Char.code s.[off + 1] lsl 8)
  lor (Char.code s.[off + 2] lsl 16)
  lor (Char.code s.[off + 3] lsl 24)

(* --- ChaCha20 ------------------------------------------------------------ *)

let quarter st a b c d =
  st.(a) <- (st.(a) + st.(b)) land mask;
  st.(d) <- rotl (st.(d) lxor st.(a)) 16;
  st.(c) <- (st.(c) + st.(d)) land mask;
  st.(b) <- rotl (st.(b) lxor st.(c)) 12;
  st.(a) <- (st.(a) + st.(b)) land mask;
  st.(d) <- rotl (st.(d) lxor st.(a)) 8;
  st.(c) <- (st.(c) + st.(d)) land mask;
  st.(b) <- rotl (st.(b) lxor st.(c)) 7

(* One 64-byte keystream block; the counter is taken mod 2^32. *)
let chacha20_block ~key ~nonce ~counter =
  let state = Array.make 16 0 in
  state.(0) <- 0x61707865;
  state.(1) <- 0x3320646e;
  state.(2) <- 0x79622d32;
  state.(3) <- 0x6b206574;
  for i = 0 to 7 do
    state.(4 + i) <- le32 key (4 * i)
  done;
  state.(12) <- counter land mask;
  for i = 0 to 2 do
    state.(13 + i) <- le32 nonce (4 * i)
  done;
  let w = Array.copy state in
  for _round = 1 to 10 do
    quarter w 0 4 8 12;
    quarter w 1 5 9 13;
    quarter w 2 6 10 14;
    quarter w 3 7 11 15;
    quarter w 0 5 10 15;
    quarter w 1 6 11 12;
    quarter w 2 7 8 13;
    quarter w 3 4 9 14
  done;
  String.init 64 (fun i ->
      let v = (w.(i / 4) + state.(i / 4)) land mask in
      Char.chr ((v lsr (8 * (i mod 4))) land 0xff))

let chacha20_xor ~key ~nonce ~counter msg =
  let ks = ref "" and ks_block = ref (-1) in
  String.mapi
    (fun i c ->
      if i / 64 <> !ks_block then begin
        ks_block := i / 64;
        ks := chacha20_block ~key ~nonce ~counter:(counter + !ks_block)
      end;
      Char.chr (Char.code c lxor Char.code !ks.[i mod 64]))
    msg

(* --- SHA-256 ------------------------------------------------------------- *)

let k =
  [|
    0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1;
    0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3;
    0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786;
    0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
    0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
    0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13;
    0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
    0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
    0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a;
    0x5b9cca4f; 0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
    0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2;
  |]

let compress h block off =
  let w = Array.make 64 0 in
  for i = 0 to 15 do
    let j = off + (i * 4) in
    w.(i) <-
      (Char.code block.[j] lsl 24)
      lor (Char.code block.[j + 1] lsl 16)
      lor (Char.code block.[j + 2] lsl 8)
      lor Char.code block.[j + 3]
  done;
  for i = 16 to 63 do
    let w15 = w.(i - 15) and w2 = w.(i - 2) in
    let s0 = rotr w15 7 lxor rotr w15 18 lxor (w15 lsr 3) in
    let s1 = rotr w2 17 lxor rotr w2 19 lxor (w2 lsr 10) in
    w.(i) <- (w.(i - 16) + s0 + w.(i - 7) + s1) land mask
  done;
  let v = Array.copy h in
  for i = 0 to 63 do
    let a = v.(0) and b = v.(1) and c = v.(2) and e = v.(4) in
    let s1 = rotr e 6 lxor rotr e 11 lxor rotr e 25 in
    let ch = e land v.(5) lxor (lnot e land v.(6)) in
    let t1 = (v.(7) + s1 + ch + k.(i) + w.(i)) land mask in
    let s0 = rotr a 2 lxor rotr a 13 lxor rotr a 22 in
    let maj = a land b lxor (a land c) lxor (b land c) in
    let t2 = (s0 + maj) land mask in
    Array.blit v 0 v 1 7;
    v.(4) <- (v.(4) + t1) land mask;
    v.(0) <- (t1 + t2) land mask
  done;
  Array.iteri (fun i x -> h.(i) <- (h.(i) + x) land mask) v

(* One-shot digest: pad the whole message, then compress block by block. *)
let sha256 msg =
  let len = String.length msg in
  let padded_len = (len + 9 + 63) / 64 * 64 in
  let b = Bytes.make padded_len '\000' in
  Bytes.blit_string msg 0 b 0 len;
  Bytes.set b len '\x80';
  Bytes.set_int64_be b (padded_len - 8) (Int64.of_int (len * 8));
  let padded = Bytes.unsafe_to_string b in
  let h =
    [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f; 0x9b05688c;
       0x1f83d9ab; 0x5be0cd19 |]
  in
  for blk = 0 to (padded_len / 64) - 1 do
    compress h padded (64 * blk)
  done;
  String.init 32 (fun i -> Char.chr ((h.(i / 4) lsr (8 * (3 - (i mod 4)))) land 0xff))
