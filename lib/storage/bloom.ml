module Wire = Treaty_util.Wire

type t = { bits : Bytes.t; nbits : int; k : int }

let bits_per_key = 10
let k_hashes = 7

(* Two independent FNV-1a streams (different offset bases) drive the
   standard double-hashing scheme g_i = h1 + i*h2. No [Hashtbl.hash], no
   randomness: filters are a pure function of the key set, which the
   determinism contract (same seed => byte-identical traces) requires. *)
(* Masked to 32 bits so [h1 + i*h2] can never overflow into a negative
   (and thus out-of-range) bit index. *)
let fnv1a ~basis s =
  let h = ref basis in
  String.iter (fun c -> h := (!h lxor Char.code c) * 0x01000193 land 0xFFFFFFFF) s;
  !h

let h1 = fnv1a ~basis:0x811c9dc5
let h2 s = fnv1a ~basis:0x01234567 s lor 1 (* odd stride *)

let create ~expected =
  let expected = max expected 1 in
  let nbits = max 64 (expected * bits_per_key) in
  { bits = Bytes.make ((nbits + 7) / 8) '\000'; nbits; k = k_hashes }

let set_bit b i =
  let byte = i lsr 3 and mask = 1 lsl (i land 7) in
  Bytes.set b byte (Char.chr (Char.code (Bytes.get b byte) lor mask))

let get_bit b i =
  let byte = i lsr 3 and mask = 1 lsl (i land 7) in
  Char.code (Bytes.get b byte) land mask <> 0

let add t key =
  let a = h1 key and b = h2 key in
  for i = 0 to t.k - 1 do
    set_bit t.bits ((a + (i * b)) mod t.nbits)
  done

let mem t key =
  let a = h1 key and b = h2 key in
  let rec go i = i >= t.k || (get_bit t.bits ((a + (i * b)) mod t.nbits) && go (i + 1)) in
  go 0

let bytes t = Bytes.length t.bits

let encode b t =
  Wire.w32 b t.nbits;
  Wire.w32 b t.k;
  Wire.wstr b (Bytes.to_string t.bits)

let decode r =
  match
    let nbits = Wire.r32 r in
    let k = Wire.r32 r in
    (nbits, k, Wire.rstr r)
  with
  | nbits, k, raw ->
      if nbits <= 0 || k <= 0 || k > 32 || String.length raw <> (nbits + 7) / 8 then
        Error "bloom: bad dimensions"
      else Ok { bits = Bytes.of_string raw; nbits; k }
  | exception Wire.Malformed m -> Error m
