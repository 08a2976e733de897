type region = Host | Enclave

type buf = {
  bytes : Bytes.t;
  mutable size : int;
  region : region;
  mutable freed : bool;
}

type stats = {
  mutable allocations : int;
  mutable recycled : int;
  mutable mapped_host : int;
  mutable mapped_enclave : int;
  mutable live : int;
}

(* Free lists indexed by size-class exponent, per region. *)
type t = {
  enclave : Treaty_tee.Enclave.t;
  host_free : buf list array;
  enclave_free : buf list array;
  stats : stats;
  sanitize : bool;
}

let max_class_exp = 26 (* up to 64 MiB *)
let min_class_exp = 6 (* 64 B *)

(* Size-class lookup sits on the per-packet hot path: a branch-free loop over
   the exponent replaces the old doubling + log2 recursion pair (which
   allocated two call chains per alloc/free). *)
let class_exp n =
  let e = ref min_class_exp in
  while 1 lsl !e < n do incr e done;
  !e

let class_size n = 1 lsl class_exp n

let create ?(sanitize = false) enclave =
  {
    enclave;
    host_free = Array.make (max_class_exp + 1) [];
    enclave_free = Array.make (max_class_exp + 1) [];
    stats = { allocations = 0; recycled = 0; mapped_host = 0; mapped_enclave = 0; live = 0 };
    sanitize;
  }

let free_lists t = function Host -> t.host_free | Enclave -> t.enclave_free

let alloc t region n =
  if n > 1 lsl max_class_exp then invalid_arg "Mempool.alloc: too large";
  let exp = class_exp n in
  let free = free_lists t region in
  t.stats.allocations <- t.stats.allocations + 1;
  t.stats.live <- t.stats.live + 1;
  match free.(exp) with
  | b :: rest ->
      free.(exp) <- rest;
      t.stats.recycled <- t.stats.recycled + 1;
      if region = Enclave then
        Treaty_tee.Enclave.touch_enclave t.enclave (Bytes.length b.bytes);
      b.freed <- false;
      b.size <- n;
      b
  | [] ->
      let c = class_size n in
      (match region with
      | Host ->
          t.stats.mapped_host <- t.stats.mapped_host + c;
          Treaty_tee.Enclave.alloc_host t.enclave c
      | Enclave ->
          t.stats.mapped_enclave <- t.stats.mapped_enclave + c;
          Treaty_tee.Enclave.alloc_enclave t.enclave c);
      { bytes = Bytes.create c; size = n; region; freed = false }

let free t b =
  if b.freed then begin
    if t.sanitize then
      Treaty_util.Sanitizer.record Treaty_util.Sanitizer.Buf_double_free
        (Printf.sprintf "mempool: double free of a %d-byte %s buffer"
           (Bytes.length b.bytes)
           (match b.region with Host -> "host" | Enclave -> "enclave"));
    invalid_arg "Mempool.free: double free"
  end;
  b.freed <- true;
  t.stats.live <- t.stats.live - 1;
  let exp = class_exp (Bytes.length b.bytes) in
  let free = free_lists t b.region in
  free.(exp) <- b :: free.(exp)

let stats t = t.stats

let leak_check t ~what =
  if t.sanitize && t.stats.live > 0 then
    Treaty_util.Sanitizer.record Treaty_util.Sanitizer.Buf_leak
      (Printf.sprintf "mempool %s: %d buffer(s) still outstanding at quiescence"
         what t.stats.live)
