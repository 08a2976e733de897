(* Hierarchical timer wheel with a 4-ary overflow heap.

   Six levels of 32 slots each cover distances up to 32^6 ns (~1.07 s of
   simulated time) from the dispatch cursor; farther timers (long protocol
   TTLs, sweep intervals) wait in a 4-ary min-heap keyed (time, seq) and
   migrate into the wheel as the cursor approaches. Timer state lives in a
   pooled cell array threaded with intrusive doubly-linked slot lists, so
   [add] and [cancel] allocate nothing once the pool is warm, and a
   cancelled timer's cell is unlinked and reused immediately — there is no
   lazy-cancellation garbage for the dispatch path to skip over.

   Determinism contract: pop order is strictly ascending (time, seq), FIFO
   among equal timestamps, exactly like the binary heap this replaces.
   Slot lists are kept sorted by seq: direct adds append (seq is monotone),
   while cascades and heap migrations insert positionally. Two events with
   the same target time always satisfy "the one scheduled earlier sits at a
   coarser level or earlier list position": placement level is the highest
   bit-group where the time differs from the cursor, which only shrinks as
   the cursor advances — so the event still parked coarser was scheduled
   under an older cursor, i.e. strictly earlier, with a smaller seq, and
   the seq-sorted cascade insert puts it first. *)

let bits = 5
let slots = 1 lsl bits (* 32 *)
let levels = 6
let wheel_span = 1 lsl (bits * levels) (* 32^6 ns *)
let handle_bits = 28
let idx_mask = (1 lsl handle_bits) - 1
let gen_mask = (1 lsl 34) - 1

type cell = {
  mutable time : int;
  mutable seq : int;
  mutable fn : unit -> unit;
  mutable gen : int; (* bumped on free; stale handles miss *)
  mutable prev : int; (* intrusive slot list; freelist rides [next] *)
  mutable next : int;
  mutable loc : int; (* >=0: wheel slot id; -1: detached; -2: heap; -3: free *)
  mutable hpos : int; (* position in the overflow heap when loc = -2 *)
}

type handle = int

type t = {
  mutable cells : cell array;
  mutable free_head : int;
  mutable next_seq : int;
  mutable live : int;
  mutable fired_ : int;
  mutable cursor : int; (* dispatch position: no live event precedes it *)
  mutable wheel_live : int;
  mutable hot_sid : int; (* slot of the last pop: same-tick fast path *)
  slot_head : int array; (* levels*slots intrusive lists *)
  slot_tail : int array;
  occ : int array; (* per-level occupancy bitmap *)
  mutable heap : int array; (* 4-ary min-heap of cell indices *)
  mutable heap_len : int;
}


let nop () = ()

let fresh_cell next =
  { time = 0; seq = 0; fn = nop; gen = 0; prev = -1; next; loc = -3; hpos = -1 }

let create () =
  let n = 64 in
  {
    cells = Array.init n (fun i -> fresh_cell (if i = n - 1 then -1 else i + 1));
    free_head = 0;
    next_seq = 0;
    live = 0;
    fired_ = 0;
    cursor = 0;
    wheel_live = 0;
    hot_sid = -1;
    slot_head = Array.make (levels * slots) (-1);
    slot_tail = Array.make (levels * slots) (-1);
    occ = Array.make levels 0;
    heap = Array.make 16 (-1);
    heap_len = 0;
  }

let is_empty t = t.live = 0
let size t = t.live
let fired t = t.fired_
let allocated t = Array.length t.cells

(* ---- cell pool ---- *)

let alloc_cell t =
  if t.free_head = -1 then begin
    let old = t.cells in
    let n = Array.length old in
    let cells =
      Array.init (2 * n) (fun i ->
          if i < n then old.(i)
          else fresh_cell (if i = (2 * n) - 1 then -1 else i + 1))
    in
    t.cells <- cells;
    t.free_head <- n
  end;
  let idx = t.free_head in
  let c = t.cells.(idx) in
  t.free_head <- c.next;
  c.loc <- -1;
  idx

let free_cell t idx =
  let c = t.cells.(idx) in
  c.gen <- (c.gen + 1) land gen_mask;
  c.fn <- nop;
  c.loc <- -3;
  c.hpos <- -1;
  c.prev <- -1;
  c.next <- t.free_head;
  t.free_head <- idx

(* ---- wheel slot lists (seq-sorted, intrusive) ---- *)

let insert_sorted t sid idx =
  let c = t.cells.(idx) in
  c.loc <- sid;
  t.wheel_live <- t.wheel_live + 1;
  let tl = t.slot_tail.(sid) in
  if tl = -1 then begin
    t.slot_head.(sid) <- idx;
    t.slot_tail.(sid) <- idx;
    c.prev <- -1;
    c.next <- -1;
    let lvl = sid lsr bits in
    t.occ.(lvl) <- t.occ.(lvl) lor (1 lsl (sid land (slots - 1)))
  end
  else if t.cells.(tl).seq < c.seq then begin
    (* common case: direct add, monotone seq appends at the tail *)
    c.prev <- tl;
    c.next <- -1;
    t.cells.(tl).next <- idx;
    t.slot_tail.(sid) <- idx
  end
  else begin
    (* cascade/migration: walk back to the first smaller seq *)
    let p = ref tl in
    while !p <> -1 && t.cells.(!p).seq > c.seq do
      p := t.cells.(!p).prev
    done;
    if !p = -1 then begin
      let h = t.slot_head.(sid) in
      c.next <- h;
      c.prev <- -1;
      t.cells.(h).prev <- idx;
      t.slot_head.(sid) <- idx
    end
    else begin
      let n = t.cells.(!p).next in
      c.prev <- !p;
      c.next <- n;
      t.cells.(!p).next <- idx;
      t.cells.(n).prev <- idx
    end
  end

let unlink t idx =
  let c = t.cells.(idx) in
  let sid = c.loc in
  if c.prev = -1 then t.slot_head.(sid) <- c.next
  else t.cells.(c.prev).next <- c.next;
  if c.next = -1 then t.slot_tail.(sid) <- c.prev
  else t.cells.(c.next).prev <- c.prev;
  if t.slot_head.(sid) = -1 then begin
    let lvl = sid lsr bits in
    t.occ.(lvl) <- t.occ.(lvl) land lnot (1 lsl (sid land (slots - 1)))
  end;
  c.loc <- -1;
  c.prev <- -1;
  c.next <- -1;
  t.wheel_live <- t.wheel_live - 1

(* ---- overflow heap (4-ary, keyed (time, seq)) ---- *)

let hless t a b =
  let ca = t.cells.(a) and cb = t.cells.(b) in
  ca.time < cb.time || (ca.time = cb.time && ca.seq < cb.seq)

let hset t pos idx =
  t.heap.(pos) <- idx;
  t.cells.(idx).hpos <- pos

let rec heap_up t pos =
  if pos > 0 then begin
    let parent = (pos - 1) lsr 2 in
    if hless t t.heap.(pos) t.heap.(parent) then begin
      let a = t.heap.(pos) and b = t.heap.(parent) in
      hset t pos b;
      hset t parent a;
      heap_up t parent
    end
  end

let rec heap_down t pos =
  let first = (pos lsl 2) + 1 in
  if first < t.heap_len then begin
    let best = ref pos in
    let last = min (first + 3) (t.heap_len - 1) in
    for k = first to last do
      if hless t t.heap.(k) t.heap.(!best) then best := k
    done;
    if !best <> pos then begin
      let a = t.heap.(pos) and b = t.heap.(!best) in
      hset t pos b;
      hset t !best a;
      heap_down t !best
    end
  end

let heap_push t idx =
  if t.heap_len = Array.length t.heap then begin
    let h = Array.make (2 * t.heap_len) (-1) in
    Array.blit t.heap 0 h 0 t.heap_len;
    t.heap <- h
  end;
  let c = t.cells.(idx) in
  c.loc <- -2;
  hset t t.heap_len idx;
  t.heap_len <- t.heap_len + 1;
  heap_up t (t.heap_len - 1)

let heap_remove t pos =
  t.heap_len <- t.heap_len - 1;
  let idx = t.heap.(pos) in
  t.cells.(idx).hpos <- -1;
  t.cells.(idx).loc <- -1;
  if pos < t.heap_len then begin
    hset t pos t.heap.(t.heap_len);
    heap_up t pos;
    heap_down t pos
  end

(* ---- placement ---- *)

let level_of dist =
  if dist < 1 lsl bits then 0
  else if dist < 1 lsl (2 * bits) then 1
  else if dist < 1 lsl (3 * bits) then 2
  else if dist < 1 lsl (4 * bits) then 3
  else if dist < 1 lsl (5 * bits) then 4
  else 5

(* Level choice uses the highest bit-group where [time] differs from the
   cursor, not the distance. The two disagree when an interval crosses a
   rotation boundary: an event 1003 ns out sits one full level-1 rotation
   ahead when the cursor is 1019 ns into its own — distance-based placement
   would drop it into the cursor's *current* level-1 slot and the dispatch
   scan would misdate it by a rotation. With the XOR rule every entry at
   level L agrees with the cursor on all bits above L, so a slot holds
   exactly the times its position says it does, and any cursor advance
   (which stays within the same high-bit block) preserves the invariant. *)
let place t idx =
  let c = t.cells.(idx) in
  let x = c.time lxor t.cursor in
  if x >= wheel_span then heap_push t idx
  else begin
    let lvl = level_of x in
    let slot = (c.time lsr (bits * lvl)) land (slots - 1) in
    insert_sorted t ((lvl lsl bits) lor slot) idx
  end

(* ---- public api ---- *)

let add t ~time fn =
  let idx = alloc_cell t in
  let c = t.cells.(idx) in
  c.time <- time;
  c.seq <- t.next_seq;
  c.fn <- fn;
  t.next_seq <- t.next_seq + 1;
  t.live <- t.live + 1;
  place t idx;
  (c.gen lsl handle_bits) lor idx

let cancel t h =
  let idx = h land idx_mask in
  if idx >= Array.length t.cells then false
  else begin
    let c = t.cells.(idx) in
    if c.gen <> h lsr handle_bits || c.loc = -3 then false
    else begin
      if c.loc = -2 then heap_remove t c.hpos else unlink t idx;
      t.live <- t.live - 1;
      free_cell t idx;
      true
    end
  end

(* Count trailing zeros of a non-zero 32-bit occupancy bitmap: isolate the
   lowest set bit and index a de Bruijn table by the product's top five
   bits (the product fits in 58 bits, so no masking below bit 32 is
   needed before the shift). *)
let debruijn =
  [| 0; 1; 28; 2; 29; 14; 24; 3; 30; 22; 20; 15; 25; 17; 4; 8;
     31; 27; 13; 23; 21; 19; 16; 7; 26; 12; 18; 6; 11; 5; 10; 9 |]

let ctz x = debruijn.(((x land -x) * 0x077CB531) lsr 27 land 31)

(* Pull overflow timers whose distance now fits the wheel. When the wheel
   is empty the cursor may jump straight to the heap minimum: nothing can
   precede it. *)
let migrate t =
  if t.heap_len > 0 then begin
    if
      t.wheel_live = 0
      && t.cells.(t.heap.(0)).time lxor t.cursor >= wheel_span
    then t.cursor <- t.cells.(t.heap.(0)).time;
    (* The heap criterion mirrors [place]: an entry overflows iff its time
       differs from the cursor at or above the wheel's top bit. Gating on
       the heap minimum is sound: all live times are >= cursor, so if the
       minimum still differs high, every other heap entry does too. *)
    while
      t.heap_len > 0 && t.cells.(t.heap.(0)).time lxor t.cursor < wheel_span
    do
      let idx = t.heap.(0) in
      heap_remove t 0;
      place t idx
    done
  end

(* Advance the cursor to the earliest occupied slot, cascading coarse slots
   down until the next event sits in a level-0 slot. Returns that slot id.
   Ties between a level-0 slot and a coarser slot starting at the same time
   go to the coarser level first: an entry still parked coarse was scheduled
   strictly earlier than any same-time level-0 entry, so it must be cascaded
   in ahead of the pop (the seq-sorted insert puts it first).

   A lone timer skips the cascade. When the earliest slot is coarse, starts
   at or after the cursor (it is not the cursor's own, clamped slot), holds
   one entry and no finer level is occupied, nothing can precede that entry:
   finer entries would lie in the cursor's block, before the slot, and
   coarser slots start after it. The cursor moves to the entry's time and
   the slot is returned as is; cascading it would re-place the same entry
   level by level, rescanning every level at each step. Placement relative
   to the new cursor never targets that slot, so it is empty after the pop. *)
let rec find_next t =
  migrate t;
  if t.wheel_live = 0 then None
  else begin
    let best_time = ref max_int and best_lvl = ref (-1) and best_slot = ref 0 in
    let best_unclamped = ref false and finest = ref (-1) in
    for lvl = 0 to levels - 1 do
      let bm = t.occ.(lvl) in
      if bm <> 0 then begin
        if !finest < 0 then finest := lvl;
        let shift = bits * lvl in
        let cur = (t.cursor lsr shift) land (slots - 1) in
        (* parenthesized: lsl/lsr associate to the right in OCaml *)
        let base = (t.cursor lsr (shift + bits)) lsl (shift + bits) in
        (* XOR placement guarantees every occupied slot at this level sits
           at or after the cursor's slot in the current rotation, so the
           scan never wraps. The cursor's own slot is live too — cascades
           from above and same-block adds land there; its nominal start may
           lie behind the cursor, hence the clamp. Entries there agree with
           the cursor through this level's slot bits, so they re-place
           strictly below it and cascades terminate. *)
        let lo = bm land (-1 lsl cur) in
        assert (lo <> 0);
        let s = ctz lo in
        let tm = base + (s lsl shift) in
        let time = if tm < t.cursor then t.cursor else tm and slot = s in
        if time <= !best_time then begin
          best_time := time;
          best_lvl := lvl;
          best_slot := slot;
          best_unclamped := tm >= t.cursor
        end
      end
    done;
    let sid = (!best_lvl lsl bits) lor !best_slot in
    let head = t.slot_head.(sid) in
    if !best_lvl = 0 then begin
      t.cursor <- !best_time;
      Some sid
    end
    else if !best_unclamped && !finest = !best_lvl && head = t.slot_tail.(sid)
    then begin
      t.cursor <- t.cells.(head).time;
      Some sid
    end
    else begin
      t.cursor <- !best_time;
      (* cascade the whole slot down; list order is seq order *)
      while t.slot_head.(sid) <> -1 do
        let idx = t.slot_head.(sid) in
        unlink t idx;
        place t idx
      done;
      find_next t
    end
  end

let pop t =
  if t.live = 0 then None
  else begin
    let sid =
      (* same-tick fast path: the slot we last popped from only ever holds
         time == cursor entries (none after a lone coarse pop), so a
         non-empty head needs no scan *)
      if t.hot_sid >= 0 && t.slot_head.(t.hot_sid) <> -1 then Some t.hot_sid
      else find_next t
    in
    match sid with
    | None -> None
    | Some sid ->
        t.hot_sid <- sid;
        let idx = t.slot_head.(sid) in
        unlink t idx;
        let c = t.cells.(idx) in
        let time = c.time and fn = c.fn in
        t.live <- t.live - 1;
        t.fired_ <- t.fired_ + 1;
        free_cell t idx;
        Some (time, fn)
  end
