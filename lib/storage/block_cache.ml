type 'a node = {
  file_id : int;
  block : int;
  value : 'a;
  vbytes : int;
  mutable prev : 'a node option;
  mutable next : 'a node option;
}

type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

type 'a t = {
  tbl : (int * int, 'a node) Hashtbl.t;
  capacity : int;
  mutable head : 'a node option;  (* most recently used *)
  mutable tail : 'a node option;  (* least recently used *)
  mutable used : int;
  stats : stats;
}

let create ~capacity_bytes =
  {
    tbl = Hashtbl.create 64;
    capacity = max 0 capacity_bytes;
    head = None;
    tail = None;
    used = 0;
    stats = { hits = 0; misses = 0; evictions = 0 };
  }

let stats t = t.stats
let used_bytes t = t.used
let capacity_bytes t = t.capacity
let entries t = Hashtbl.length t.tbl

(* Recency lives in an explicit doubly-linked list: eviction and
   invalidation orders are fixed by the access sequence alone, never by
   [Hashtbl] internals. *)
let unlink t n =
  (match n.prev with Some p -> p.next <- n.next | None -> t.head <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> t.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.next <- t.head;
  n.prev <- None;
  (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
  t.head <- Some n

let remove_node t n =
  unlink t n;
  Hashtbl.remove t.tbl (n.file_id, n.block);
  t.used <- t.used - n.vbytes

let find t ~file_id ~block =
  match Hashtbl.find_opt t.tbl (file_id, block) with
  | Some n ->
      t.stats.hits <- t.stats.hits + 1;
      unlink t n;
      push_front t n;
      Some n.value
  | None ->
      t.stats.misses <- t.stats.misses + 1;
      None

(* Evict from the LRU tail until [extra] more bytes fit; returns the bytes
   freed (the caller releases the matching enclave allocation). *)
let make_room t extra =
  let freed = ref 0 in
  while t.used + extra > t.capacity && t.tail <> None do
    match t.tail with
    | Some n ->
        freed := !freed + n.vbytes;
        t.stats.evictions <- t.stats.evictions + 1;
        remove_node t n
    | None -> ()
  done;
  !freed

let insert t ~file_id ~block ~bytes value =
  if bytes > t.capacity then 0 (* would evict everything and still not fit *)
  else begin
    let freed =
      match Hashtbl.find_opt t.tbl (file_id, block) with
      | Some old ->
          remove_node t old;
          old.vbytes
      | None -> 0
    in
    let freed = freed + make_room t bytes in
    let n = { file_id; block; value; vbytes = bytes; prev = None; next = None } in
    Hashtbl.replace t.tbl (file_id, block) n;
    push_front t n;
    t.used <- t.used + bytes;
    freed
  end

let invalidate_file t ~file_id =
  (* Walk the recency list (deterministic order), not the Hashtbl. *)
  let freed = ref 0 in
  let rec go = function
    | None -> ()
    | Some n ->
        let next = n.next in
        if n.file_id = file_id then begin
          freed := !freed + n.vbytes;
          remove_node t n
        end;
        go next
  in
  go t.head;
  !freed
