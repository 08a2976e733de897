let max_level = 16

(* A node is one block: its payload and its forward links are stored
   unboxed, and the links point straight at the next node ([Nil] at the
   end). *)
type 'a node =
  | Nil
  | Node of {
      nkey : string;
      nseq : int;
      mutable payload : 'a;
      forward : 'a node array;
    }

type 'a t = {
  head : 'a node array;  (* the head sentinel's forward links *)
  rng : Treaty_sim.Rng.t;
  mutable level : int;
  mutable count : int;
}

let create ?(seed = 0x5EEDL) () =
  {
    head = Array.make max_level Nil;
    rng = Treaty_sim.Rng.create seed;
    level = 1;
    count = 0;
  }

let length t = t.count

(* Internal key order: key ascending, then seq DESCENDING. *)
let before ~key ~seq nkey nseq =
  let c = String.compare nkey key in
  c < 0 || (c = 0 && nseq > seq)

let random_level t =
  let rec go l = if l < max_level && Treaty_sim.Rng.int t.rng 4 = 0 then go (l + 1) else l in
  go 1

(* The forward links of the last node before [(key, seq)] in internal
   order, at level 0; with [update], also at every level. *)
let seek ?update t ~key ~seq =
  let x = ref t.head in
  for i = t.level - 1 downto 0 do
    let continue = ref true in
    while !continue do
      match !x.(i) with
      | Node n when before ~key ~seq n.nkey n.nseq -> x := n.forward
      | Node _ | Nil -> continue := false
    done;
    match update with Some u -> u.(i) <- !x | None -> ()
  done;
  !x

let insert t ~key ~seq payload =
  let update = Array.make max_level t.head in
  let pred = seek ~update t ~key ~seq in
  match pred.(0) with
  | Node n when n.nkey = key && n.nseq = seq -> n.payload <- payload
  | Node _ | Nil ->
      let lvl = random_level t in
      if lvl > t.level then begin
        for i = t.level to lvl - 1 do
          update.(i) <- t.head
        done;
        t.level <- lvl
      end;
      let forward = Array.make lvl Nil in
      let node = Node { nkey = key; nseq = seq; payload; forward } in
      for i = 0 to lvl - 1 do
        forward.(i) <- update.(i).(i);
        update.(i).(i) <- node
      done;
      t.count <- t.count + 1

let find t ~key ~max_seq =
  (* Seek to the first node with (nkey, nseq) >= (key, max_seq) in internal
     order, i.e. nkey = key with nseq <= max_seq, or nkey > key. *)
  match (seek t ~key ~seq:max_seq).(0) with
  | Node n when n.nkey = key && n.nseq <= max_seq -> Some (n.nseq, n.payload)
  | Node _ | Nil -> None

let fold t ~init ~f =
  let rec go acc = function
    | Nil -> acc
    | Node n -> go (f acc ~key:n.nkey ~seq:n.nseq n.payload) n.forward.(0)
  in
  go init t.head.(0)

let iter t f = fold t ~init:() ~f:(fun () ~key ~seq p -> f ~key ~seq p)

let fold_range t ~lo ~hi ~init ~f =
  (* Seek to the first node with key >= lo (any seq), then walk. *)
  let rec go acc = function
    | Node n when n.nkey <= hi -> go (f acc ~key:n.nkey ~seq:n.nseq n.payload) n.forward.(0)
    | Node _ | Nil -> acc
  in
  go init (seek t ~key:lo ~seq:max_int).(0)

let min_key t = match t.head.(0) with Node n -> Some n.nkey | Nil -> None

let max_key t =
  let x = ref t.head and last = ref None in
  for i = t.level - 1 downto 0 do
    let continue = ref true in
    while !continue do
      match !x.(i) with
      | Node n ->
          x := n.forward;
          last := Some n.nkey
      | Nil -> continue := false
    done
  done;
  !last
