module Sim = Treaty_sim.Sim
module Enclave = Treaty_tee.Enclave

exception No_such_file of string

type stats = {
  mutable writes : int;
  mutable reads : int;
  mutable bytes_written : int;
  mutable bytes_read : int;
}

(* A file is the strings appended to it, kept as they came: an append
   stores the caller's (immutable) string without copying it, so a file
   never holds the slack or the regrowth copies of a doubling buffer. Part
   [i] starts at byte [starts.(i)]; only the first [n] slots are in use. *)
type file = {
  mutable parts : string array;
  mutable starts : int array;
  mutable n : int;
  mutable size : int;
}

(* A handle onto a device. [attach] shares the three mutable fields' values
   with another handle; [detach] gives a handle values of its own. *)
type t = {
  sim : Sim.t;
  cost : Treaty_sim.Costmodel.t;
  mutable files : (string, file) Hashtbl.t;
  mutable channel : Sim.Resource.resource;  (** Device write channel: writers queue. *)
  mutable stats : stats;
}

let fresh_stats () = { writes = 0; reads = 0; bytes_written = 0; bytes_read = 0 }

let create sim cost =
  {
    sim;
    cost;
    files = Hashtbl.create 32;
    channel = Sim.Resource.create sim ~capacity:1 "ssd";
    stats = fresh_stats ();
  }

let stats t = t.stats
let sim t = t.sim

let push f data =
  if data <> "" then begin
    if f.n = Array.length f.parts then begin
      let grow a fill =
        let b = Array.make (max 8 (2 * f.n)) fill in
        Array.blit a 0 b 0 f.n;
        b
      in
      f.parts <- grow f.parts "";
      f.starts <- grow f.starts 0
    end;
    f.parts.(f.n) <- data;
    f.starts.(f.n) <- f.size;
    f.n <- f.n + 1;
    f.size <- f.size + String.length data
  end

(* The part holding byte [off], for 0 <= off < size: binary search for the
   last part starting at or before [off]. *)
let part_at f off =
  let rec go lo hi =
    if hi - lo <= 1 then lo
    else
      let mid = (lo + hi) / 2 in
      if f.starts.(mid) <= off then go mid hi else go lo mid
  in
  go 0 f.n

(* Bytes [off, off+len) of a file, in bounds. A range inside one part is
   one [String.sub]; only a range spanning parts is assembled. *)
let sub f off len =
  if len = 0 then ""
  else begin
    let i = part_at f off in
    let skip = off - f.starts.(i) in
    if skip + len <= String.length f.parts.(i) then String.sub f.parts.(i) skip len
    else begin
      let out = Bytes.create len in
      let rec fill i skip pos =
        if pos < len then begin
          let k = min (String.length f.parts.(i) - skip) (len - pos) in
          Bytes.blit_string f.parts.(i) skip out pos k;
          fill (i + 1) 0 (pos + k)
        end
      in
      fill i skip 0;
      Bytes.unsafe_to_string out
    end
  end

let file t name =
  match Hashtbl.find_opt t.files name with
  | Some f -> f
  | None ->
      let f = { parts = [||]; starts = [||]; n = 0; size = 0 } in
      Hashtbl.replace t.files name f;
      f

let append_parts t ~enclave name parts =
  let f = file t name in
  let off = f.size in
  let len = List.fold_left (fun n p -> n + String.length p) 0 parts in
  Enclave.syscall enclave ~bytes:len ();
  Sim.Resource.consume t.channel
    (t.cost.ssd_write_base_ns
    + int_of_float (t.cost.ssd_write_per_byte_ns *. float_of_int len));
  List.iter (push f) parts;
  t.stats.writes <- t.stats.writes + 1;
  t.stats.bytes_written <- t.stats.bytes_written + len;
  off

let append t ~enclave name data = append_parts t ~enclave name [ data ]

let read t ~enclave name ~off ~len =
  match Hashtbl.find_opt t.files name with
  | None -> raise (No_such_file name)
  | Some f ->
      if off < 0 || len < 0 || off + len > f.size then
        invalid_arg (Printf.sprintf "Ssd.read: out of bounds %s" name);
      Enclave.syscall enclave ~bytes:len ();
      Enclave.compute_untrusted enclave t.cost.page_cache_read_ns;
      t.stats.reads <- t.stats.reads + 1;
      t.stats.bytes_read <- t.stats.bytes_read + len;
      sub f off len

let size t name =
  match Hashtbl.find_opt t.files name with
  | None -> 0
  | Some f -> f.size

let exists t name = Hashtbl.mem t.files name
let delete t name = Hashtbl.remove t.files name

let list_files t =
  Hashtbl.fold (fun name _ acc -> name :: acc) t.files [] |> List.sort compare

(* Parts are never mutated in place (tamper and truncate replace them), so a
   snapshot can share them; it copies only the part tables. *)
type snapshot = (string * file) list

let copy f =
  { f with parts = Array.sub f.parts 0 f.n; starts = Array.sub f.starts 0 f.n }

let snapshot t = Hashtbl.fold (fun name f acc -> (name, copy f) :: acc) t.files []

let restore t snap =
  Hashtbl.reset t.files;
  List.iter (fun (name, f) -> Hashtbl.replace t.files name (copy f)) snap

let attach t = { t with files = t.files }

let detach t =
  let files = Hashtbl.create (Hashtbl.length t.files) in
  Hashtbl.iter (fun name f -> Hashtbl.replace files name (copy f)) t.files;
  t.files <- files;
  t.channel <- Sim.Resource.create t.sim ~capacity:1 "ssd";
  t.stats <- fresh_stats ()

let tamper t name ~off =
  match Hashtbl.find_opt t.files name with
  | None -> invalid_arg "Ssd.tamper: no such file"
  | Some f ->
      if f.size > 0 then begin
        let off = off mod f.size in
        let i = part_at f off in
        let part = Bytes.of_string f.parts.(i) in
        let j = off - f.starts.(i) in
        Bytes.set part j (Char.chr (Char.code (Bytes.get part j) lxor 0x01));
        f.parts.(i) <- Bytes.unsafe_to_string part
      end

let truncate t name len =
  match Hashtbl.find_opt t.files name with
  | None -> invalid_arg "Ssd.truncate: no such file"
  | Some f ->
      if len < 0 then invalid_arg "Ssd.truncate: negative length";
      if len < f.size then begin
        let keep = if len = 0 then 0 else part_at f (len - 1) + 1 in
        if keep > 0 then
          f.parts.(keep - 1) <-
            String.sub f.parts.(keep - 1) 0 (len - f.starts.(keep - 1));
        Array.fill f.parts keep (f.n - keep) "";
        f.n <- keep;
        f.size <- len
      end
