module Sim = Treaty_sim.Sim
module Enclave = Treaty_tee.Enclave

exception No_such_file of string

type stats = {
  mutable writes : int;
  mutable reads : int;
  mutable bytes_written : int;
  mutable bytes_read : int;
}

type t = {
  sim : Sim.t;
  cost : Treaty_sim.Costmodel.t;
  files : (string, Buffer.t) Hashtbl.t;
  channel : Sim.Resource.resource;  (** Device write channel: writers queue. *)
  stats : stats;
}

let create sim cost =
  {
    sim;
    cost;
    files = Hashtbl.create 32;
    channel = Sim.Resource.create sim ~capacity:1 "ssd";
    stats = { writes = 0; reads = 0; bytes_written = 0; bytes_read = 0 };
  }

let stats t = t.stats
let sim t = t.sim

let file t name =
  match Hashtbl.find_opt t.files name with
  | Some b -> b
  | None ->
      let b = Buffer.create 4096 in
      Hashtbl.replace t.files name b;
      b

let append t ~enclave name data =
  let buf = file t name in
  let off = Buffer.length buf in
  Enclave.syscall enclave ~bytes:(String.length data) ();
  Sim.Resource.consume t.channel
    (t.cost.ssd_write_base_ns
    + int_of_float (t.cost.ssd_write_per_byte_ns *. float_of_int (String.length data)));
  Buffer.add_string buf data;
  t.stats.writes <- t.stats.writes + 1;
  t.stats.bytes_written <- t.stats.bytes_written + String.length data;
  off

let read t ~enclave name ~off ~len =
  match Hashtbl.find_opt t.files name with
  | None -> raise (No_such_file name)
  | Some buf ->
      if off < 0 || len < 0 || off + len > Buffer.length buf then
        invalid_arg (Printf.sprintf "Ssd.read: out of bounds %s" name);
      Enclave.syscall enclave ~bytes:len ();
      Enclave.compute_untrusted enclave t.cost.page_cache_read_ns;
      t.stats.reads <- t.stats.reads + 1;
      t.stats.bytes_read <- t.stats.bytes_read + len;
      Buffer.sub buf off len

let size t name =
  match Hashtbl.find_opt t.files name with
  | None -> 0
  | Some b -> Buffer.length b

let exists t name = Hashtbl.mem t.files name
let delete t name = Hashtbl.remove t.files name

let list_files t =
  Hashtbl.fold (fun name _ acc -> name :: acc) t.files [] |> List.sort compare

type snapshot = (string * string) list

let snapshot t =
  Hashtbl.fold (fun name buf acc -> (name, Buffer.contents buf) :: acc) t.files []

let restore t snap =
  Hashtbl.reset t.files;
  List.iter
    (fun (name, contents) ->
      let b = Buffer.create (String.length contents) in
      Buffer.add_string b contents;
      Hashtbl.replace t.files name b)
    snap

let tamper t name ~off =
  match Hashtbl.find_opt t.files name with
  | None -> invalid_arg "Ssd.tamper: no such file"
  | Some buf ->
      let contents = Bytes.of_string (Buffer.contents buf) in
      if Bytes.length contents = 0 then ()
      else begin
        let i = off mod Bytes.length contents in
        Bytes.set contents i (Char.chr (Char.code (Bytes.get contents i) lxor 0x01));
        Buffer.clear buf;
        Buffer.add_bytes buf contents
      end

let truncate t name len =
  match Hashtbl.find_opt t.files name with
  | None -> invalid_arg "Ssd.truncate: no such file"
  | Some buf ->
      let contents = Buffer.sub buf 0 (min len (Buffer.length buf)) in
      Buffer.clear buf;
      Buffer.add_string buf contents
