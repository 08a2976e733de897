module Sim = Treaty_sim.Sim
module Costmodel = Treaty_sim.Costmodel

type mode = Native | Scone

type stats = {
  mutable syscalls : int;
  mutable transitions : int;
  mutable page_faults : int;
  mutable compute_ns : int;
  mutable crypto_ns : int;
}

type t = {
  sim : Sim.t;
  mode : mode;
  cost : Costmodel.t;
  node_id : int;
  incarnation : int;
  mutable live : bool;
  cpu : Sim.Resource.resource;
  measurement : string;
  seal_key : Treaty_crypto.Aead.key;
  iv_gen : Treaty_crypto.Aead.Iv_gen.t;
  stats : stats;
  mutable epc_used : int;
  mutable host_used : int;
  mutable master : Treaty_crypto.Keys.master option;
}

let create ?(incarnation = 0) sim ~mode ~cost ~cores ~node_id ~code_identity =
  {
    sim;
    mode;
    cost;
    node_id;
    incarnation;
    live = true;
    cpu = Sim.Resource.create sim ~capacity:cores (Printf.sprintf "cpu%d" node_id);
    measurement = Treaty_crypto.Sha256.digest_string code_identity;
    seal_key =
      Treaty_crypto.Aead.key_of_string (Printf.sprintf "fuse-key:%d" node_id);
    iv_gen = Treaty_crypto.Aead.Iv_gen.create ~incarnation ~node_id;
    stats = { syscalls = 0; transitions = 0; page_faults = 0; compute_ns = 0; crypto_ns = 0 };
    epc_used = 0;
    host_used = 0;
    master = None;
  }

let sim t = t.sim
let incarnation t = t.incarnation
let iv_gen t = t.iv_gen
let live t = t.live
let halt t = t.live <- false
let mode t = t.mode
let cost t = t.cost
let node_id t = t.node_id
let stats t = t.stats
let cpu t = t.cpu
let measurement t = t.measurement

let charge t ns =
  if ns > 0 then begin
    t.stats.compute_ns <- t.stats.compute_ns + ns;
    Sim.Resource.consume t.cpu ns
  end

let scale_cpu t ns =
  match t.mode with
  | Native -> ns
  | Scone -> int_of_float (float_of_int ns *. t.cost.scone_cpu_factor)

let compute t ns = charge t (scale_cpu t ns)

let compute_untrusted t ns = charge t ns

let compute_storage t ns =
  let ns =
    match t.mode with
    | Native -> ns
    | Scone -> int_of_float (float_of_int ns *. t.cost.scone_storage_factor)
  in
  charge t ns

let charge_engine_op ?(lsm = true) t ~bytes =
  let ns =
    t.cost.engine_op_fixed_ns
    + int_of_float (t.cost.engine_op_per_byte_ns *. float_of_int bytes)
  in
  if lsm then compute_storage t ns else compute t ns

let syscall t ?(bytes = 0) () =
  t.stats.syscalls <- t.stats.syscalls + 1;
  let ns =
    match t.mode with
    | Native -> t.cost.syscall_native_ns
    | Scone ->
        t.cost.syscall_scone_ns
        + int_of_float (t.cost.scone_copy_per_byte_ns *. float_of_int bytes)
  in
  charge t ns

let world_switch t =
  t.stats.transitions <- t.stats.transitions + 1;
  match t.mode with
  | Native -> ()
  | Scone -> charge t t.cost.enclave_transition_ns

let charge_crypto t ~bytes =
  let ns = scale_cpu t (Costmodel.crypto_cost t.cost ~bytes) in
  t.stats.crypto_ns <- t.stats.crypto_ns + ns;
  charge t ns
let charge_hash t ~bytes = compute t (Costmodel.hash_cost t.cost ~bytes)

(* EPC paging model: while the enclave working set fits in the EPC, touches
   are free. Beyond the limit, a touch of [n] bytes faults on a fraction of
   its pages equal to the overflow ratio — a smooth stand-in for LRU paging
   that preserves the qualitative cliff the paper describes. *)
let paging_charge t n =
  if t.mode = Scone && t.epc_used > t.cost.epc_limit_bytes then begin
    let overflow =
      float_of_int (t.epc_used - t.cost.epc_limit_bytes)
      /. float_of_int t.epc_used
    in
    let pages = (n + 4095) / 4096 in
    let faulting = int_of_float (ceil (float_of_int pages *. overflow)) in
    if faulting > 0 then begin
      t.stats.page_faults <- t.stats.page_faults + faulting;
      charge t (faulting * t.cost.epc_page_fault_ns)
    end
  end

let alloc_enclave t n =
  t.epc_used <- t.epc_used + n;
  paging_charge t n

let free_enclave t n = t.epc_used <- max 0 (t.epc_used - n)
let alloc_host t n = t.host_used <- t.host_used + n
let free_host t n = t.host_used <- max 0 (t.host_used - n)
let epc_used t = t.epc_used
let host_used t = t.host_used
let touch_enclave t n = paging_charge t n

let install_secrets t master = t.master <- Some master
let secrets t = t.master
let sealing_key t = t.seal_key

let seal t data =
  let iv = Treaty_crypto.Aead.Iv_gen.next t.iv_gen in
  Treaty_crypto.Aead.seal_packed t.seal_key ~iv ~aad:t.measurement data

let unseal t sealed =
  Treaty_crypto.Aead.open_packed t.seal_key ~aad:t.measurement sealed
