type t = {
  enclave : Enclave.t;
  wear_limit : int;
  mutable value : int;
  mutable wear : int;
}

exception Worn_out

let create ?(wear_limit = 1_000_000) enclave = { enclave; wear_limit; value = 0; wear = 0 }

let increment t =
  if t.wear >= t.wear_limit then raise Worn_out;
  t.wear <- t.wear + 1;
  Treaty_sim.Sim.sleep (Enclave.sim t.enclave)
    (Enclave.cost t.enclave).sgx_hw_counter_inc_ns;
  t.value <- t.value + 1;
  t.value

let read t = t.value
