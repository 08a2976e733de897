(* Seeded violations for the cache-zone rule: the verified block cache
   holds decrypted SSTable blocks inside the enclave, so the module must
   be pure bookkeeping — any Ssd or Net reference is an escape hatch for
   plaintext. The runtest rule asserts the checker flags every construct
   below. Parsed by the syntactic pass, never compiled. *)

let spill_to_disk ssd enclave plain = Ssd.append ssd ~enclave "cache-dump" plain
let ship_over_wire net dst plain = Treaty_netsim.Net.send net ~dst plain
