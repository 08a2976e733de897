(* Seeded violations for the obs-zone rule: lib/obs observes the protocol,
   it never participates. The runtest rule asserts the checker flags every
   construct below. Parsed by the syntactic pass, never compiled. *)

let master = Keys.master_of_secret "secret"
let sealed = Treaty_crypto.Aead.seal
let raw_counter = Treaty_tee.Hw_counter.read ()
let wall_clock_ts = Unix.gettimeofday ()
let ambient = Random.bits ()
