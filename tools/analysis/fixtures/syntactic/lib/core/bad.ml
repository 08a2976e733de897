(* Seeded violations for the syntactic pass: the runtest rule asserts that
   the checker flags every construct below (non-zero exit). This file is
   parsed by the pass, never compiled; it sits under a lib/ path because
   the rules cover library code only. *)

let token = Hmac.mac "key" "msg"
let stream = Chacha20.encrypt
let counter = Treaty_tee.Hw_counter.read ()
let dice = Random.int 6
let wall_clock = Unix.gettimeofday ()
let cpu_clock = Sys.time ()
let bucket = Hashtbl.hash "key"
let cast : int = Obj.magic "zero"
let boom () = failwith "boom"
let unreachable () = assert false
