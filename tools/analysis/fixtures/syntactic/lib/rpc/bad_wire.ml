(* Seeded wire-zone violations: the encode/decode hot paths of the RPC
   layer must run over byte-region cursors, never copy-and-concat. The
   runtest rule asserts the syntactic pass flags this file (non-zero exit).
   Parsed by the pass, never compiled. *)

let frame header body = header ^ body
let peel_iv wire = String.sub wire 1 12
let slice_meta wire off = Stdlib.String.sub wire off 80
