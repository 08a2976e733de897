(* TreatyCheck --expect-fail fixture (lock-order).

   Two transactions acquire the same two named locks in opposite orders —
   the classic ABBA deadlock. The locks pass classifies each acquire
   by its literal ~key and must report the cycle "acct:A" -> "acct:B" ->
   "acct:A" with both acquisition sites. Swapping the acquire order in
   [txb] makes this file analyze clean. *)

module Lock_table = Treaty_core.Lock_table

let txa lt ~owner =
  ignore (Lock_table.acquire lt ~owner ~key:"acct:A" Lock_table.Write);
  ignore (Lock_table.acquire lt ~owner ~key:"acct:B" Lock_table.Write);
  Lock_table.release_all lt ~owner

let txb lt ~owner =
  ignore (Lock_table.acquire lt ~owner ~key:"acct:B" Lock_table.Write);
  ignore (Lock_table.acquire lt ~owner ~key:"acct:A" Lock_table.Write);
  Lock_table.release_all lt ~owner
