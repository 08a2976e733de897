type t = { id : int; src : int; dst : int; size : int; payload : string }
