type kind =
  | Lock_leak
  | Lock_zombie
  | Lock_conflict
  | Fiber_stall
  | Plaintext
  | Snapshot_leak
  | Buf_leak
  | Buf_double_free

type event = { kind : kind; detail : string }

let kind_to_string = function
  | Lock_leak -> "lock-leak"
  | Lock_zombie -> "lock-zombie"
  | Lock_conflict -> "lock-conflict"
  | Fiber_stall -> "fiber-stall"
  | Plaintext -> "plaintext"
  | Snapshot_leak -> "snapshot-leak"
  | Buf_leak -> "buf-leak"
  | Buf_double_free -> "buf-double-free"

(* Deadlock-suspect hold-and-wait timeouts are the system's by-design
   deadlock-resolution strategy (§V-B), so they are surfaced as warnings,
   not violations. *)
let is_violation = function
  | Lock_leak | Lock_zombie | Fiber_stall | Plaintext | Snapshot_leak
  | Buf_leak | Buf_double_free ->
      true
  | Lock_conflict -> false

let max_events = 256
let events_rev : event list ref = ref []
let recorded = ref 0
let counts = Hashtbl.create 8

let reset () =
  events_rev := [];
  recorded := 0;
  Hashtbl.reset counts

let record kind detail =
  recorded := !recorded + 1;
  Hashtbl.replace counts kind
    (1 + Option.value ~default:0 (Hashtbl.find_opt counts kind));
  if List.length !events_rev < max_events then
    events_rev := { kind; detail } :: !events_rev

let events () = List.rev !events_rev
let count kind = Option.value ~default:0 (Hashtbl.find_opt counts kind)

let violations () =
  Hashtbl.fold
    (fun kind n acc -> if is_violation kind then acc + n else acc)
    counts 0

let report () =
  let shown =
    List.filter_map
      (fun e ->
        if is_violation e.kind then
          Some (Printf.sprintf "[%s] %s" (kind_to_string e.kind) e.detail)
        else None)
      (events ())
  in
  let n = violations () in
  let lines =
    if n > List.length shown then
      shown @ [ Printf.sprintf "... and %d more" (n - List.length shown) ]
    else shown
  in
  String.concat "; " lines
