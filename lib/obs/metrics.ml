module Hist = struct
  let sub_bits = 9
  let sub_count = 1 lsl sub_bits (* 512 sub-buckets per octave *)
  let unit_max = 1 lsl (sub_bits + 1) (* exact below 1024 *)

  (* Octaves msb = 10 .. 62 after the exact region. *)
  let size = unit_max + ((62 - 10 + 1) * sub_count)

  type t = {
    counts : int array;
    mutable count : int;
    mutable sum : int;
    mutable max_v : int;
  }

  let create () = { counts = Array.make size 0; count = 0; sum = 0; max_v = 0 }

  let msb v =
    let r = ref 0 and v = ref v in
    while !v > 1 do
      incr r;
      v := !v lsr 1
    done;
    !r

  let index v =
    if v < unit_max then v
    else
      let m = msb v in
      let shift = m - sub_bits in
      unit_max + ((m - 10) * sub_count) + ((v lsr shift) - sub_count)

  (* Midpoint of bucket [i] — the value reported for any sample in it. *)
  let representative i =
    if i < unit_max then i
    else
      let octave = (i - unit_max) / sub_count
      and sub = (i - unit_max) mod sub_count in
      let shift = octave + 1 in
      let low = (sub + sub_count) lsl shift in
      low + ((1 lsl shift) / 2)

  let record t v =
    let v = if v < 0 then 0 else v in
    t.counts.(index v) <- t.counts.(index v) + 1;
    t.count <- t.count + 1;
    t.sum <- t.sum + v;
    if v > t.max_v then t.max_v <- v

  let count t = t.count
  let sum t = t.sum
  let max_value t = t.max_v
  let mean t = if t.count = 0 then 0. else float_of_int t.sum /. float_of_int t.count

  let percentile t p =
    if t.count = 0 then 0
    else begin
      let rank =
        let r = int_of_float (ceil (p /. 100. *. float_of_int t.count)) in
        if r < 1 then 1 else if r > t.count then t.count else r
      in
      let i = ref 0 and cum = ref 0 and out = ref 0 in
      while !cum < rank && !i < size do
        if t.counts.(!i) > 0 then begin
          cum := !cum + t.counts.(!i);
          out := !i
        end;
        incr i
      done;
      representative !out
    end

  let merge a b =
    let t = create () in
    Array.iteri (fun i n -> t.counts.(i) <- n + b.counts.(i)) a.counts;
    t.count <- a.count + b.count;
    t.sum <- a.sum + b.sum;
    t.max_v <- max a.max_v b.max_v;
    t
end

type metric = Counter of int ref | Gauge of int ref | Histogram of Hist.t

type state = { mutable on : bool; tbl : (string, metric) Hashtbl.t }

let state = { on = false; tbl = Hashtbl.create 64 }

let enable () = state.on <- true
let disable () = state.on <- false
let reset () = Hashtbl.reset state.tbl

let kind_error name = invalid_arg ("Metrics: kind mismatch for " ^ name)

let incr ?(by = 1) name =
  if state.on then
    match Hashtbl.find_opt state.tbl name with
    | Some (Counter r) -> r := !r + by
    | Some _ -> kind_error name
    | None -> Hashtbl.replace state.tbl name (Counter (ref by))

let set_gauge name v =
  if state.on then
    match Hashtbl.find_opt state.tbl name with
    | Some (Gauge r) -> r := v
    | Some _ -> kind_error name
    | None -> Hashtbl.replace state.tbl name (Gauge (ref v))

let observe name v =
  if state.on then
    match Hashtbl.find_opt state.tbl name with
    | Some (Histogram h) -> Hist.record h v
    | Some _ -> kind_error name
    | None ->
        let h = Hist.create () in
        Hist.record h v;
        Hashtbl.replace state.tbl name (Histogram h)

let value name =
  match Hashtbl.find_opt state.tbl name with
  | Some (Counter r) | Some (Gauge r) -> !r
  | _ -> 0

let hist name =
  match Hashtbl.find_opt state.tbl name with
  | Some (Histogram h) -> Some h
  | _ -> None

let dump () =
  let names = Hashtbl.fold (fun k _ acc -> k :: acc) state.tbl [] in
  let b = Buffer.create 1024 in
  List.iter
    (fun name ->
      match Hashtbl.find state.tbl name with
      | Counter r -> Printf.bprintf b "%s %d\n" name !r
      | Gauge r -> Printf.bprintf b "%s %d\n" name !r
      | Histogram h ->
          Printf.bprintf b
            "%s count=%d sum=%d mean=%.1f p50=%d p99=%d max=%d\n" name
            (Hist.count h) (Hist.sum h) (Hist.mean h)
            (Hist.percentile h 50.) (Hist.percentile h 99.)
            (Hist.max_value h))
    (List.sort compare names);
  Buffer.contents b
