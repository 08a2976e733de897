exception Malformed of string

let w8 b v = Buffer.add_char b (Char.chr (v land 0xff))

let w32 b v =
  for i = 0 to 3 do
    Buffer.add_char b (Char.chr ((v lsr (8 * i)) land 0xff))
  done

let w64 b v =
  for i = 0 to 7 do
    Buffer.add_char b (Char.chr ((v lsr (8 * i)) land 0xff))
  done

let wbool b v = w8 b (if v then 1 else 0)

let wstr b s =
  w32 b (String.length s);
  Buffer.add_string b s

let wlist b f l =
  w32 b (List.length l);
  List.iter (f b) l

type reader = { s : string; mutable pos : int }

let reader ?(pos = 0) s = { s; pos }
let pos r = r.pos
let at_end r = r.pos >= String.length r.s

let need r n =
  if r.pos + n > String.length r.s then raise (Malformed "truncated input")

let r8 r =
  need r 1;
  let v = Char.code r.s.[r.pos] in
  r.pos <- r.pos + 1;
  v

let r32 r =
  need r 4;
  let v = ref 0 in
  for i = 3 downto 0 do
    v := (!v lsl 8) lor Char.code r.s.[r.pos + i]
  done;
  r.pos <- r.pos + 4;
  !v

let r64 r =
  need r 8;
  let v = ref 0 in
  for i = 7 downto 0 do
    v := (!v lsl 8) lor Char.code r.s.[r.pos + i]
  done;
  r.pos <- r.pos + 8;
  !v

let rbool r = r8 r = 1

let rbytes r n =
  if n < 0 then raise (Malformed "negative length");
  need r n;
  let s = String.sub r.s r.pos n in
  r.pos <- r.pos + n;
  s

let rstr r =
  let n = r32 r in
  rbytes r n

let expect = function Ok v -> v | Error m -> raise (Malformed m)

let rlist r f =
  let n = r32 r in
  if n < 0 || n > String.length r.s then raise (Malformed "bad list length");
  List.init n (fun _ -> f r)
