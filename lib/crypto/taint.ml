module Sanitizer = Treaty_util.Sanitizer

let ring_size = 128
let enabled = ref false
let ring : string Weak.t = Weak.create ring_size
let pos = ref 0

let clear () =
  for i = 0 to ring_size - 1 do
    Weak.set ring i None
  done;
  pos := 0

let enable () =
  clear ();
  enabled := true

let disable () =
  enabled := false;
  clear ()

(* Strings shorter than 4 bytes may be physically shared literals; tracking
   them would risk false positives without catching any real leak (every
   sealed payload is a framed message or value well above that). *)
let register pt =
  if !enabled && String.length pt >= 4 then begin
    Weak.set ring !pos (Some pt);
    pos := (!pos + 1) mod ring_size
  end

let check ~what buf =
  if !enabled then
    let rec scan i =
      if i < ring_size then
        match Weak.get ring i with
        | Some p when p == buf ->
            Weak.set ring i None;
            Sanitizer.record Sanitizer.Plaintext
              (Printf.sprintf "%s: plaintext buffer (%d bytes) crossed the enclave boundary"
                 what (String.length buf))
        | Some _ | None -> scan (i + 1)
    in
    scan 0
