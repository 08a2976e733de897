module Wire = Treaty_util.Wire

type t = Put of string | Delete

let encode b = function
  | Put v ->
      Wire.w8 b 1;
      Wire.wstr b v
  | Delete -> Wire.w8 b 0

let decode r =
  match
    match Wire.r8 r with
    | 1 -> Ok (Put (Wire.rstr r))
    | 0 -> Ok Delete
    | n -> Error (Printf.sprintf "bad op tag %d" n)
  with
  | v -> v
  | exception Wire.Malformed m -> Error m

let size = function Put v -> String.length v | Delete -> 0

let pp ppf = function
  | Put v -> Format.fprintf ppf "Put(%dB)" (String.length v)
  | Delete -> Format.fprintf ppf "Delete"
