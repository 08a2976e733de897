module Enclave = Treaty_tee.Enclave
module Aead = Treaty_crypto.Aead

exception Integrity_violation of string

type t = {
  enclave : Enclave.t;
  auth : bool;
  enc : Aead.key option;
  iv_gen : Aead.Iv_gen.t;
  mac_root : Treaty_crypto.Hmac.t;
}

let create ~enclave ~auth ~enc () =
  let node = Enclave.node_id enclave in
  {
    enclave;
    auth;
    enc;
    iv_gen = Aead.Iv_gen.create ~incarnation:(Enclave.incarnation enclave) ~node_id:node;
    mac_root =
      Treaty_crypto.Hmac.create
        (Treaty_crypto.Sha256.digest_string (Printf.sprintf "log-mac-root:%d" node));
  }

let enclave t = t.enclave
let auth t = t.auth
let encrypted t = Option.is_some t.enc

let protect t data =
  match t.enc with
  | None -> data
  | Some key ->
      Enclave.charge_crypto t.enclave ~bytes:(String.length data);
      Aead.seal_packed key ~iv:(Aead.Iv_gen.next t.iv_gen) data

let protect_with t ~len write =
  match t.enc with
  | None ->
      let b = Bytes.create len in
      write b 0;
      Bytes.unsafe_to_string b
  | Some key ->
      Enclave.charge_crypto t.enclave ~bytes:len;
      Aead.seal_packed_with key ~iv:(Aead.Iv_gen.next t.iv_gen) ~len write

let unprotect t data =
  match t.enc with
  | None -> data
  | Some key -> (
      Enclave.charge_crypto t.enclave ~bytes:(String.length data);
      match Aead.open_packed key data with
      | Ok pt -> pt
      | Error (`Mac_mismatch | `Truncated) ->
          raise (Integrity_violation "encrypted payload failed authentication"))

let digest t data =
  if not t.auth then ""
  else begin
    Enclave.charge_hash t.enclave ~bytes:(String.length data);
    Treaty_crypto.Sha256.digest_string data
  end

let check_digest t ~what ~data ~expected =
  if t.auth then begin
    Enclave.charge_hash t.enclave ~bytes:(String.length data);
    if not
         (Treaty_crypto.Hmac.equal_tags
            (Treaty_crypto.Sha256.digest_string data)
            expected)
    then raise (Integrity_violation what)
  end

let mac_key t name = Treaty_crypto.Hmac.create (Treaty_crypto.Hmac.mac t.mac_root name)
