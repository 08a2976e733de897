type master = Hmac.t

let master_of_secret secret = Hmac.create (Sha256.digest_string secret)
let derive m label = Hmac.mac m label
let network_key m = Aead.key_of_string (derive m "network")

let storage_key m ~node_id =
  Aead.key_of_string (derive m (Printf.sprintf "storage:%d" node_id))

let sealing_key m ~node_id =
  Aead.key_of_string (derive m (Printf.sprintf "seal:%d" node_id))

let client_token m ~client_id = derive m (Printf.sprintf "client:%d" client_id)

let verify_client_token m ~client_id ~token =
  Hmac.equal_tags (client_token m ~client_id) token
