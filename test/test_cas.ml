(* Attestation flow: CAS bootstrap over IAS, LAS-signed node attestation,
   rejection of wrong code identities, client tokens. *)

module Sim = Treaty_sim.Sim
module Enclave = Treaty_tee.Enclave
module Net = Treaty_netsim.Net
module Erpc = Treaty_rpc.Erpc
module Cas = Treaty_cas.Cas
module Las = Treaty_cas.Las
module Ias = Treaty_cas.Ias

let code = "treaty-node-v1"

let mk_endpoint sim net ~node_id ~code_identity =
  let enclave =
    Enclave.create sim ~mode:Enclave.Scone ~cost:Treaty_sim.Costmodel.default
      ~cores:2 ~node_id ~code_identity
  in
  let pool = Treaty_memalloc.Mempool.create enclave in
  ( enclave,
    Erpc.create sim ~net ~enclave ~pool
      ~config:(Erpc.default_config ~security:Treaty_rpc.Secure_msg.Plain)
      ~node_id () )

let with_cas f =
  let sim = Sim.create () in
  let net = Net.create sim Treaty_sim.Costmodel.default in
  Sim.run sim (fun () ->
      let cas_enclave, cas_rpc = mk_endpoint sim net ~node_id:90 ~code_identity:"cas" in
      let cas =
        Cas.bootstrap ~rpc:cas_rpc ~enclave:cas_enclave ~master_secret:"secret!"
          ~expected_measurement:(Treaty_crypto.Sha256.digest_string code)
          ~config_blob:"cfg"
      in
      f sim net cas)

let attest sim net cas ~node_id ~code_identity =
  let enclave, rpc = mk_endpoint sim net ~node_id ~code_identity in
  let las = Las.deploy sim ~node_id in
  Cas.deploy_las cas las;
  let r = Cas.Attest.run ~rpc ~enclave ~las ~cas_node:90 in
  Erpc.shutdown rpc;
  r

let happy_path () =
  with_cas (fun sim net cas_r ->
      match cas_r with
      | Error `Ias_rejected -> Alcotest.fail "IAS rejected the CAS"
      | Ok cas -> (
          let t0 = Sim.now sim in
          Alcotest.(check bool) "IAS round trip took time" true (t0 >= Ias.latency_ns);
          match attest sim net cas ~node_id:1 ~code_identity:code with
          | Ok p ->
              Alcotest.(check string) "master provisioned" "secret!" p.Cas.Attest.master_secret;
              Alcotest.(check string) "config provisioned" "cfg" p.Cas.Attest.config_blob
          | Error _ -> Alcotest.fail "honest node rejected"))

let wrong_code_rejected () =
  with_cas (fun sim net cas_r ->
      match cas_r with
      | Error `Ias_rejected -> Alcotest.fail "bootstrap"
      | Ok cas -> (
          (* An attacker running modified code has a different measurement;
             the LAS signs it faithfully, the CAS must refuse. *)
          match attest sim net cas ~node_id:66 ~code_identity:"evil-code" with
          | Error `Rejected -> ()
          | Ok _ -> Alcotest.fail "wrong measurement provisioned!"
          | Error `Cas_unreachable -> Alcotest.fail "unexpected unreachable"))

let unknown_las_rejected () =
  with_cas (fun sim net cas_r ->
      match cas_r with
      | Error `Ias_rejected -> Alcotest.fail "bootstrap"
      | Ok cas -> (
          (* LAS never registered with the CAS: quotes are unverifiable. *)
          let enclave, rpc = mk_endpoint sim net ~node_id:5 ~code_identity:code in
          let rogue_las = Las.deploy sim ~node_id:5 in
          ignore cas;
          let r = Cas.Attest.run ~rpc ~enclave ~las:rogue_las ~cas_node:90 in
          Erpc.shutdown rpc;
          match r with
          | Error `Rejected -> ()
          | Ok _ -> Alcotest.fail "unregistered LAS accepted"
          | Error `Cas_unreachable -> Alcotest.fail "unexpected unreachable"))

let cas_down_blocks_attestation () =
  with_cas (fun sim net cas_r ->
      match cas_r with
      | Error `Ias_rejected -> Alcotest.fail "bootstrap"
      | Ok cas -> (
          Cas.shutdown cas;
          match attest sim net cas ~node_id:2 ~code_identity:code with
          | Error (`Cas_unreachable | `Rejected) -> ()
          | Ok _ -> Alcotest.fail "dead CAS provisioned a node"))

let client_tokens () =
  with_cas (fun _sim _net cas_r ->
      match cas_r with
      | Error `Ias_rejected -> Alcotest.fail "bootstrap"
      | Ok cas ->
          let t1 = Cas.register_client cas ~client_id:1 in
          let t1' = Cas.register_client cas ~client_id:1 in
          let t2 = Cas.register_client cas ~client_id:2 in
          Alcotest.(check string) "deterministic" t1 t1';
          Alcotest.(check bool) "distinct per client" true (t1 <> t2);
          (* The token is what the storage nodes derive themselves. *)
          Alcotest.(check string) "derivable from master" t1
            (Treaty_crypto.Keys.client_token (Cas.master cas) ~client_id:1))

let truncated_requests_rejected () =
  with_cas (fun sim net cas_r ->
      match cas_r with
      | Error `Ias_rejected -> Alcotest.fail "bootstrap"
      | Ok cas ->
          let enclave, rpc = mk_endpoint sim net ~node_id:3 ~code_identity:code in
          let las = Las.deploy sim ~node_id:3 in
          Cas.deploy_las cas las;
          (* A valid attest request, framed as Attest.run frames it. *)
          let quote = Las.quote las enclave ~report_data:"nonce" in
          let attest_req =
            let q = Buffer.create 128 in
            Treaty_util.Wire.wstr q quote.Treaty_tee.Quote.measurement;
            Treaty_util.Wire.wstr q quote.report_data;
            Treaty_util.Wire.wstr q quote.signature;
            let b = Buffer.create 160 in
            Treaty_util.Wire.w64 b 3;
            Treaty_util.Wire.wstr b (Buffer.contents q);
            Buffer.contents b
          in
          let auth_req =
            let b = Buffer.create 8 in
            Treaty_util.Wire.w64 b 7;
            Buffer.contents b
          in
          let call kind req =
            match Erpc.call rpc ~dst:90 ~kind ~timeout_ns:2_000_000_000 req with
            | Ok reply -> reply
            | Error _ -> Alcotest.fail "CAS did not answer"
          in
          List.iter
            (fun (what, kind, req) ->
              for len = 0 to String.length req - 1 do
                Alcotest.(check string)
                  (Printf.sprintf "%s prefix of %d bytes rejected" what len)
                  "" (call kind (String.sub req 0 len))
              done;
              Alcotest.(check bool) (what ^ " request itself accepted") true
                (call kind req <> ""))
            [ ("attest", Cas.kind_attest, attest_req);
              ("client-auth", Cas.kind_client_auth, auth_req) ];
          Erpc.shutdown rpc;
          match attest sim net cas ~node_id:4 ~code_identity:code with
          | Ok _ -> ()
          | Error _ -> Alcotest.fail "CAS stopped attesting after bad requests")

let suite =
  [
    Alcotest.test_case "attestation happy path" `Quick happy_path;
    Alcotest.test_case "wrong code identity rejected" `Quick wrong_code_rejected;
    Alcotest.test_case "unknown LAS rejected" `Quick unknown_las_rejected;
    Alcotest.test_case "dead CAS blocks attestation" `Quick cas_down_blocks_attestation;
    Alcotest.test_case "client tokens" `Quick client_tokens;
    Alcotest.test_case "truncated requests rejected" `Quick
      truncated_requests_rejected;
  ]
