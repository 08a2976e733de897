(* Crypto substrate: standard test vectors plus property-based roundtrips
   and tamper detection. *)

open Treaty_crypto

let check_hex msg expected got = Alcotest.(check string) msg expected (Sha256.to_hex got)

let sha256_vectors () =
  (* FIPS 180-4 / NIST examples. *)
  check_hex "empty" "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    (Sha256.digest_string "");
  check_hex "abc" "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (Sha256.digest_string "abc");
  check_hex "448-bit"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    (Sha256.digest_string "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
  check_hex "million a's"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Sha256.digest_string (String.make 1_000_000 'a'))

let sha256_incremental () =
  (* Chunked absorption must agree with one-shot hashing at every split. *)
  let data = String.init 1000 (fun i -> Char.chr (i mod 256)) in
  let oneshot = Sha256.digest_string data in
  List.iter
    (fun split ->
      let ctx = Sha256.init () in
      Sha256.update_string ctx (String.sub data 0 split);
      Sha256.update_string ctx (String.sub data split (String.length data - split));
      Alcotest.(check string)
        (Printf.sprintf "split at %d" split)
        (Sha256.to_hex oneshot)
        (Sha256.to_hex (Sha256.finalize ctx)))
    [ 0; 1; 55; 56; 63; 64; 65; 127; 128; 500; 999; 1000 ]

let sha256_copy () =
  let ctx = Sha256.init () in
  Sha256.update_string ctx "shared prefix|";
  let ctx2 = Sha256.copy ctx in
  Sha256.update_string ctx "left";
  Sha256.update_string ctx2 "right";
  Alcotest.(check string) "copy diverges left"
    (Sha256.to_hex (Sha256.digest_string "shared prefix|left"))
    (Sha256.to_hex (Sha256.finalize ctx));
  Alcotest.(check string) "copy diverges right"
    (Sha256.to_hex (Sha256.digest_string "shared prefix|right"))
    (Sha256.to_hex (Sha256.finalize ctx2))

let hmac_vectors () =
  (* RFC 4231 test cases 1, 2 and 7 (long key). *)
  let h1 = Hmac.create (String.make 20 '\x0b') in
  check_hex "rfc4231 tc1"
    "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
    (Hmac.mac h1 "Hi There");
  let h2 = Hmac.create "Jefe" in
  check_hex "rfc4231 tc2"
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    (Hmac.mac h2 "what do ya want for nothing?");
  let h7 = Hmac.create (String.make 131 '\xaa') in
  check_hex "rfc4231 tc7 (key > block)"
    "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"
    (Hmac.mac h7
       "This is a test using a larger than block-size key and a larger than block-size data. The key needs to be hashed before being used by the HMAC algorithm.")

let hmac_parts () =
  let h = Hmac.create "key" in
  Alcotest.(check string) "mac_parts = mac of concat"
    (Sha256.to_hex (Hmac.mac h "abcdef"))
    (Sha256.to_hex (Hmac.mac_parts h [ "ab"; "cd"; "ef" ]))

let hmac_equal_tags () =
  Alcotest.(check bool) "equal" true (Hmac.equal_tags "same-tag" "same-tag");
  Alcotest.(check bool) "different" false (Hmac.equal_tags "same-tag" "SAME-tag");
  Alcotest.(check bool) "length mismatch" false (Hmac.equal_tags "a" "ab")

let chacha20_rfc_block () =
  (* RFC 8439 §2.3.2: first keystream block. *)
  let key = String.init 32 Char.chr in
  let nonce = "\x00\x00\x00\x09\x00\x00\x00\x4a\x00\x00\x00\x00" in
  let block = Chacha20.block ~key ~nonce ~counter:1 in
  Alcotest.(check string) "keystream prefix"
    "10f1e7e4d13b5915500fdd1fa32071c4"
    (Sha256.to_hex (String.sub block 0 16))

let chacha20_rfc_encrypt () =
  (* RFC 8439 §2.4.2 "Ladies and Gentlemen..." *)
  let key = String.init 32 Char.chr in
  let nonce = "\x00\x00\x00\x00\x00\x00\x00\x4a\x00\x00\x00\x00" in
  let plaintext =
    "Ladies and Gentlemen of the class of '99: If I could offer you only one tip for the future, sunscreen would be it."
  in
  let ct = Chacha20.xor ~key ~nonce ~counter:1 plaintext in
  Alcotest.(check string) "first ct bytes"
    "6e2e359a2568f98041ba0728dd0d6981"
    (Sha256.to_hex (String.sub ct 0 16));
  Alcotest.(check string) "decrypt roundtrip" plaintext
    (Chacha20.xor ~key ~nonce ~counter:1 ct)

let aead_tamper_every_byte () =
  let key = Aead.key_of_string "k" in
  let iv = String.make 12 'i' in
  let packed = Aead.seal_packed key ~iv ~aad:"hdr" "secret payload" in
  for i = 0 to String.length packed - 1 do
    let b = Bytes.of_string packed in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x80));
    match Aead.open_packed key ~aad:"hdr" (Bytes.to_string b) with
    | Error `Mac_mismatch -> ()
    | Error `Truncated -> ()
    | Ok _ -> Alcotest.failf "tampering byte %d went undetected" i
  done

let aead_wrong_aad () =
  let key = Aead.key_of_string "k" in
  let iv = String.make 12 'i' in
  let packed = Aead.seal_packed key ~iv ~aad:"aad1" "data" in
  (match Aead.open_packed key ~aad:"aad2" packed with
  | Error `Mac_mismatch -> ()
  | _ -> Alcotest.fail "wrong AAD accepted");
  match Aead.open_packed (Aead.key_of_string "other") ~aad:"aad1" packed with
  | Error `Mac_mismatch -> ()
  | _ -> Alcotest.fail "wrong key accepted"

let iv_gen_unique () =
  let g = Aead.Iv_gen.create ~incarnation:0 ~node_id:7 in
  let seen = Hashtbl.create 1000 in
  for _ = 1 to 1000 do
    let iv = Aead.Iv_gen.next g in
    Alcotest.(check int) "iv size" 12 (String.length iv);
    Alcotest.(check bool) "fresh iv" false (Hashtbl.mem seen iv);
    Hashtbl.replace seen iv ()
  done;
  let g2 = Aead.Iv_gen.create ~incarnation:0 ~node_id:8 in
  Alcotest.(check bool) "distinct nodes disjoint" false
    (Hashtbl.mem seen (Aead.Iv_gen.next g2))

let region_primitives () =
  (* The zero-copy wire path is built on in-place region variants of the
     string crypto; each must agree byte-for-byte with its string twin. *)
  let key = String.init 32 Char.chr and nonce = String.make 12 'n' in
  let pt = String.init 777 (fun i -> Char.chr (i * 7 mod 256)) in
  let b = Bytes.make 1000 '\xee' in
  Bytes.blit_string pt 0 b 100 (String.length pt);
  Chacha20.xor_into ~key ~nonce b ~off:100 ~len:(String.length pt);
  Alcotest.(check string) "xor_into = xor on the region"
    (Chacha20.xor ~key ~nonce pt)
    (Bytes.sub_string b 100 (String.length pt));
  Alcotest.(check char) "byte before region untouched" '\xee' (Bytes.get b 99);
  Alcotest.(check char) "byte after region untouched" '\xee'
    (Bytes.get b (100 + String.length pt));
  let h = Hmac.create "stream-key" in
  let s = Hmac.stream h in
  Hmac.feed_string s "ab";
  Hmac.feed_bytes s (Bytes.of_string "_cdef_") 1 4;
  Alcotest.(check string) "hmac stream = mac of concat"
    (Sha256.to_hex (Hmac.mac h "abcdef"))
    (Sha256.to_hex (Hmac.stream_mac s))

let aead_region_interverifies () =
  (* A message sealed through the region API must open through the string
     API (and vice versa): same IV transcript, same tag. *)
  let key = Aead.key_of_string "k" in
  let iv = String.make 12 'i' in
  let aad = "header" and pt = "the payload" in
  let packed = Aead.seal_packed key ~iv ~aad pt in
  (* packed = iv | ct | mac *)
  let ct_len = String.length pt in
  let mac_off = String.length aad + ct_len in
  let b = Bytes.create (mac_off + 16) in
  Bytes.blit_string aad 0 b 0 (String.length aad);
  Bytes.blit_string packed 12 b (String.length aad) ct_len;
  Aead.tag_region key ~iv b ~aad_off:0 ~aad_len:(String.length aad)
    ~ct_off:(String.length aad) ~ct_len ~mac_off;
  Alcotest.(check string) "region tag = packed tag"
    (String.sub packed (12 + ct_len) 16)
    (Bytes.sub_string b mac_off 16);
  Alcotest.(check bool) "check_region accepts" true
    (Aead.check_region key ~iv b ~aad_off:0 ~aad_len:(String.length aad)
       ~ct_off:(String.length aad) ~ct_len ~mac_off);
  Bytes.set b (mac_off + 15) (Char.chr (Char.code (Bytes.get b (mac_off + 15)) lxor 1));
  Alcotest.(check bool) "check_region rejects a flipped tag bit" false
    (Aead.check_region key ~iv b ~aad_off:0 ~aad_len:(String.length aad)
       ~ct_off:(String.length aad) ~ct_len ~mac_off);
  Aead.xor_region key ~iv b ~off:(String.length aad) ~len:ct_len;
  Alcotest.(check string) "region decrypt recovers plaintext" pt
    (Bytes.sub_string b (String.length aad) ct_len)

let iv_gen_next_into () =
  let g1 = Aead.Iv_gen.create ~incarnation:0 ~node_id:7 in
  let g2 = Aead.Iv_gen.create ~incarnation:0 ~node_id:7 in
  let b = Bytes.make 20 '\x00' in
  for i = 1 to 100 do
    let iv = Aead.Iv_gen.next g1 in
    Aead.Iv_gen.next_into g2 b 4;
    Alcotest.(check string)
      (Printf.sprintf "next_into = next (step %d)" i)
      iv
      (Bytes.sub_string b 4 12)
  done

let keys_derivation () =
  let m = Keys.master_of_secret "s" in
  Alcotest.(check bool) "labels differ" true (Keys.derive m "a" <> Keys.derive m "b");
  Alcotest.(check string) "deterministic" (Keys.derive m "a") (Keys.derive m "a");
  let m2 = Keys.master_of_secret "s2" in
  Alcotest.(check bool) "masters differ" true (Keys.derive m "a" <> Keys.derive m2 "a");
  Alcotest.(check bool) "client tokens distinct" true
    (Keys.client_token m ~client_id:1 <> Keys.client_token m ~client_id:2)

(* --- properties --- *)

let prop_aead_roundtrip =
  QCheck.Test.make ~name:"aead roundtrip" ~count:200
    QCheck.(pair (string_of_size Gen.(0 -- 2048)) small_string)
    (fun (pt, aad) ->
      let key = Aead.key_of_string "prop" in
      let iv = String.make 12 'x' in
      let packed = Aead.seal_packed key ~iv ~aad pt in
      Aead.open_packed key ~aad packed = Ok pt)

let prop_chacha_involution =
  QCheck.Test.make ~name:"chacha20 xor is an involution" ~count:200
    (QCheck.string_of_size QCheck.Gen.(0 -- 4096))
    (fun pt ->
      let key = String.make 32 'k' and nonce = String.make 12 'n' in
      Chacha20.xor ~key ~nonce (Chacha20.xor ~key ~nonce pt) = pt)

let prop_sha_distinct =
  QCheck.Test.make ~name:"sha256 distinguishes distinct inputs" ~count:200
    QCheck.(pair small_string small_string)
    (fun (a, b) -> a = b || Sha256.digest_string a <> Sha256.digest_string b)

(* --- native kernels vs the pure-OCaml oracle --- *)

let bytes_gen n = QCheck.Gen.(string_size ~gen:char (return n))

(* Counters cluster near the top of the 32-bit block counter so a long
   region wraps it back to 0 mid-stream. *)
let counter_gen =
  QCheck.Gen.(
    oneof
      [ int_bound 1000; map (fun d -> 0xffff_ffff - d) (int_bound 70); return 0xffff_ffff ])

let prop_chacha_oracle =
  let gen =
    QCheck.Gen.(
      let* key = bytes_gen 32 and* nonce = bytes_gen 12 and* counter = counter_gen in
      let* len = int_bound 4200 and* pre = int_bound 100 and* post = int_bound 100 in
      let* buf = bytes_gen (pre + len + post) in
      return (key, nonce, counter, pre, len, buf))
  in
  let print (_, _, counter, pre, len, _) =
    Printf.sprintf "counter=%#x off=%d len=%d" counter pre len
  in
  QCheck.Test.make ~name:"chacha20 kernel = oracle, region only" ~count:200
    (QCheck.make ~print gen)
    (fun (key, nonce, counter, off, len, buf) ->
      let b = Bytes.of_string buf in
      Chacha20.xor_into ~key ~nonce ~counter b ~off ~len;
      let region = Bytes.sub_string b off len in
      region = Crypto_oracle.chacha20_xor ~key ~nonce ~counter (String.sub buf off len)
      && Bytes.sub_string b 0 off = String.sub buf 0 off
      && Bytes.sub_string b (off + len) (Bytes.length b - off - len)
         = String.sub buf (off + len) (String.length buf - off - len))

let prop_sha_oracle =
  let gen =
    QCheck.Gen.(
      let* len = int_bound 4200 and* pre = int_bound 64 in
      let* msg = bytes_gen len and* cuts = list_size (int_bound 6) (int_bound len) in
      return (pre, msg, List.sort compare cuts))
  in
  let print (pre, msg, cuts) =
    Printf.sprintf "off=%d len=%d cuts=[%s]" pre (String.length msg)
      (String.concat ";" (List.map string_of_int cuts))
  in
  QCheck.Test.make ~name:"sha256 kernel = oracle at any split" ~count:200
    (QCheck.make ~print gen)
    (fun (pre, msg, cuts) ->
      (* The message sits at an offset inside a larger buffer and is fed
         in pieces cut at arbitrary points. *)
      let len = String.length msg in
      let b = Bytes.make (pre + len + 7) '\xa5' in
      Bytes.blit_string msg 0 b pre len;
      let ctx = Sha256.init () in
      let last =
        List.fold_left
          (fun from cut ->
            Sha256.update ctx b (pre + from) (cut - from);
            cut)
          0 cuts
      in
      Sha256.update ctx b (pre + last) (len - last);
      let expected = Crypto_oracle.sha256 msg in
      Sha256.finalize ctx = expected && Sha256.digest_string msg = expected)

let prop_sha_copy =
  QCheck.Test.make ~name:"sha256 copy diverges independently" ~count:200
    QCheck.(
      triple (string_of_size Gen.(0 -- 300)) (string_of_size Gen.(0 -- 300))
        (string_of_size Gen.(0 -- 300)))
    (fun (prefix, left, right) ->
      let ctx = Sha256.init () in
      Sha256.update_string ctx prefix;
      let ctx2 = Sha256.copy ctx in
      Sha256.update_string ctx left;
      Sha256.update_string ctx2 right;
      Sha256.finalize ctx = Crypto_oracle.sha256 (prefix ^ left)
      && Sha256.finalize ctx2 = Crypto_oracle.sha256 (prefix ^ right))

(* Every entry point into the kernels validates sizes and regions in OCaml:
   a bad call raises [Invalid_argument] and leaves the buffer and the hash
   state exactly as they were, i.e. it never reached C. *)
let kernel_entry_points_reject_bad_calls () =
  let key = String.make 32 'k' and nonce = String.make 12 'n' in
  let sentinel = String.init 64 (fun i -> Char.chr (i * 3)) in
  let bad_regions = [ (-1, 4); (0, -1); (60, 5); (65, 0); (1, max_int); (max_int, 1) ] in
  let rejects what f =
    let b = Bytes.of_string sentinel in
    (match f b with
    | () -> Alcotest.failf "%s: accepted" what
    | exception Invalid_argument _ -> ());
    Alcotest.(check string) (what ^ ": buffer untouched") sentinel (Bytes.to_string b)
  in
  let region_cases name f =
    List.iter
      (fun (off, len) -> rejects (Printf.sprintf "%s off=%d len=%d" name off len) (f ~off ~len))
      bad_regions
  in
  region_cases "Chacha20.xor_into" (fun ~off ~len b -> Chacha20.xor_into ~key ~nonce b ~off ~len);
  rejects "Chacha20.xor_into short key" (fun b ->
      Chacha20.xor_into ~key:(String.make 31 'k') ~nonce b ~off:0 ~len:8);
  rejects "Chacha20.xor_into long nonce" (fun b ->
      Chacha20.xor_into ~key ~nonce:(String.make 13 'n') b ~off:0 ~len:8);
  (match Chacha20.xor ~key:"short" ~nonce "msg" with
  | _ -> Alcotest.fail "Chacha20.xor accepted a short key"
  | exception Invalid_argument _ -> ());
  let ctx = Sha256.init () in
  Sha256.update_string ctx "state before";
  region_cases "Sha256.update" (fun ~off ~len b -> Sha256.update ctx b off len);
  Alcotest.(check string) "failed updates left the hash state alone"
    (Crypto_oracle.sha256 "state before")
    (Sha256.finalize ctx);
  let h = Hmac.create "k" in
  region_cases "Hmac.mac_bytes" (fun ~off ~len b -> ignore (Hmac.mac_bytes h b off len));
  let s = Hmac.stream h in
  Hmac.feed_string s "ab";
  region_cases "Hmac.feed_bytes" (fun ~off ~len b -> Hmac.feed_bytes s b off len);
  Alcotest.(check string) "failed feeds left the stream alone" (Hmac.mac h "ab")
    (Hmac.stream_mac s);
  let k = Aead.key_of_string "k" and iv = String.make 12 'i' in
  region_cases "Aead.xor_region" (fun ~off ~len b -> Aead.xor_region k ~iv b ~off ~len);
  rejects "Aead.xor_region short iv" (fun b ->
      Aead.xor_region k ~iv:"short" b ~off:0 ~len:8);
  region_cases "Aead.tag_region aad" (fun ~off ~len b ->
      Aead.tag_region k ~iv b ~aad_off:off ~aad_len:len ~ct_off:0 ~ct_len:8 ~mac_off:48);
  region_cases "Aead.tag_region ct" (fun ~off ~len b ->
      Aead.tag_region k ~iv b ~aad_off:0 ~aad_len:8 ~ct_off:off ~ct_len:len ~mac_off:48);
  List.iter
    (fun mac_off ->
      rejects (Printf.sprintf "Aead.tag_region mac_off=%d" mac_off) (fun b ->
          Aead.tag_region k ~iv b ~aad_off:0 ~aad_len:8 ~ct_off:8 ~ct_len:8 ~mac_off);
      rejects (Printf.sprintf "Aead.check_region mac_off=%d" mac_off) (fun b ->
          ignore
            (Aead.check_region k ~iv b ~aad_off:0 ~aad_len:8 ~ct_off:8 ~ct_len:8 ~mac_off)))
    [ -1; 49; max_int ];
  rejects "Aead.tag_region short iv" (fun b ->
      Aead.tag_region k ~iv:"short" b ~aad_off:0 ~aad_len:0 ~ct_off:0 ~ct_len:8 ~mac_off:48);
  region_cases "Aead.check_region" (fun ~off ~len b ->
      ignore
        (Aead.check_region k ~iv b ~aad_off:0 ~aad_len:0 ~ct_off:off ~ct_len:len ~mac_off:48));
  rejects "Aead.check_region long iv" (fun b ->
      ignore
        (Aead.check_region k ~iv:(String.make 16 'i') b ~aad_off:0 ~aad_len:0 ~ct_off:0
           ~ct_len:8 ~mac_off:48))

(* --- each SHA-256 kernel by name vs the oracle --- *)

(* [Sha256] runs the one kernel the CPU supports best; these cases run each
   kernel by name, so on a SHA-NI host the portable kernel (still the only
   one elsewhere) stays checked too. *)

let sha256_iv () =
  let b = Bytes.create 32 in
  List.iteri
    (fun i v -> Bytes.set_int32_be b (4 * i) (Int32.of_int v))
    [ 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f; 0x9b05688c;
      0x1f83d9ab; 0x5be0cd19 ];
  b

(* Digest [msg] with one [Kernel.compress] call over all of its padded
   blocks, laid out at offset [pre] of a buffer with junk on both sides. *)
let digest_with k ~pre msg =
  let len = String.length msg in
  let padded = (len + 9 + 63) / 64 * 64 in
  let b = Bytes.make (pre + padded + 5) '\xa5' in
  Bytes.blit_string msg 0 b pre len;
  Bytes.set b (pre + len) '\x80';
  Bytes.fill b (pre + len + 1) (padded - len - 9) '\000';
  Bytes.set_int64_be b (pre + padded - 8) (Int64.of_int (8 * len));
  let state = sha256_iv () in
  Sha256.Kernel.compress k ~state b pre (padded / 64);
  Bytes.to_string state

(* The oracle's compression over [nblocks] blocks of [src] from [off],
   starting from a 32-byte big-endian state. *)
let oracle_blocks state src off nblocks =
  let h = Array.init 8 (fun i -> Int32.to_int (String.get_int32_be state (4 * i)) land 0xffffffff) in
  for blk = 0 to nblocks - 1 do
    Crypto_oracle.compress h src (off + (64 * blk))
  done;
  let b = Bytes.create 32 in
  Array.iteri (fun i v -> Bytes.set_int32_be b (4 * i) (Int32.of_int v)) h;
  Bytes.to_string b

let prop_kernel_blocks k =
  let gen =
    QCheck.Gen.(
      let* state = bytes_gen 32 and* nblocks = int_bound 9 and* pre = int_bound 70 in
      let* src = bytes_gen (pre + (64 * nblocks) + 3) in
      return (state, pre, nblocks, src))
  in
  let print (_, pre, nblocks, _) = Printf.sprintf "off=%d nblocks=%d" pre nblocks in
  QCheck.Test.make
    ~name:(Sha256.Kernel.name k ^ " kernel = oracle compression")
    ~count:300 (QCheck.make ~print gen)
    (fun (state, pre, nblocks, src) ->
      let st = Bytes.of_string state in
      Sha256.Kernel.compress k ~state:st (Bytes.of_string src) pre nblocks;
      Bytes.to_string st = oracle_blocks state src pre nblocks)

let sha256_kernel_vs_oracle k () =
  let name = Sha256.Kernel.name k in
  if not (Sha256.Kernel.available k) then begin
    Printf.printf "skipped: this CPU lacks SHA-NI, SSSE3 or SSE4.1, so no %s kernel\n%!"
      name;
    Alcotest.skip ()
  end;
  (* FIPS 180-4 / NIST vectors, each as one multi-block call. *)
  List.iter
    (fun (label, msg, hex, offsets) ->
      List.iter
        (fun pre ->
          let got = digest_with k ~pre msg in
          let what = Printf.sprintf "%s: %s at offset %d" name label pre in
          check_hex what hex got;
          Alcotest.(check string) (what ^ " = oracle") (Crypto_oracle.sha256 msg) got)
        offsets)
    [ ("empty", "", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
       [ 0; 1; 63 ]);
      ("abc", "abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
       [ 0; 3; 17 ]);
      ( "448-bit",
        "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        [ 0; 5; 64 ] );
      ( "896-bit",
        "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
        "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
        [ 0; 9; 33 ] );
      ( "million a's",
        String.make 1_000_000 'a',
        "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
        [ 7 ] ) ];
  (* nblocks = 0 leaves the state alone, at any offset up to the end. *)
  let state0 = String.init 32 (fun i -> Char.chr (i * 11 land 0xff)) in
  let src = Bytes.make 100 '\x5a' in
  List.iter
    (fun off ->
      let st = Bytes.of_string state0 in
      Sha256.Kernel.compress k ~state:st src off 0;
      Alcotest.(check string) (Printf.sprintf "%s: nblocks = 0 at %d" name off) state0
        (Bytes.to_string st))
    [ 0; 1; 36; 100 ];
  (* Bad calls are refused in OCaml and leave the state alone. *)
  List.iter
    (fun (st_len, off, nblocks) ->
      let st = Bytes.of_string (String.sub (state0 ^ state0) 0 st_len) in
      (match Sha256.Kernel.compress k ~state:st src off nblocks with
      | () -> Alcotest.failf "%s: state %d off=%d nblocks=%d accepted" name st_len off nblocks
      | exception Invalid_argument _ -> ());
      Alcotest.(check string) (name ^ ": refused call left the state alone")
        (String.sub (state0 ^ state0) 0 st_len) (Bytes.to_string st))
    [ (32, -1, 1); (32, 37, 1); (32, 0, 2); (32, 101, 0); (32, 0, -1);
      (32, 0, max_int); (31, 0, 1); (33, 0, 0) ];
  QCheck.Test.check_exn ~rand:(Random.State.make [| 19 |]) (prop_kernel_blocks k)

(* --- each ChaCha20 kernel by name vs the oracle --- *)

(* [Chacha20] runs the one kernel the CPU supports best; these cases run
   each kernel by name. The AVX2 kernel makes eight blocks per iteration,
   so the lengths straddle one block (64 B) and one eight-block chunk
   (512 B), and a counter of 0xffff_fffc puts the 32-bit wrap inside one
   chunk. Every byte outside the region must stay as it was. *)
let chacha20_kernel_vs_oracle k () =
  let name = Chacha20.Kernel.name k in
  if not (Chacha20.Kernel.available k) then begin
    (* A constant message: anything [Chacha20] returns counts as secret for
       TreatyCheck's taint pass. *)
    Printf.printf "skipped: this CPU lacks AVX2 or the OS does not save the AVX state\n%!";
    Alcotest.skip ()
  end;
  let key = String.init 32 (fun i -> Char.chr ((i * 7) + 3)) in
  let nonce = String.init 12 (fun i -> Char.chr (0xa0 + i)) in
  List.iter
    (fun counter ->
      List.iter
        (fun len ->
          List.iter
            (fun off ->
              let src =
                String.init (off + len + 37) (fun i -> Char.chr ((i * 131 + 17) land 0xff))
              in
              let b = Bytes.of_string src in
              Chacha20.Kernel.xor_into k ~key ~nonce ~counter b ~off ~len;
              let what = Printf.sprintf "%s: counter=%#x off=%d len=%d" name counter off len in
              Alcotest.(check string) (what ^ " = oracle")
                (Sha256.to_hex
                   (Crypto_oracle.chacha20_xor ~key ~nonce ~counter (String.sub src off len)))
                (Sha256.to_hex (Bytes.sub_string b off len));
              Alcotest.(check string) (what ^ ": bytes before unchanged")
                (String.sub src 0 off) (Bytes.sub_string b 0 off);
              Alcotest.(check string) (what ^ ": bytes after unchanged")
                (String.sub src (off + len) 37)
                (Bytes.sub_string b (off + len) 37))
            [ 0; 1; 13; 33 ])
        [ 0; 1; 63; 64; 65; 511; 512; 513; 1000; 4096; 4124 ])
    [ 1; 0; 0xffff_fffc; 0xffff_ffff ];
  (* RFC 8439 §2.4.2, the first ciphertext bytes. *)
  let rfc_key = String.init 32 Char.chr in
  let b = Bytes.of_string (String.make 114 '\000') in
  Chacha20.Kernel.xor_into k ~key:rfc_key ~nonce:"\x00\x00\x00\x00\x00\x00\x00\x4a\x00\x00\x00\x00" b
    ~off:0 ~len:114;
  Alcotest.(check string) (name ^ ": rfc keystream block 1")
    (Sha256.to_hex (Chacha20.block ~key:rfc_key ~nonce:"\x00\x00\x00\x00\x00\x00\x00\x4a\x00\x00\x00\x00" ~counter:1))
    (Sha256.to_hex (Bytes.sub_string b 0 64));
  (* Bad calls are refused in OCaml and leave the buffer alone. *)
  List.iter
    (fun (key, nonce, off, len) ->
      let b = Bytes.make 64 'z' in
      (match Chacha20.Kernel.xor_into k ~key ~nonce b ~off ~len with
      | () -> Alcotest.failf "%s: off=%d len=%d accepted" name off len
      | exception Invalid_argument _ -> ());
      Alcotest.(check string) (name ^ ": refused call left the buffer alone")
        (String.make 64 'z') (Bytes.to_string b))
    [ (key, nonce, -1, 4); (key, nonce, 60, 5); (key, nonce, 0, max_int);
      (String.make 31 'k', nonce, 0, 8); (key, String.make 13 'n', 0, 8) ];
  QCheck.Test.check_exn ~rand:(Random.State.make [| 23 |])
    (QCheck.Test.make ~name:(name ^ " kernel = oracle, region only") ~count:200
       (QCheck.make
          ~print:(fun (_, _, counter, off, len, _) ->
            Printf.sprintf "counter=%#x off=%d len=%d" counter off len)
          QCheck.Gen.(
            let* key = bytes_gen 32 and* nonce = bytes_gen 12 and* counter = counter_gen in
            let* len = int_bound 4200 and* pre = int_bound 100 in
            let* buf = bytes_gen (pre + len + 5) in
            return (key, nonce, counter, pre, len, buf)))
       (fun (key, nonce, counter, off, len, buf) ->
         let b = Bytes.of_string buf in
         Chacha20.Kernel.xor_into k ~key ~nonce ~counter b ~off ~len;
         Bytes.to_string b
         = String.sub buf 0 off
           ^ Crypto_oracle.chacha20_xor ~key ~nonce ~counter (String.sub buf off len)
           ^ String.sub buf (off + len) 5))

(* --- the AEAD wire format, pinned --- *)

(* [seal_packed] bytes for one fixed key, IV and AAD, so a change to how
   the packed string is built cannot move the wire format: whole for the
   short ones, by SHA-256 for the long ones. *)
let aead_golden_bytes () =
  let key = Aead.key_of_string "golden-key" and iv = "0123456789ab" in
  List.iter
    (fun (n, expected) ->
      let pt = String.init n (fun i -> Char.chr ((i * 31 + 7) land 0xff)) in
      let packed = Aead.seal_packed key ~iv ~aad:"golden-aad" pt in
      Alcotest.(check int) (Printf.sprintf "%d B: size" n) (Aead.overhead + n)
        (String.length packed);
      let got =
        if n <= 1 then Sha256.to_hex packed else Sha256.to_hex (Sha256.digest_string packed)
      in
      Alcotest.(check string) (Printf.sprintf "%d B: bytes" n) expected got;
      Alcotest.(check bool) (Printf.sprintf "%d B: opens" n) true
        (Aead.open_packed key ~aad:"golden-aad" packed = Ok pt))
    [ (0, "3031323334353637383961623ed3136168dca19b9abca7af3fc9ebd0");
      (1, "303132333435363738396162701feb56c7887e824aec827b77aec0a577");
      (511, "4feddbc11557697f1296a8999091dcc1217b0487c93da1cb9c4d31e45182cb3d");
      (4096, "c0d32464527e69932bf081d420c6d15115562e00c2f42042b6ad6783935f4814") ]

let prop_seal_packed_layout =
  QCheck.Test.make ~name:"aead seal_packed = iv ^ ct ^ mac of seal" ~count:200
    QCheck.(triple (string_of_size Gen.(0 -- 2100)) small_string (string_of_size (Gen.return 12)))
    (fun (pt, aad, iv) ->
      let key = Aead.key_of_string "layout" in
      let ct, mac = Aead.seal key ~iv ~aad pt in
      Aead.seal_packed key ~iv ~aad pt = iv ^ ct ^ mac)

(* Every truncation is [`Truncated] below the overhead and [`Mac_mismatch]
   from there on; every single-byte change is [`Mac_mismatch]. *)
let aead_truncations_and_flips () =
  let key = Aead.key_of_string "k" and iv = String.make 12 'i' in
  List.iter
    (fun n ->
      let pt = String.init n (fun i -> Char.chr (i land 0xff)) in
      let packed = Aead.seal_packed key ~iv ~aad:"hdr" pt in
      for len = 0 to String.length packed - 1 do
        match Aead.open_packed key ~aad:"hdr" (String.sub packed 0 len) with
        | Error `Truncated when len < Aead.overhead -> ()
        | Error `Mac_mismatch when len >= Aead.overhead -> ()
        | Error `Truncated -> Alcotest.failf "%d B cut to %d: Truncated" n len
        | Error `Mac_mismatch -> Alcotest.failf "%d B cut to %d: Mac_mismatch" n len
        | Ok _ -> Alcotest.failf "%d B cut to %d: accepted" n len
      done;
      for i = 0 to String.length packed - 1 do
        List.iter
          (fun x ->
            let b = Bytes.of_string packed in
            Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor x));
            match Aead.open_packed key ~aad:"hdr" (Bytes.to_string b) with
            | Error `Mac_mismatch -> ()
            | Error `Truncated -> Alcotest.failf "%d B, byte %d ^ %#x: Truncated" n i x
            | Ok _ -> Alcotest.failf "%d B, byte %d ^ %#x: accepted" n i x)
          [ 0x01; 0x80; 0xff ]
      done)
    [ 0; 1; 100; 600 ]

(* Incarnation i of a node id counts from i lsl 40, so the first IVs of
   two incarnations differ only in the counter's sixth byte. *)
let iv_gen_incarnations () =
  let first inc = Aead.Iv_gen.next (Aead.Iv_gen.create ~incarnation:inc ~node_id:7) in
  Alcotest.(check string) "incarnation 0 starts at counter 1"
    "070000000100000000000000" (Sha256.to_hex (first 0));
  Alcotest.(check string) "incarnation 1 starts at 2^40 + 1"
    "070000000100000000010000" (Sha256.to_hex (first 1));
  Alcotest.(check string) "incarnation 2^22 - 1"
    "070000000100000000ffff3f" (Sha256.to_hex (first ((1 lsl 22) - 1)));
  List.iter
    (fun inc ->
      match Aead.Iv_gen.create ~incarnation:inc ~node_id:7 with
      | _ -> Alcotest.failf "incarnation %d accepted" inc
      | exception Invalid_argument _ -> ())
    [ -1; 1 lsl 22 ]

(* Region tags work in shared scratch: a one-shot MAC between a stream's
   feeds leaves the stream alone, and sealing or checking a packet region
   allocates no minor words (a tag never yields, so one scratch serves
   every key). *)
let region_tags_reuse_scratch () =
  let h = Hmac.create "scratch-key" in
  let s = Hmac.stream h in
  Hmac.feed_string s "ab";
  let between = Hmac.mac h "unrelated" in
  Hmac.feed_string s "cd";
  let t = Bytes.make 40 '.' in
  Hmac.stream_mac_into s t 4 32;
  Alcotest.(check string) "stream survives a one-shot MAC" (Hmac.mac h "abcd")
    (Bytes.sub_string t 4 32);
  Alcotest.(check string) "the one-shot MAC is right"
    (Hmac.mac (Hmac.create "scratch-key") "unrelated")
    between;
  let k = Aead.key_of_string "k" and iv = String.make 12 'i' in
  let b = Bytes.init 256 (fun i -> Char.chr (i land 0xff)) in
  let seal () =
    Aead.tag_region k ~iv b ~aad_off:0 ~aad_len:21 ~ct_off:21 ~ct_len:200 ~mac_off:221
  in
  let check () =
    Aead.check_region k ~iv b ~aad_off:0 ~aad_len:21 ~ct_off:21 ~ct_len:200 ~mac_off:221
  in
  seal ();
  let ok = ref true in
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    seal ();
    ok := !ok && check ()
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool) "every sealed region checks" true !ok;
  Alcotest.(check bool)
    (Printf.sprintf "1000 seals and checks allocate %.0f minor words" words)
    true (words < 100.)

let suite =
  [
    Alcotest.test_case "sha256 vectors" `Quick sha256_vectors;
    Alcotest.test_case "sha256 incremental" `Quick sha256_incremental;
    Alcotest.test_case "sha256 state copy" `Quick sha256_copy;
    Alcotest.test_case "hmac rfc4231 vectors" `Quick hmac_vectors;
    Alcotest.test_case "hmac parts" `Quick hmac_parts;
    Alcotest.test_case "hmac tag comparison" `Quick hmac_equal_tags;
    Alcotest.test_case "chacha20 rfc block" `Quick chacha20_rfc_block;
    Alcotest.test_case "chacha20 rfc encrypt" `Quick chacha20_rfc_encrypt;
    Alcotest.test_case "aead detects any bit flip" `Quick aead_tamper_every_byte;
    Alcotest.test_case "aead wrong aad/key" `Quick aead_wrong_aad;
    Alcotest.test_case "iv generator uniqueness" `Quick iv_gen_unique;
    Alcotest.test_case "region crypto primitives" `Quick region_primitives;
    Alcotest.test_case "aead region/string interverify" `Quick
      aead_region_interverifies;
    Alcotest.test_case "iv_gen next_into = next" `Quick iv_gen_next_into;
    Alcotest.test_case "key derivation" `Quick keys_derivation;
    Alcotest.test_case "kernel entry points reject bad calls" `Quick
      kernel_entry_points_reject_bad_calls;
    QCheck_alcotest.to_alcotest prop_aead_roundtrip;
    QCheck_alcotest.to_alcotest prop_chacha_involution;
    QCheck_alcotest.to_alcotest prop_sha_distinct;
    QCheck_alcotest.to_alcotest prop_chacha_oracle;
    QCheck_alcotest.to_alcotest prop_sha_oracle;
    QCheck_alcotest.to_alcotest prop_sha_copy;
    Alcotest.test_case "sha256 portable kernel = oracle" `Quick
      (sha256_kernel_vs_oracle Sha256.Kernel.Portable);
    Alcotest.test_case "sha256 sha-ni kernel = oracle" `Quick
      (sha256_kernel_vs_oracle Sha256.Kernel.Sha_ni);
    Alcotest.test_case "chacha20 portable kernel = oracle" `Quick
      (chacha20_kernel_vs_oracle Chacha20.Kernel.Portable);
    Alcotest.test_case "chacha20 avx2 kernel = oracle" `Quick
      (chacha20_kernel_vs_oracle Chacha20.Kernel.Avx2);
    Alcotest.test_case "aead seal_packed golden bytes" `Quick aead_golden_bytes;
    QCheck_alcotest.to_alcotest prop_seal_packed_layout;
    Alcotest.test_case "aead truncations and byte flips" `Quick
      aead_truncations_and_flips;
    Alcotest.test_case "iv generator incarnations" `Quick iv_gen_incarnations;
    Alcotest.test_case "region tags reuse scratch, allocate nothing" `Quick
      region_tags_reuse_scratch;
  ]
