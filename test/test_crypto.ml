(* Tests for mycelium_crypto: SHA-256/HMAC/HKDF against FIPS/RFC
   vectors, ChaCha20/Poly1305/AEAD against RFC 8439 vectors, Merkle
   trees, and the RSA-style PEnc. *)

module Rng = Mycelium_util.Rng
module Hex = Mycelium_util.Hex
module Sha256 = Mycelium_crypto.Sha256
module Chacha20 = Mycelium_crypto.Chacha20
module Poly1305 = Mycelium_crypto.Poly1305
module Aead = Mycelium_crypto.Aead
module Merkle = Mycelium_crypto.Merkle
module Rsa = Mycelium_crypto.Rsa

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let check_hex name expected b = Alcotest.(check string) name expected (Hex.encode b)

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* ------------------------------------------------------------------ *)
(* SHA-256                                                             *)
(* ------------------------------------------------------------------ *)

let test_sha256_vectors () =
  check_hex "empty" "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    (Sha256.digest_string "");
  check_hex "abc" "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (Sha256.digest_string "abc");
  check_hex "two blocks"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    (Sha256.digest_string "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
  check_hex "million a"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Sha256.digest_string (String.make 1_000_000 'a'))

let test_sha256_fips_896 () =
  check_hex "896-bit two-block message"
    "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"
    (Sha256.digest_string
       "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu")

(* The byte-at-a-time compression loop the word-load one replaced,
   kept as an oracle: a one-shot digest over checked accesses. *)
module Ref_sha256 = struct
  let mask = 0xFFFFFFFF

  let k =
    [|
      0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1; 0x923f82a4;
      0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3; 0x72be5d74; 0x80deb1fe;
      0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786; 0x0fc19dc6; 0x240ca1cc; 0x2de92c6f;
      0x4a7484aa; 0x5cb0a9dc; 0x76f988da; 0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7;
      0xc6e00bf3; 0xd5a79147; 0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc;
      0x53380d13; 0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
      0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070; 0x19a4c116;
      0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a; 0x5b9cca4f; 0x682e6ff3;
      0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208; 0x90befffa; 0xa4506ceb; 0xbef9a3f7;
      0xc67178f2;
    |]

  let rotr x n = ((x lsr n) lor (x lsl (32 - n))) land mask

  let compress h w block off =
    for i = 0 to 15 do
      let j = off + (4 * i) in
      w.(i) <-
        (Bytes.get_uint8 block j lsl 24)
        lor (Bytes.get_uint8 block (j + 1) lsl 16)
        lor (Bytes.get_uint8 block (j + 2) lsl 8)
        lor Bytes.get_uint8 block (j + 3)
    done;
    for i = 16 to 63 do
      let s0 = rotr w.(i - 15) 7 lxor rotr w.(i - 15) 18 lxor (w.(i - 15) lsr 3) in
      let s1 = rotr w.(i - 2) 17 lxor rotr w.(i - 2) 19 lxor (w.(i - 2) lsr 10) in
      w.(i) <- (w.(i - 16) + s0 + w.(i - 7) + s1) land mask
    done;
    let a = ref h.(0) and b = ref h.(1) and c = ref h.(2) and d = ref h.(3) in
    let e = ref h.(4) and f = ref h.(5) and g = ref h.(6) and hh = ref h.(7) in
    for i = 0 to 63 do
      let s1 = rotr !e 6 lxor rotr !e 11 lxor rotr !e 25 in
      let ch = (!e land !f) lxor (lnot !e land !g) in
      let temp1 = (!hh + s1 + ch + k.(i) + w.(i)) land mask in
      let s0 = rotr !a 2 lxor rotr !a 13 lxor rotr !a 22 in
      let maj = (!a land !b) lxor (!a land !c) lxor (!b land !c) in
      let temp2 = (s0 + maj) land mask in
      hh := !g;
      g := !f;
      f := !e;
      e := (!d + temp1) land mask;
      d := !c;
      c := !b;
      b := !a;
      a := (temp1 + temp2) land mask
    done;
    List.iteri (fun i v -> h.(i) <- (h.(i) + v) land mask) [ !a; !b; !c; !d; !e; !f; !g; !hh ]

  let digest data =
    let len = Bytes.length data in
    let padded_len = (len + 9 + 63) / 64 * 64 in
    let m = Bytes.make padded_len '\x00' in
    Bytes.blit data 0 m 0 len;
    Bytes.set_uint8 m len 0x80;
    for i = 0 to 7 do
      Bytes.set_uint8 m (padded_len - 1 - i) (((len * 8) lsr (8 * i)) land 0xFF)
    done;
    let h =
      [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f; 0x9b05688c; 0x1f83d9ab; 0x5be0cd19 |]
    in
    let w = Array.make 64 0 in
    for blk = 0 to (padded_len / 64) - 1 do
      compress h w m (64 * blk)
    done;
    let out = Bytes.create 32 in
    Array.iteri (fun i v -> Bytes.set_int32_be out (4 * i) (Int32.of_int v)) h;
    out
end

let test_sha256_oracle () =
  let rng = Rng.create 14L in
  let lengths = List.init 301 Fun.id @ List.init 20 (fun _ -> Rng.int rng 9_001) in
  List.iter
    (fun len ->
      let data = Rng.bytes rng len in
      checkb (Printf.sprintf "random, %d bytes" len) true
        (Bytes.equal (Ref_sha256.digest data) (Sha256.digest data));
      let ff = Bytes.make len '\xff' in
      checkb (Printf.sprintf "0xff, %d bytes" len) true
        (Bytes.equal (Ref_sha256.digest ff) (Sha256.digest ff)))
    lengths;
  (* The padding boundaries, also through streaming splits: every split
     point of each message, and a split into 1-byte pieces. *)
  List.iter
    (fun len ->
      let data = Rng.bytes rng len in
      let expected = Ref_sha256.digest data in
      for split = 0 to len do
        let ctx = Sha256.init () in
        Sha256.update_sub ctx data ~pos:0 ~len:split;
        Sha256.update_sub ctx data ~pos:split ~len:(len - split);
        checkb (Printf.sprintf "%d bytes split at %d" len split) true
          (Bytes.equal expected (Sha256.finalize ctx))
      done;
      let ctx = Sha256.init () in
      for i = 0 to len - 1 do
        Sha256.update_sub ctx data ~pos:i ~len:1
      done;
      checkb (Printf.sprintf "%d bytes byte by byte" len) true
        (Bytes.equal expected (Sha256.finalize ctx)))
    [ 0; 1; 55; 56; 63; 64; 65; 119; 120; 128; 200 ]

let test_sha256_incremental () =
  (* Chunked update must agree with one-shot for many split points. *)
  let data = Bytes.of_string (String.init 1000 (fun i -> Char.chr (i mod 256))) in
  let oneshot = Sha256.digest data in
  List.iter
    (fun split ->
      let ctx = Sha256.init () in
      Sha256.update ctx (Bytes.sub data 0 split);
      Sha256.update ctx (Bytes.sub data split (1000 - split));
      checkb (Printf.sprintf "split at %d" split) true (Bytes.equal oneshot (Sha256.finalize ctx)))
    [ 0; 1; 63; 64; 65; 127; 128; 500; 999; 1000 ]

let test_sha256_double_finalize () =
  let ctx = Sha256.init () in
  ignore (Sha256.finalize ctx);
  Alcotest.check_raises "second finalize rejected"
    (Invalid_argument "Sha256.finalize: context already finalized") (fun () ->
      ignore (Sha256.finalize ctx))

let test_hmac_rfc4231 () =
  check_hex "case 1" "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
    (Sha256.hmac ~key:(Bytes.make 20 '\x0b') (Bytes.of_string "Hi There"));
  check_hex "case 2" "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    (Sha256.hmac ~key:(Bytes.of_string "Jefe") (Bytes.of_string "what do ya want for nothing?"));
  (* Case 6: key longer than a block gets hashed first. *)
  check_hex "case 6 (long key)"
    "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
    (Sha256.hmac ~key:(Bytes.make 131 '\xaa')
       (Bytes.of_string "Test Using Larger Than Block-Size Key - Hash Key First"))

let test_hkdf_rfc5869 () =
  let ikm = Bytes.make 22 '\x0b' in
  let salt = Hex.decode "000102030405060708090a0b0c" in
  let info = "\xf0\xf1\xf2\xf3\xf4\xf5\xf6\xf7\xf8\xf9" in
  check_hex "test case 1"
    "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf34007208d5b887185865"
    (Sha256.hkdf ~salt ~ikm ~info ~length:42 ())

(* ------------------------------------------------------------------ *)
(* ChaCha20 / Poly1305 / AEAD                                          *)
(* ------------------------------------------------------------------ *)

let rfc_key = Hex.decode "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"

let test_chacha20_block_vector () =
  (* RFC 8439 §2.3.2 *)
  let nonce = Hex.decode "000000090000004a00000000" in
  check_hex "keystream block"
    "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4ed2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e"
    (Chacha20.block ~key:rfc_key ~nonce ~counter:1)

let test_chacha20_encrypt_vector () =
  (* RFC 8439 §2.4.2 *)
  let nonce = Hex.decode "000000000000004a00000000" in
  let plaintext =
    "Ladies and Gentlemen of the class of '99: If I could offer you only one tip for the future, sunscreen would be it."
  in
  check_hex "ciphertext"
    "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0bf91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d807ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab77937365af90bbf74a35be6b40b8eedf2785e42874d"
    (Chacha20.encrypt ~key:rfc_key ~nonce ~counter:1 (Bytes.of_string plaintext))

let test_chacha20_roundtrip () =
  let rng = Rng.create 2L in
  let key = Rng.bytes rng 32 and nonce = Rng.bytes rng 12 in
  for _ = 1 to 20 do
    let msg = Rng.bytes rng (Rng.int rng 500) in
    let ct = Chacha20.encrypt ~key ~nonce msg in
    checkb "decrypt inverts" true (Bytes.equal msg (Chacha20.encrypt ~key ~nonce ct))
  done

let test_poly1305_vector () =
  (* RFC 8439 §2.5.2 *)
  let key = Hex.decode "85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b" in
  check_hex "tag" "a8061dc1305136c6c22b8baf0c0127a9"
    (Poly1305.mac ~key (Bytes.of_string "Cryptographic Forum Research Group"))

let test_poly1305_verify () =
  let key = Hex.decode "85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b" in
  let msg = Bytes.of_string "Cryptographic Forum Research Group" in
  let tag = Poly1305.mac ~key msg in
  checkb "valid tag accepted" true (Poly1305.verify ~key ~tag msg);
  let bad = Bytes.copy tag in
  Bytes.set_uint8 bad 0 (Bytes.get_uint8 bad 0 lxor 1);
  checkb "flipped tag rejected" false (Poly1305.verify ~key ~tag:bad msg);
  checkb "wrong length rejected" false (Poly1305.verify ~key ~tag:(Bytes.create 8) msg)

let test_aead_rfc8439 () =
  (* RFC 8439 §2.8.2 *)
  let key = Hex.decode "808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9f" in
  let nonce = Hex.decode "070000004041424344454647" in
  let aad = Hex.decode "50515253c0c1c2c3c4c5c6c7" in
  let plaintext =
    Bytes.of_string
      "Ladies and Gentlemen of the class of '99: If I could offer you only one tip for the future, sunscreen would be it."
  in
  let sealed = Aead.seal_nonce ~key ~nonce ~aad plaintext in
  let n = Bytes.length sealed in
  check_hex "tag" "1ae10b594f09e26a7e902ecbd0600691" (Bytes.sub sealed (n - 16) 16);
  check_hex "ciphertext prefix" "d31a8d34648e60db7b86afbc53ef7ec2"
    (Bytes.sub sealed 0 16);
  match Aead.open_nonce ~key ~nonce ~aad sealed with
  | Some pt -> checkb "roundtrip" true (Bytes.equal pt plaintext)
  | None -> Alcotest.fail "AEAD open failed"

let test_aead_tamper_detection () =
  let rng = Rng.create 3L in
  let key = Rng.bytes rng 32 in
  let msg = Bytes.of_string "are you ill?" in
  let sealed = Aead.seal ~key ~round:7 msg in
  (match Aead.open_ ~key ~round:7 sealed with
  | Some pt -> checkb "roundtrip" true (Bytes.equal pt msg)
  | None -> Alcotest.fail "open failed");
  (* Any bit flip must be rejected (existential unforgeability in the
     §3.5 dummy-attack discussion relies on this). *)
  for i = 0 to Bytes.length sealed - 1 do
    let bad = Bytes.copy sealed in
    Bytes.set_uint8 bad i (Bytes.get_uint8 bad i lxor 0x40);
    checkb "tampered rejected" true (Aead.open_ ~key ~round:7 bad = None)
  done;
  (* Wrong round = wrong nonce = rejection. *)
  checkb "wrong round rejected" true (Aead.open_ ~key ~round:8 sealed = None)

let prop_aead_roundtrip =
  qtest "aead seal/open roundtrip" QCheck.(pair (string_of_size (QCheck.Gen.int_range 0 300)) small_nat)
    (fun (msg, round) ->
      let key = Sha256.digest_string "fixed test key" in
      let sealed = Aead.seal ~key ~round (Bytes.of_string msg) in
      match Aead.open_ ~key ~round sealed with
      | Some pt -> Bytes.to_string pt = msg
      | None -> false)

(* Reference kernels: the original Bigint Poly1305 and per-block
   ChaCha20, kept as oracles for the native-int implementations. *)

module Ref = struct
  module Bigint = Mycelium_math.Bigint

  let p = Bigint.sub (Bigint.shift_left Bigint.one 130) (Bigint.of_int 5)
  let two_128 = Bigint.shift_left Bigint.one 128

  let le_number b off len =
    let acc = ref Bigint.zero in
    for i = len - 1 downto 0 do
      acc := Bigint.add_int (Bigint.shift_left !acc 8) (Bytes.get_uint8 b (off + i))
    done;
    !acc

  let clamp_r key =
    let r = Bytes.sub key 0 16 in
    List.iter (fun i -> Bytes.set_uint8 r i (Bytes.get_uint8 r i land 15)) [ 3; 7; 11; 15 ];
    List.iter (fun i -> Bytes.set_uint8 r i (Bytes.get_uint8 r i land 252)) [ 4; 8; 12 ];
    r

  let mac ~key msg =
    let r = le_number (clamp_r key) 0 16 and s = le_number key 16 16 in
    let len = Bytes.length msg in
    let acc = ref Bigint.zero and off = ref 0 in
    while !off < len do
      let chunk = min 16 (len - !off) in
      let n = Bigint.add (le_number msg !off chunk) (Bigint.shift_left Bigint.one (8 * chunk)) in
      acc := Bigint.erem (Bigint.mul (Bigint.add !acc n) r) p;
      off := !off + 16
    done;
    let be = Bigint.to_bytes_be (Bigint.erem (Bigint.add !acc s) two_128) in
    let nb = Bytes.length be in
    Bytes.init 16 (fun i -> if i < nb then Bytes.get be (nb - 1 - i) else '\x00')

  let mask = 0xFFFFFFFF
  let rotl x n = ((x lsl n) lor (x lsr (32 - n))) land mask

  let quarter_round st a b c d =
    st.(a) <- (st.(a) + st.(b)) land mask;
    st.(d) <- rotl (st.(d) lxor st.(a)) 16;
    st.(c) <- (st.(c) + st.(d)) land mask;
    st.(b) <- rotl (st.(b) lxor st.(c)) 12;
    st.(a) <- (st.(a) + st.(b)) land mask;
    st.(d) <- rotl (st.(d) lxor st.(a)) 8;
    st.(c) <- (st.(c) + st.(d)) land mask;
    st.(b) <- rotl (st.(b) lxor st.(c)) 7

  let le32 b off =
    Bytes.get_uint8 b off
    lor (Bytes.get_uint8 b (off + 1) lsl 8)
    lor (Bytes.get_uint8 b (off + 2) lsl 16)
    lor (Bytes.get_uint8 b (off + 3) lsl 24)

  let block ~key ~nonce ~counter =
    let st = Array.make 16 0 in
    st.(0) <- 0x61707865;
    st.(1) <- 0x3320646e;
    st.(2) <- 0x79622d32;
    st.(3) <- 0x6b206574;
    for i = 0 to 7 do
      st.(4 + i) <- le32 key (4 * i)
    done;
    st.(12) <- counter land mask;
    for i = 0 to 2 do
      st.(13 + i) <- le32 nonce (4 * i)
    done;
    let work = Array.copy st in
    for _ = 1 to 10 do
      quarter_round work 0 4 8 12;
      quarter_round work 1 5 9 13;
      quarter_round work 2 6 10 14;
      quarter_round work 3 7 11 15;
      quarter_round work 0 5 10 15;
      quarter_round work 1 6 11 12;
      quarter_round work 2 7 8 13;
      quarter_round work 3 4 9 14
    done;
    let out = Bytes.create 64 in
    for i = 0 to 15 do
      let v = (work.(i) + st.(i)) land mask in
      for j = 0 to 3 do
        Bytes.set_uint8 out ((4 * i) + j) ((v lsr (8 * j)) land 0xFF)
      done
    done;
    out

  let encrypt ~key ~nonce ?(counter = 1) data =
    let len = Bytes.length data in
    let out = Bytes.create len in
    for b = 0 to ((len + 63) / 64) - 1 do
      let ks = block ~key ~nonce ~counter:(counter + b) in
      for i = b * 64 to min len ((b + 1) * 64) - 1 do
        Bytes.set_uint8 out i (Bytes.get_uint8 data i lxor Bytes.get_uint8 ks (i - (b * 64)))
      done
    done;
    out

  let aead_seal ~key ~nonce ~aad msg =
    let ct = encrypt ~key ~nonce ~counter:1 msg in
    let pad n = Bytes.make ((16 - (n mod 16)) mod 16) '\x00' in
    let lengths = Bytes.create 16 in
    Bytes.set_int64_le lengths 0 (Int64.of_int (Bytes.length aad));
    Bytes.set_int64_le lengths 8 (Int64.of_int (Bytes.length ct));
    let otk = Bytes.sub (block ~key ~nonce ~counter:0) 0 32 in
    let input =
      Bytes.concat Bytes.empty
        [ aad; pad (Bytes.length aad); ct; pad (Bytes.length ct); lengths ]
    in
    Bytes.cat ct (mac ~key:otk input)
end

let ff n = Bytes.make n '\xff'

(* Lengths 0-300, then random lengths up to 9 KB. *)
let oracle_lengths rng = List.init 301 Fun.id @ List.init 40 (fun _ -> Rng.int rng 9_001)

let test_poly1305_oracle () =
  let rng = Rng.create 13L in
  List.iter
    (fun len ->
      let key = Rng.bytes rng 32 and msg = Rng.bytes rng len in
      let name = Printf.sprintf "random key, %d bytes" len in
      checkb name true (Bytes.equal (Ref.mac ~key msg) (Poly1305.mac ~key msg));
      let name = Printf.sprintf "0xff key and message, %d bytes" len in
      checkb name true (Bytes.equal (Ref.mac ~key:(ff 32) (ff len)) (Poly1305.mac ~key:(ff 32) (ff len))))
    (oracle_lengths rng)

let test_poly1305_known_answers () =
  (* The accumulator lands in [2^130 - 5, 2^130) before the final
     reduction, exercising the freeze. *)
  let key = Bytes.cat (Hex.decode "01") (Bytes.make 31 '\x00') in
  let block = Bytes.cat (Hex.decode "fe") (ff 15) in
  let msg = Bytes.cat block block in
  check_hex "reference, accumulator at p" "01000000000000000000000000000000" (Ref.mac ~key msg);
  check_hex "accumulator at p" "01000000000000000000000000000000" (Poly1305.mac ~key msg);
  check_hex "reference, all 0xff" "900fe32bc15fa8d7bca8efe4c7e37eb1" (Ref.mac ~key:(ff 32) (ff 64));
  check_hex "all 0xff" "900fe32bc15fa8d7bca8efe4c7e37eb1" (Poly1305.mac ~key:(ff 32) (ff 64))

let test_poly1305_streaming () =
  let rng = Rng.create 14L in
  let key = Rng.bytes rng 32 and msg = Rng.bytes rng 100 in
  let oneshot = Poly1305.mac ~key msg in
  let tag_of absorbs =
    let st = Poly1305.init ~key in
    List.iter (fun (pos, len) -> Poly1305.absorb st msg ~pos ~len) absorbs;
    let tag = Bytes.create 16 in
    Poly1305.finish st ~dst:tag ~dst_pos:0;
    tag
  in
  for split = 0 to 100 do
    checkb (Printf.sprintf "split at %d" split) true
      (Bytes.equal oneshot (tag_of [ (0, split); (split, 100 - split) ]));
    let third = (100 - split) / 2 in
    checkb (Printf.sprintf "three pieces from %d" split) true
      (Bytes.equal oneshot
         (tag_of [ (0, split); (split, third); (split + third, 100 - split - third) ]))
  done;
  let st = Poly1305.init ~key in
  Poly1305.absorb st msg ~pos:0 ~len:100;
  checkb "check accepts the tag in place" true
    (Poly1305.check st ~tag:(Bytes.cat (Bytes.create 3) oneshot) ~tag_pos:3)

let test_chacha20_oracle () =
  let rng = Rng.create 15L in
  for _ = 1 to 50 do
    let key = Rng.bytes rng 32 and nonce = Rng.bytes rng 12 in
    let counter = Rng.int rng 0x1_0000_0000 in
    checkb "block" true
      (Bytes.equal (Ref.block ~key ~nonce ~counter) (Chacha20.block ~key ~nonce ~counter))
  done;
  List.iter
    (fun len ->
      let key = Rng.bytes rng 32 and nonce = Rng.bytes rng 12 and msg = Rng.bytes rng len in
      let counter = Rng.int rng 2 in
      checkb (Printf.sprintf "encrypt, %d bytes" len) true
        (Bytes.equal (Ref.encrypt ~key ~nonce ~counter msg) (Chacha20.encrypt ~key ~nonce ~counter msg));
      checkb (Printf.sprintf "0xff key, nonce and data, %d bytes" len) true
        (Bytes.equal
           (Ref.encrypt ~key:(ff 32) ~nonce:(ff 12) (ff len))
           (Chacha20.encrypt ~key:(ff 32) ~nonce:(ff 12) (ff len))))
    (oracle_lengths rng)

let test_chacha20_xor_into_ranges () =
  let rng = Rng.create 16L in
  let key = Rng.bytes rng 32 and nonce = Rng.bytes rng 12 in
  List.iter
    (fun len ->
      for src_pos = 0 to 4 do
        for dst_pos = 0 to 4 do
          let src = Rng.bytes rng (src_pos + len + 3) in
          let expected = Ref.encrypt ~key ~nonce (Bytes.sub src src_pos len) in
          let dst = Rng.bytes rng (dst_pos + len + 2) in
          let before = Bytes.copy dst in
          Chacha20.xor_into ~key ~nonce ~src ~src_pos ~dst ~dst_pos len;
          let name = Printf.sprintf "len %d, src_pos %d, dst_pos %d" len src_pos dst_pos in
          checkb name true (Bytes.equal expected (Bytes.sub dst dst_pos len));
          checkb (name ^ ": untouched outside range") true
            (Bytes.equal (Bytes.sub before 0 dst_pos) (Bytes.sub dst 0 dst_pos)
            && Bytes.equal
                 (Bytes.sub before (dst_pos + len) 2)
                 (Bytes.sub dst (dst_pos + len) 2))
        done;
        (* src == dst at the same offset: peeling in place. *)
        let buf = Rng.bytes rng (src_pos + len) in
        let expected = Ref.encrypt ~key ~nonce (Bytes.sub buf src_pos len) in
        Chacha20.xor_into ~key ~nonce ~src:buf ~src_pos ~dst:buf ~dst_pos:src_pos len;
        checkb (Printf.sprintf "in place, len %d at %d" len src_pos) true
          (Bytes.equal expected (Bytes.sub buf src_pos len))
      done)
    [ 0; 1; 3; 63; 64; 65; 130; 1000 ]

let test_chacha20_counter_range () =
  let key = Bytes.make 32 '\x01' and nonce = Bytes.make 12 '\x02' in
  let last = 0xFFFF_FFFF in
  ignore (Chacha20.block ~key ~nonce ~counter:last);
  ignore (Chacha20.encrypt ~key ~nonce ~counter:last (Bytes.create 64));
  let raises name f =
    Alcotest.check_raises name (Invalid_argument "Chacha20: block counter out of range") (fun () ->
        ignore (f ()))
  in
  raises "second block past the counter wraps" (fun () ->
      Chacha20.encrypt ~key ~nonce ~counter:last (Bytes.create 65));
  raises "xor_into across the wrap" (fun () ->
      let b = Bytes.create 200 in
      Chacha20.xor_into ~key ~nonce ~counter:(last - 2) ~src:b ~src_pos:0 ~dst:b ~dst_pos:0 200);
  raises "block past 2^32 - 1" (fun () -> Chacha20.block ~key ~nonce ~counter:(last + 1));
  raises "negative counter" (fun () -> Chacha20.encrypt ~key ~nonce ~counter:(-1) Bytes.empty)

let test_aead_oracle () =
  let rng = Rng.create 17L in
  List.iter
    (fun len ->
      let key = Rng.bytes rng 32 and nonce = Rng.bytes rng 12 in
      let aad = Rng.bytes rng (Rng.int rng 40) and msg = Rng.bytes rng len in
      let sealed = Aead.seal_nonce ~key ~nonce ~aad msg in
      checkb (Printf.sprintf "seal, %d bytes" len) true
        (Bytes.equal (Ref.aead_seal ~key ~nonce ~aad msg) sealed);
      match Aead.open_nonce ~key ~nonce ~aad sealed with
      | Some pt -> checkb (Printf.sprintf "open, %d bytes" len) true (Bytes.equal pt msg)
      | None -> Alcotest.fail "open rejected a sealed message")
    (List.init 70 Fun.id @ [ 255; 256; 257; 4096; 8300 ])

(* ------------------------------------------------------------------ *)
(* Merkle                                                              *)
(* ------------------------------------------------------------------ *)

let leaves_of_n n = Array.init n (fun i -> Bytes.of_string (Printf.sprintf "leaf-%d" i))

let test_merkle_all_proofs_verify () =
  List.iter
    (fun n ->
      let leaves = leaves_of_n n in
      let t = Merkle.build leaves in
      checki "leaf count" n (Merkle.leaf_count t);
      for i = 0 to n - 1 do
        let proof = Merkle.prove t i in
        checkb
          (Printf.sprintf "n=%d i=%d" n i)
          true
          (Merkle.verify ~root:(Merkle.root t) ~leaf:leaves.(i) proof)
      done)
    [ 1; 2; 3; 4; 5; 7; 8; 9; 16; 33; 100 ]

let test_merkle_wrong_leaf_rejected () =
  let leaves = leaves_of_n 10 in
  let t = Merkle.build leaves in
  let proof = Merkle.prove t 3 in
  checkb "wrong leaf" false
    (Merkle.verify ~root:(Merkle.root t) ~leaf:(Bytes.of_string "forged") proof);
  (* A proof for index 3 must not verify for leaf 4's content. *)
  checkb "leaf/index mismatch" false
    (Merkle.verify ~root:(Merkle.root t) ~leaf:leaves.(4) proof)

let test_merkle_wrong_index_rejected () =
  (* The positional check: same sibling hashes, different claimed index.
     This is what lets devices audit M1 lookups (§3.3). *)
  let leaves = leaves_of_n 8 in
  let t = Merkle.build leaves in
  let proof = Merkle.prove t 3 in
  let forged = { proof with Merkle.index = 5 } in
  checkb "index tamper" false (Merkle.verify ~root:(Merkle.root t) ~leaf:leaves.(3) forged)

let test_merkle_tampered_sibling_rejected () =
  let leaves = leaves_of_n 16 in
  let t = Merkle.build leaves in
  let proof = Merkle.prove t 7 in
  let forged =
    { proof with Merkle.siblings = List.map (fun _ -> Merkle.empty_hash) proof.Merkle.siblings }
  in
  checkb "sibling tamper" false (Merkle.verify ~root:(Merkle.root t) ~leaf:leaves.(7) forged)

let test_merkle_root_depends_on_all_leaves () =
  let leaves = leaves_of_n 20 in
  let r1 = Merkle.root (Merkle.build leaves) in
  leaves.(19) <- Bytes.of_string "changed";
  let r2 = Merkle.root (Merkle.build leaves) in
  checkb "root changed" false (Bytes.equal r1 r2)

let test_merkle_depth () =
  checki "1 leaf" 0 (Merkle.depth (Merkle.build (leaves_of_n 1)));
  checki "2 leaves" 1 (Merkle.depth (Merkle.build (leaves_of_n 2)));
  checki "5 leaves" 3 (Merkle.depth (Merkle.build (leaves_of_n 5)));
  checki "8 leaves" 3 (Merkle.depth (Merkle.build (leaves_of_n 8)))

let prop_merkle_random =
  qtest "random trees verify" QCheck.(int_range 1 64) (fun n ->
      let rng = Rng.create (Int64.of_int (n * 7919)) in
      let leaves = Array.init n (fun _ -> Rng.bytes rng 24) in
      let t = Merkle.build leaves in
      let i = Rng.int rng n in
      Merkle.verify ~root:(Merkle.root t) ~leaf:leaves.(i) (Merkle.prove t i))

(* ------------------------------------------------------------------ *)
(* RSA                                                                 *)
(* ------------------------------------------------------------------ *)

let shared_keypair = lazy (Rsa.generate (Rng.create 1234L) ~bits:512)

let test_rsa_roundtrip () =
  let pk, sk = Lazy.force shared_keypair in
  let rng = Rng.create 9L in
  for _ = 1 to 10 do
    let msg = Rng.bytes rng (1 + Rng.int rng (Rsa.max_plaintext pk)) in
    match Rsa.decrypt sk (Rsa.encrypt rng pk msg) with
    | Some pt -> checkb "roundtrip" true (Bytes.equal pt msg)
    | None -> Alcotest.fail "decrypt failed"
  done

let test_rsa_randomized_padding () =
  let pk, _ = Lazy.force shared_keypair in
  let rng = Rng.create 10L in
  let msg = Bytes.of_string "symmetric key material.........." in
  let c1 = Rsa.encrypt rng pk msg and c2 = Rsa.encrypt rng pk msg in
  checkb "same message encrypts differently" false (Bytes.equal c1 c2)

let test_rsa_tamper () =
  let pk, sk = Lazy.force shared_keypair in
  let rng = Rng.create 11L in
  let ct = Rsa.encrypt rng pk (Bytes.of_string "hello") in
  let bad = Bytes.copy ct in
  Bytes.set_uint8 bad (Bytes.length bad - 1) (Bytes.get_uint8 bad (Bytes.length bad - 1) lxor 1);
  (* Either padding fails (None) or the plaintext differs. *)
  (match Rsa.decrypt sk bad with
  | None -> ()
  | Some pt -> checkb "tampered differs" false (Bytes.equal pt (Bytes.of_string "hello")));
  checkb "wrong length rejected" true (Rsa.decrypt sk (Bytes.create 7) = None)

let test_rsa_message_too_long () =
  let pk, _ = Lazy.force shared_keypair in
  let rng = Rng.create 12L in
  Alcotest.check_raises "too long" (Invalid_argument "Rsa.encrypt: message too long") (fun () ->
      ignore (Rsa.encrypt rng pk (Bytes.create (Rsa.max_plaintext pk + 1))))

let test_rsa_pub_serialization () =
  let pk, _ = Lazy.force shared_keypair in
  match Rsa.pub_of_bytes (Rsa.pub_to_bytes pk) with
  | Some pk' ->
    checkb "roundtrip" true
      (Mycelium_math.Bigint.equal pk.Rsa.n pk'.Rsa.n
      && Mycelium_math.Bigint.equal pk.Rsa.e pk'.Rsa.e);
    checkb "fingerprint stable" true (Bytes.equal (Rsa.fingerprint pk) (Rsa.fingerprint pk'))
  | None -> Alcotest.fail "deserialize failed"

let test_rsa_fingerprints_distinct () =
  let rng = Rng.create 77L in
  let pk1, _ = Rsa.generate rng ~bits:256 in
  let pk2, _ = Rsa.generate rng ~bits:256 in
  checkb "distinct keys distinct pseudonyms" false
    (Bytes.equal (Rsa.fingerprint pk1) (Rsa.fingerprint pk2))

let () =
  Alcotest.run "mycelium-crypto"
    [
      ( "sha256",
        [
          Alcotest.test_case "FIPS vectors" `Quick test_sha256_vectors;
          Alcotest.test_case "FIPS 896-bit vector" `Quick test_sha256_fips_896;
          Alcotest.test_case "word-load oracle" `Quick test_sha256_oracle;
          Alcotest.test_case "incremental" `Quick test_sha256_incremental;
          Alcotest.test_case "double finalize" `Quick test_sha256_double_finalize;
          Alcotest.test_case "HMAC RFC 4231" `Quick test_hmac_rfc4231;
          Alcotest.test_case "HKDF RFC 5869" `Quick test_hkdf_rfc5869;
        ] );
      ( "chacha20-poly1305",
        [
          Alcotest.test_case "block vector" `Quick test_chacha20_block_vector;
          Alcotest.test_case "encrypt vector" `Quick test_chacha20_encrypt_vector;
          Alcotest.test_case "roundtrip" `Quick test_chacha20_roundtrip;
          Alcotest.test_case "poly1305 vector" `Quick test_poly1305_vector;
          Alcotest.test_case "poly1305 verify" `Quick test_poly1305_verify;
          Alcotest.test_case "AEAD RFC 8439" `Quick test_aead_rfc8439;
          Alcotest.test_case "AEAD tamper detection" `Quick test_aead_tamper_detection;
          prop_aead_roundtrip;
          Alcotest.test_case "poly1305 = Bigint reference" `Quick test_poly1305_oracle;
          Alcotest.test_case "poly1305 known answers" `Quick test_poly1305_known_answers;
          Alcotest.test_case "poly1305 streaming" `Quick test_poly1305_streaming;
          Alcotest.test_case "chacha20 = per-block reference" `Quick test_chacha20_oracle;
          Alcotest.test_case "chacha20 xor_into ranges" `Quick test_chacha20_xor_into_ranges;
          Alcotest.test_case "chacha20 counter range" `Quick test_chacha20_counter_range;
          Alcotest.test_case "AEAD = reference" `Quick test_aead_oracle;
        ] );
      ( "merkle",
        [
          Alcotest.test_case "all proofs verify" `Quick test_merkle_all_proofs_verify;
          Alcotest.test_case "wrong leaf rejected" `Quick test_merkle_wrong_leaf_rejected;
          Alcotest.test_case "wrong index rejected" `Quick test_merkle_wrong_index_rejected;
          Alcotest.test_case "tampered sibling rejected" `Quick test_merkle_tampered_sibling_rejected;
          Alcotest.test_case "root depends on leaves" `Quick test_merkle_root_depends_on_all_leaves;
          Alcotest.test_case "depth" `Quick test_merkle_depth;
          prop_merkle_random;
        ] );
      ( "rsa",
        [
          Alcotest.test_case "roundtrip" `Quick test_rsa_roundtrip;
          Alcotest.test_case "randomized padding" `Quick test_rsa_randomized_padding;
          Alcotest.test_case "tamper" `Quick test_rsa_tamper;
          Alcotest.test_case "message too long" `Quick test_rsa_message_too_long;
          Alcotest.test_case "pubkey serialization" `Quick test_rsa_pub_serialization;
          Alcotest.test_case "fingerprints distinct" `Quick test_rsa_fingerprints_distinct;
        ] );
    ]
