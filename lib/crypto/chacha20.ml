let key_size = 32
let nonce_size = 12

let mask = 0xFFFFFFFF

let rotl x n = ((x lsl n) lor (x lsr (32 - n))) land mask

(* Inlined so the indices are constants; every call site passes indices
   below 16 into a 16-word array, so the accesses need no bounds check. *)
let[@inline] quarter_round x a b c d =
  Array.unsafe_set x a ((Array.unsafe_get x a + Array.unsafe_get x b) land mask);
  Array.unsafe_set x d (rotl (Array.unsafe_get x d lxor Array.unsafe_get x a) 16);
  Array.unsafe_set x c ((Array.unsafe_get x c + Array.unsafe_get x d) land mask);
  Array.unsafe_set x b (rotl (Array.unsafe_get x b lxor Array.unsafe_get x c) 12);
  Array.unsafe_set x a ((Array.unsafe_get x a + Array.unsafe_get x b) land mask);
  Array.unsafe_set x d (rotl (Array.unsafe_get x d lxor Array.unsafe_get x a) 8);
  Array.unsafe_set x c ((Array.unsafe_get x c + Array.unsafe_get x d) land mask);
  Array.unsafe_set x b (rotl (Array.unsafe_get x b lxor Array.unsafe_get x c) 7)

let le32 b off = Int32.to_int (Bytes.get_int32_le b off) land mask

(* Constants, key and nonce words; word 12, the block counter, is set
   per block. *)
let init_state ~key ~nonce =
  if Bytes.length key <> key_size then invalid_arg "Chacha20: bad key size";
  if Bytes.length nonce <> nonce_size then invalid_arg "Chacha20: bad nonce size";
  let st = Array.make 16 0 in
  (* "expand 32-byte k" *)
  st.(0) <- 0x61707865;
  st.(1) <- 0x3320646e;
  st.(2) <- 0x79622d32;
  st.(3) <- 0x6b206574;
  for i = 0 to 7 do
    st.(4 + i) <- le32 key (4 * i)
  done;
  for i = 0 to 2 do
    st.(13 + i) <- le32 nonce (4 * i)
  done;
  st

(* [x] <- the keystream words of block [st]: 20 rounds plus the
   feed-forward of [st]. *)
let keystream st x =
  Array.blit st 0 x 0 16;
  for _ = 1 to 10 do
    quarter_round x 0 4 8 12;
    quarter_round x 1 5 9 13;
    quarter_round x 2 6 10 14;
    quarter_round x 3 7 11 15;
    quarter_round x 0 5 10 15;
    quarter_round x 1 6 11 12;
    quarter_round x 2 7 8 13;
    quarter_round x 3 4 9 14
  done;
  for i = 0 to 15 do
    x.(i) <- (x.(i) + st.(i)) land mask
  done

(* RFC 8439 §2.4: the 32-bit block counter must not wrap, or the stream
   would reuse keystream (in the AEAD, block 0's one-time MAC key). *)
let check_counter counter nblocks =
  if counter < 0 || counter > mask - (max 1 nblocks - 1) then
    invalid_arg "Chacha20: block counter out of range"

let xor_into ~key ~nonce ?(counter = 1) ~src ~src_pos ~dst ~dst_pos len =
  if
    src_pos < 0 || dst_pos < 0 || len < 0
    || src_pos + len > Bytes.length src
    || dst_pos + len > Bytes.length dst
  then invalid_arg "Chacha20.xor_into: range out of bounds";
  let nblocks = (len + 63) / 64 in
  check_counter counter nblocks;
  let st = init_state ~key ~nonce and x = Array.make 16 0 in
  for b = 0 to nblocks - 1 do
    st.(12) <- counter + b;
    keystream st x;
    let off = b * 64 in
    let sp = src_pos + off and dp = dst_pos + off in
    (* Each word (byte, in the tail) is read before it is written, so
       [src] and [dst] may alias at the same offset. *)
    if len - off >= 64 then
      for i = 0 to 15 do
        Bytes.set_int32_le dst
          (dp + (4 * i))
          (Int32.logxor (Bytes.get_int32_le src (sp + (4 * i))) (Int32.of_int x.(i)))
      done
    else
      for i = 0 to len - off - 1 do
        let ks = (x.(i lsr 2) lsr (8 * (i land 3))) land 0xFF in
        Bytes.set_uint8 dst (dp + i) (Bytes.get_uint8 src (sp + i) lxor ks)
      done
  done

let encrypt ~key ~nonce ?(counter = 1) data =
  let len = Bytes.length data in
  let out = Bytes.create len in
  xor_into ~key ~nonce ~counter ~src:data ~src_pos:0 ~dst:out ~dst_pos:0 len;
  out

(* The keystream itself: one block XORed onto zeros. *)
let block ~key ~nonce ~counter = encrypt ~key ~nonce ~counter (Bytes.make 64 '\x00')

let nonce_of_round round =
  let b = Bytes.make nonce_size '\x00' in
  Bytes.set_int64_le b 4 (Int64.of_int round);
  b
