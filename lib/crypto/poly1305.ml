let tag_size = 16

(* Arithmetic mod p = 2^130 - 5 on five 26-bit limbs in native ints (the
   poly1305-donna-32 layout). Limbs of the clamped r are below 2^26 and
   s_i = 5 r_i below 2^28.4. After the carry pass at the end of each
   block, limb 1 of the accumulator is below 2^26 + 2^10 and the others
   below 2^26, so adding the next block keeps every limb below 2^27.
   Each limb product is then below 2^55.4 and a row of five below 2^58,
   well inside OCaml's 63-bit int. *)
let limb = 0x3ffffff

let le32 b off = Int32.to_int (Bytes.get_int32_le b off) land 0xffffffff

type state = {
  r0 : int;
  r1 : int;
  r2 : int;
  r3 : int;
  r4 : int;
  s1 : int;
  s2 : int;
  s3 : int;
  s4 : int;
  pad : bytes; (* s, the key's second half *)
  mutable h0 : int;
  mutable h1 : int;
  mutable h2 : int;
  mutable h3 : int;
  mutable h4 : int;
  buf : bytes; (* a partial block awaiting more input *)
  mutable buf_len : int;
}

let init ~key =
  if Bytes.length key <> 32 then invalid_arg "Poly1305.mac: bad key size";
  (* Clamping (RFC 8439 §2.5) folded into the limb masks. *)
  let r0 = le32 key 0 land 0x3ffffff
  and r1 = (le32 key 3 lsr 2) land 0x3ffff03
  and r2 = (le32 key 6 lsr 4) land 0x3ffc0ff
  and r3 = (le32 key 9 lsr 6) land 0x3f03fff
  and r4 = (le32 key 12 lsr 8) land 0x00fffff in
  {
    r0;
    r1;
    r2;
    r3;
    r4;
    s1 = r1 * 5;
    s2 = r2 * 5;
    s3 = r3 * 5;
    s4 = r4 * 5;
    pad = Bytes.sub key 16 16;
    h0 = 0;
    h1 = 0;
    h2 = 0;
    h3 = 0;
    h4 = 0;
    buf = Bytes.create 16;
    buf_len = 0;
  }

(* h <- (h + block + hibit * 2^128) * r mod p, partially reduced. *)
let block st b off hibit =
  let h0 = st.h0 + (le32 b off land limb)
  and h1 = st.h1 + ((le32 b (off + 3) lsr 2) land limb)
  and h2 = st.h2 + ((le32 b (off + 6) lsr 4) land limb)
  and h3 = st.h3 + ((le32 b (off + 9) lsr 6) land limb)
  and h4 = st.h4 + ((le32 b (off + 12) lsr 8) lor hibit) in
  let d0 = (h0 * st.r0) + (h1 * st.s4) + (h2 * st.s3) + (h3 * st.s2) + (h4 * st.s1)
  and d1 = (h0 * st.r1) + (h1 * st.r0) + (h2 * st.s4) + (h3 * st.s3) + (h4 * st.s2)
  and d2 = (h0 * st.r2) + (h1 * st.r1) + (h2 * st.r0) + (h3 * st.s4) + (h4 * st.s3)
  and d3 = (h0 * st.r3) + (h1 * st.r2) + (h2 * st.r1) + (h3 * st.r0) + (h4 * st.s4)
  and d4 = (h0 * st.r4) + (h1 * st.r3) + (h2 * st.r2) + (h3 * st.r1) + (h4 * st.r0) in
  let d1 = d1 + (d0 lsr 26) in
  let d2 = d2 + (d1 lsr 26) in
  let d3 = d3 + (d2 lsr 26) in
  let d4 = d4 + (d3 lsr 26) in
  (* 2^130 = 5 mod p: the carry out of limb 4 re-enters limb 0 times 5. *)
  let h0 = (d0 land limb) + ((d4 lsr 26) * 5) in
  st.h0 <- h0 land limb;
  st.h1 <- (d1 land limb) + (h0 lsr 26);
  st.h2 <- d2 land limb;
  st.h3 <- d3 land limb;
  st.h4 <- d4 land limb

let full_block = 1 lsl 24

let absorb st b ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    invalid_arg "Poly1305.absorb: range out of bounds";
  let pos = ref pos and len = ref len in
  if st.buf_len > 0 then begin
    let take = min (16 - st.buf_len) !len in
    Bytes.blit b !pos st.buf st.buf_len take;
    st.buf_len <- st.buf_len + take;
    pos := !pos + take;
    len := !len - take;
    if st.buf_len = 16 then begin
      block st st.buf 0 full_block;
      st.buf_len <- 0
    end
  end;
  while !len >= 16 do
    block st b !pos full_block;
    pos := !pos + 16;
    len := !len - 16
  done;
  if !len > 0 then begin
    Bytes.blit b !pos st.buf 0 !len;
    st.buf_len <- !len
  end

let finish st ~dst ~dst_pos =
  if st.buf_len > 0 then begin
    (* A short final block carries its 2^(8 len) bit inside the bytes. *)
    Bytes.set_uint8 st.buf st.buf_len 1;
    Bytes.fill st.buf (st.buf_len + 1) (15 - st.buf_len) '\x00';
    block st st.buf 0 0;
    st.buf_len <- 0
  end;
  (* Carry h fully (donna's order); h < 2p, so one conditional
     subtraction of p below reduces it. *)
  let h0 = st.h0 in
  let h2 = st.h2 + (st.h1 lsr 26) and h1 = st.h1 land limb in
  let h3 = st.h3 + (h2 lsr 26) and h2 = h2 land limb in
  let h4 = st.h4 + (h3 lsr 26) and h3 = h3 land limb in
  let h0 = h0 + ((h4 lsr 26) * 5) and h4 = h4 land limb in
  let h1 = h1 + (h0 lsr 26) and h0 = h0 land limb in
  (* Freeze: g = h + 5 - 2^130 replaces h when it is non-negative. *)
  let g0 = h0 + 5 in
  let g1 = h1 + (g0 lsr 26) and g0 = g0 land limb in
  let g2 = h2 + (g1 lsr 26) and g1 = g1 land limb in
  let g3 = h3 + (g2 lsr 26) and g2 = g2 land limb in
  let g4 = h4 + (g3 lsr 26) - (1 lsl 26) and g3 = g3 land limb in
  let keep_h = g4 asr 62 (* all ones when g is negative *) in
  let pick h g = (h land keep_h) lor (g land lnot keep_h) in
  let h0 = pick h0 g0 and h1 = pick h1 g1 and h2 = pick h2 g2 in
  let h3 = pick h3 g3 and h4 = pick h4 g4 in
  (* (h + s) mod 2^128, as four little-endian 32-bit words. *)
  let w0 = (h0 lor (h1 lsl 26)) land 0xffffffff
  and w1 = ((h1 lsr 6) lor (h2 lsl 20)) land 0xffffffff
  and w2 = ((h2 lsr 12) lor (h3 lsl 14)) land 0xffffffff
  and w3 = ((h3 lsr 18) lor (h4 lsl 8)) land 0xffffffff in
  let f0 = w0 + le32 st.pad 0 in
  let f1 = w1 + le32 st.pad 4 + (f0 lsr 32) in
  let f2 = w2 + le32 st.pad 8 + (f1 lsr 32) in
  let f3 = w3 + le32 st.pad 12 + (f2 lsr 32) in
  Bytes.set_int32_le dst dst_pos (Int32.of_int f0);
  Bytes.set_int32_le dst (dst_pos + 4) (Int32.of_int f1);
  Bytes.set_int32_le dst (dst_pos + 8) (Int32.of_int f2);
  Bytes.set_int32_le dst (dst_pos + 12) (Int32.of_int f3)

let mac ~key msg =
  let st = init ~key in
  absorb st msg ~pos:0 ~len:(Bytes.length msg);
  let out = Bytes.create tag_size in
  finish st ~dst:out ~dst_pos:0;
  out

let check st ~tag ~tag_pos =
  let expected = Bytes.create tag_size in
  finish st ~dst:expected ~dst_pos:0;
  (* Accumulate differences so timing does not depend on the first
     mismatching byte. *)
  let diff = ref 0 in
  for i = 0 to tag_size - 1 do
    diff := !diff lor (Bytes.get_uint8 expected i lxor Bytes.get_uint8 tag (tag_pos + i))
  done;
  !diff = 0

let verify ~key ~tag msg =
  Bytes.length tag = tag_size
  &&
  let st = init ~key in
  absorb st msg ~pos:0 ~len:(Bytes.length msg);
  check st ~tag ~tag_pos:0
