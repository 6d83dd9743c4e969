let key_size = 32
let overhead = Poly1305.tag_size

let zeros = Bytes.make 16 '\x00'

let one_time_key ~key ~nonce = Bytes.sub (Chacha20.block ~key ~nonce ~counter:0) 0 32

(* The MAC input aad || pad16 || ct || pad16 || le64 |aad| || le64 |ct|
   (RFC 8439 §2.8), streamed without building it; [ct] is the first
   [ct_len] bytes of [buf]. *)
let mac_state ~key ~nonce ~aad buf ct_len =
  let st = Poly1305.init ~key:(one_time_key ~key ~nonce) in
  let absorb_padded b len =
    Poly1305.absorb st b ~pos:0 ~len;
    Poly1305.absorb st zeros ~pos:0 ~len:((16 - (len mod 16)) mod 16)
  in
  absorb_padded aad (Bytes.length aad);
  absorb_padded buf ct_len;
  let lengths = Bytes.create 16 in
  Bytes.set_int64_le lengths 0 (Int64.of_int (Bytes.length aad));
  Bytes.set_int64_le lengths 8 (Int64.of_int ct_len);
  Poly1305.absorb st lengths ~pos:0 ~len:16;
  st

let seal_nonce ~key ~nonce ?(aad = Bytes.empty) msg =
  let len = Bytes.length msg in
  let out = Bytes.create (len + overhead) in
  Chacha20.xor_into ~key ~nonce ~counter:1 ~src:msg ~src_pos:0 ~dst:out ~dst_pos:0 len;
  Poly1305.finish (mac_state ~key ~nonce ~aad out len) ~dst:out ~dst_pos:len;
  out

let open_nonce ~key ~nonce ?(aad = Bytes.empty) data =
  let len = Bytes.length data - overhead in
  if len < 0 then None
  else if Poly1305.check (mac_state ~key ~nonce ~aad data len) ~tag:data ~tag_pos:len then begin
    let pt = Bytes.create len in
    Chacha20.xor_into ~key ~nonce ~counter:1 ~src:data ~src_pos:0 ~dst:pt ~dst_pos:0 len;
    Some pt
  end
  else None

let seal ~key ~round ?aad msg = seal_nonce ~key ~nonce:(Chacha20.nonce_of_round round) ?aad msg

let open_ ~key ~round ?aad data =
  open_nonce ~key ~nonce:(Chacha20.nonce_of_round round) ?aad data
