module Rng = Mycelium_util.Rng
module Sha256 = Mycelium_crypto.Sha256
module Bgv = Mycelium_bgv.Bgv
module Params = Mycelium_bgv.Params
module Plaintext = Mycelium_bgv.Plaintext

type srs = { trapdoor : bytes }

let setup rng = { trapdoor = Rng.bytes rng 32 }

type proof = { statement : bytes; mac : bytes }

let proof_size_bytes _ = 192

let proof_to_bytes p = Bytes.cat p.statement p.mac

let proof_of_bytes b =
  if Bytes.length b <> 64 then None
  else Some { statement = Bytes.sub b 0 32; mac = Bytes.sub b 32 32 }

let digest_parts parts =
  let ctx = Sha256.init () in
  List.iter (fun p -> Sha256.update ctx p) parts;
  Sha256.finalize ctx

let sign srs statement = Sha256.hmac ~key:srs.trapdoor statement

let check srs statement proof =
  Bytes.equal proof.statement statement && Bytes.equal proof.mac (sign srs statement)

(* The §4.6 plaintext structure: zero everywhere, or exactly one
   coefficient and it equals 1. *)
let plaintext_admissible pt =
  match Plaintext.is_monomial pt with
  | None -> Array.for_all (fun c -> c = 0) (Plaintext.coeffs pt)
  | Some (_, c) -> c = 1

type digest = bytes

(* D(ct), the contribution statement, from [Bgv.serialize ct]. *)
let digest_of_wire wire = digest_parts [ Bytes.of_string "contribution"; wire ]

let digest ct = digest_of_wire (Bgv.serialize ct)

let contribution_digest proof = proof.statement

(* One encryption, one serialization, one hash: the wire bytes are
   returned so that [prove_contribution] can compare against them. *)
let encrypt_wire srs ctx pk ~plaintext ~seed =
  if not (plaintext_admissible plaintext) then None
  else begin
    let ct = Bgv.encrypt ctx (Rng.create seed) pk plaintext in
    let wire = Bgv.serialize ct in
    let statement = digest_of_wire wire in
    Some (ct, wire, { statement; mac = sign srs statement })
  end

let encrypt_contribution srs ctx pk ~plaintext ~seed =
  Option.map (fun (ct, _, proof) -> (ct, proof)) (encrypt_wire srs ctx pk ~plaintext ~seed)

let prove_contribution srs ctx pk ~plaintext ~seed ct =
  match encrypt_wire srs ctx pk ~plaintext ~seed with
  | Some (_, wire, proof) when Bytes.equal wire (Bgv.serialize ct) -> Some proof
  | Some _ | None -> None

let verify_contribution srs _ctx ct proof = check srs (digest ct) proof

let product_statement ~inputs ~output =
  digest_parts
    (Bytes.of_string "product" :: Bgv.serialize output :: List.map Bgv.serialize inputs)

let prove_product srs ~inputs ~output =
  match inputs with
  | [] -> None
  | _ ->
    let recomputed = Bgv.mul_many inputs in
    if not (Bytes.equal (Bgv.serialize recomputed) (Bgv.serialize output)) then None
    else begin
      let statement = product_statement ~inputs ~output in
      Some { statement; mac = sign srs statement }
    end

let verify_product srs ~inputs ~output proof = check srs (product_statement ~inputs ~output) proof

(* "transcript" ‖ len(label) ‖ label ‖ len(context) ‖ context ‖ D(output)
   ‖ D(input_1) ‖ ... with 4-byte little-endian lengths: the framing
   keeps (label, context) splits of the same bytes apart, and every
   digest after them is 32 bytes. *)
let transcript_statement ~label ~context ~inputs ~output =
  let h = Sha256.init () in
  let framed b =
    let len = Bytes.create 4 in
    Bytes.set_int32_le len 0 (Int32.of_int (Bytes.length b));
    Sha256.update h len;
    Sha256.update h b
  in
  Sha256.update_string h "transcript";
  framed (Bytes.of_string label);
  framed context;
  Sha256.update h output;
  List.iter (Sha256.update h) inputs;
  Sha256.finalize h

let prove_transcript srs ~label ~context ~inputs ~compute =
  let output = compute (List.map fst inputs) in
  let statement =
    transcript_statement ~label ~context ~inputs:(List.map snd inputs) ~output:(digest output)
  in
  (output, { statement; mac = sign srs statement })

let verify_transcript srs ~label ~context ~inputs ~output proof =
  check srs (transcript_statement ~label ~context ~inputs ~output) proof

let forge rng =
  { statement = Rng.bytes rng 32; mac = Rng.bytes rng 32 }

module Cost = struct
  let proof_bytes = 192

  (* Calibration anchors from §6.4/§6.6: contribution proof generation
     ~60 s; verification of one contribution (4.3 MB public I/O) ~10 s,
     which puts N=1e6 device verifications at ~1e4 core-hours / 10 h =
     ~300 cores, the regime of Figure 9b. *)
  let prove_seconds ~constraints = 3.2e-5 *. float_of_int constraints

  let verify_seconds ~public_io_bytes = 0.002 +. (2.3e-6 *. float_of_int public_io_bytes)

  let contribution_constraints p =
    (* One R1CS constraint per NTT butterfly per prime, for the two
       component polynomials: ~2 * levels * N log N, plus range checks. *)
    let n = p.Params.degree in
    let logn =
      let rec go acc v = if v <= 1 then acc else go (acc + 1) (v / 2) in
      go 0 n
    in
    2 * p.Params.levels * n * logn / 10
end
