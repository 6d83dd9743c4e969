(** Zero-knowledge proofs of ciphertext well-formedness and product
    correctness (§4.6).

    The paper uses Groth16 via ZoKrates/bellman with a trusted setup
    performed by the genesis committee. A pairing-based SNARK stack is
    out of scope for this reproduction (see DESIGN.md); what the system
    needs from the ZKP layer is (a) *soundness inside the simulation* —
    a Byzantine device must not get a malformed contribution accepted —
    and (b) *faithful costs* for the evaluation figures.

    Both are provided without pairings:
    - The prover is the encryptor: {!encrypt_contribution} checks the
      §4.6 plaintext structure (zero, or a single coefficient equal to
      1), encrypts deterministically from the witness seed and signs
      the statement, in one encryption, one serialization and one hash.
      An inadmissible plaintext gets no proof, like a real prover that
      cannot find a satisfying witness. {!prove_contribution} is the
      same prover followed by a comparison with a given ciphertext.
    - Transcript provers run the aggregation circuit exactly once: the
      output they return is the one they prove.
    - Accepted statements are bound by a MAC under a key derived from
      the trusted setup (standing in for the SRS trapdoor); [forge]
      models a Byzantine device fabricating a proof without a witness,
      which verification rejects.
    - Soundness is enforced by the verifiers ([verify_*], which
      recompute each statement from public data) and by the refusal of
      inadmissible plaintexts; the prover's own output is never
      trusted without them.
    - {!Cost} carries the Groth16 cost model (constant proof size;
      verification linear in the public I/O, which for Mycelium is
      dominated by the 4.3 MB ciphertexts — the reason ZKP verification
      dominates Figure 9b). *)

type srs
(** The structured reference string from the genesis committee's
    trusted setup. *)

val setup : Mycelium_util.Rng.t -> srs

type proof

val proof_size_bytes : proof -> int

val proof_to_bytes : proof -> bytes
(** Wire form (the simulation's stand-in for the 192-byte Groth16
    proof). *)

val proof_of_bytes : bytes -> proof option

(** {2 Statement 1: well-formed contribution}

    The statement is the digest D(ct) = SHA-256("contribution" ‖
    [Bgv.serialize ct]). *)

type digest
(** A 32-byte statement digest D(ct). *)

val digest : Mycelium_bgv.Bgv.ciphertext -> digest
(** [digest ct] is D(ct), the statement of [ct]'s contribution proof. *)

val contribution_digest : proof -> digest
(** The statement a contribution proof carries. When
    [verify_contribution srs ctx ct proof] holds, it equals [digest ct],
    so a verified contribution never needs hashing again. *)

val encrypt_contribution :
  srs ->
  Mycelium_bgv.Bgv.ctx ->
  Mycelium_bgv.Bgv.public_key ->
  plaintext:Mycelium_bgv.Plaintext.t ->
  seed:int64 ->
  (Mycelium_bgv.Bgv.ciphertext * proof) option
(** The ciphertext [Bgv.encrypt ctx (Rng.create seed) pk plaintext]
    with its well-formedness proof; [None] when the plaintext is neither
    zero nor a coefficient-1 monomial. *)

val prove_contribution :
  srs ->
  Mycelium_bgv.Bgv.ctx ->
  Mycelium_bgv.Bgv.public_key ->
  plaintext:Mycelium_bgv.Plaintext.t ->
  seed:int64 ->
  Mycelium_bgv.Bgv.ciphertext ->
  proof option
(** {!encrypt_contribution} followed by a byte comparison with the
    given ciphertext: [None] when the witness does not satisfy the
    constraints — the ciphertext is not the deterministic encryption of
    [plaintext] under [seed], or the plaintext is inadmissible. *)

val verify_contribution :
  srs -> Mycelium_bgv.Bgv.ctx -> Mycelium_bgv.Bgv.ciphertext -> proof -> bool

(** {2 Statement 2: correct local aggregation (ciphertext product)} *)

val prove_product :
  srs ->
  inputs:Mycelium_bgv.Bgv.ciphertext list ->
  output:Mycelium_bgv.Bgv.ciphertext ->
  proof option
(** [None] unless [output] is the product of [inputs] (balanced tree,
    as computed by [Bgv.mul_many]). *)

val verify_product :
  srs ->
  inputs:Mycelium_bgv.Bgv.ciphertext list ->
  output:Mycelium_bgv.Bgv.ciphertext ->
  proof ->
  bool

(** {2 Generic aggregation transcripts}

    Origin vertices do more than multiply when a query uses the §4.5
    sequence mechanism or GROUP BY shifts: the proven statement is
    "output = F(inputs)" for the query-determined aggregation circuit
    F. The statement binds every ciphertext by its digest D:

    SHA-256("transcript" ‖ len(label) ‖ label ‖ len(context) ‖ context
    ‖ D(output) ‖ D(input{_ 1}) ‖ ... ‖ D(input{_ n}))

    with 4-byte little-endian lengths, so no two (label, context)
    splits of the same bytes share a statement. The context is a public
    string (the query name, which fixes the selection sets and
    shifts). An input that arrived with a verified contribution proof
    is bound by the digest that proof carries ({!contribution_digest});
    any other input (a child's partial product) is hashed once by
    whoever holds it. *)

val prove_transcript :
  srs ->
  label:string ->
  context:bytes ->
  inputs:(Mycelium_bgv.Bgv.ciphertext * digest) list ->
  compute:(Mycelium_bgv.Bgv.ciphertext list -> Mycelium_bgv.Bgv.ciphertext) ->
  Mycelium_bgv.Bgv.ciphertext * proof
(** Runs [compute] once on the input ciphertexts and proves its output.
    Each input comes with its digest, which the prover takes as given;
    the verifier recomputes the statement from digests it trusts. *)

val verify_transcript :
  srs ->
  label:string ->
  context:bytes ->
  inputs:digest list ->
  output:digest ->
  proof ->
  bool

val forge : Mycelium_util.Rng.t -> proof
(** What a Byzantine device without a witness can produce; never
    verifies (except with the trapdoor, which nobody in the simulated
    protocol holds). *)

(** {2 Groth16 cost model} *)

module Cost : sig
  val proof_bytes : int
  (** 192: three group elements at BN254 sizes. *)

  val prove_seconds : constraints:int -> float
  (** Linear in the circuit size; calibrated so that one Mycelium
      contribution proof (~2^22 constraints for an N=32768 ciphertext
      encryption) takes ~60 s, the paper's "around a minute". *)

  val verify_seconds : public_io_bytes:int -> float
  (** Pairing check plus one scalar multiplication per public-input
      field element; linear in the I/O size ("Groth16 scales linearly
      in the public I/O size, which ... includes the fairly large
      ciphertexts", §6.6). ~10 s for a 4.3 MB ciphertext. *)

  val contribution_constraints : Mycelium_bgv.Params.t -> int
  (** Circuit size for the §4.6 encryption statement under the given
      BGV parameters. *)
end
