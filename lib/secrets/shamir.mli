(** Shamir secret sharing over a word-sized prime field (Shamir '79).

    Mycelium shares the BGV decryption key among a committee of user
    devices so that any [threshold + 1] members can decrypt but no
    [threshold] colluding members learn anything (§4.2, §5: "any subset
    of t+1 members can reconstruct"). *)

type share = { x : int; y : int }
(** Evaluation point and value; x >= 1. *)

val share_secret :
  p:int ->
  Mycelium_util.Rng.t ->
  threshold:int ->
  parties:int ->
  int ->
  share array
(** [share_secret ~p rng ~threshold ~parties v] returns one share per
    party at x = 1..parties; any [threshold+1] reconstruct [v], and any
    [threshold] values are jointly uniform. Requires
    [0 < threshold + 1 <= parties < p]. *)

val share_with_poly :
  p:int ->
  Mycelium_util.Rng.t ->
  threshold:int ->
  parties:int ->
  int ->
  share array * int array
(** Also returns the coefficients (a_0 = secret first) for commitment
    schemes. *)

val eval_poly : p:int -> int array -> int -> int
(** Horner evaluation of a coefficient array at a point. *)

val reconstruct : p:int -> share list -> int
(** Lagrange interpolation at zero using all given shares (callers pass
    exactly [threshold+1] distinct-x shares). Raises
    [Invalid_argument] on duplicate x. *)

val lagrange_at_zero : p:int -> int array -> int array
(** [lagrange_at_zero ~p xs] gives the coefficients lambda_i such that
    [f(0) = sum_i lambda_i f(xs.(i))] for any polynomial of degree
    < length xs. *)

(** {2 Vector (ring element) sharing} *)

type rq_share = { idx : int; value : Mycelium_math.Rq.t }
(** A share of a ring element: every coefficient of every RNS residue
    row independently Shamir-shared at the same x = idx. Linear ring
    operations on shares commute with reconstruction. *)

val share_rq :
  Mycelium_util.Rng.t ->
  threshold:int ->
  parties:int ->
  Mycelium_math.Rq.t ->
  rq_share array
(** [share_rq rng ~threshold ~parties v] shares [v] to parties
    x = 1..parties; the one-dealer, unit-weight {!share_weighted_rq}. *)

val share_weighted_rq :
  Mycelium_util.Rng.t ->
  threshold:int ->
  parties:int ->
  (int array * Mycelium_math.Rq.t) list ->
  rq_share array
(** [share_weighted_rq rng ~threshold ~parties dealers]: each dealer
    [(w, v)] shares [v] with a fresh degree-[threshold] polynomial f,
    and party x receives [sum w * f(x)], [w] given per prime.  The
    weighted sum is computed as one folded polynomial evaluated once
    per party; the result and the draws from [rng] are those of
    sharing each [v] in turn with {!share_rq} and accumulating the
    weighted shares.  Raises [Invalid_argument] on an empty list or
    dealers on different bases. *)

val reconstruct_rq : Mycelium_math.Rns.t -> rq_share list -> Mycelium_math.Rq.t

val lambda_rows : Mycelium_math.Rns.t -> int array -> int array array
(** Per-prime Lagrange-at-zero coefficients for the given x
    coordinates: [lambda_rows basis xs].(i) is the coefficient vector
    in the i-th prime field. *)
