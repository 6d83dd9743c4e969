type t = {
  primes : int array;
  plans : Ring_backend.plan array;
  degree : int;
  q : Bigint.t;
  (* crt_factor.(i) = (q / p_i) * ((q / p_i)^-1 mod p_i): summing
     residue_i * crt_factor.(i) and reducing mod q reconstructs. *)
  crt_factor : Bigint.t array;
  half_q : Bigint.t;
  (* Mixed-radix (Garner) constants: radix.(i) = M_i = p_0 ... p_{i-1},
     radix_mod.(i).(j) = M_j mod p_i for j < i, inv_radix.(i) =
     (M_i mod p_i)^-1, each with its Shoup companion ('); half_digits
     are the mixed-radix digits of floor(q/2). *)
  radix : Bigint.t array;
  radix_mod : int array array;
  radix_mod' : int array array;
  inv_radix : int array;
  inv_radix' : int array;
  half_digits : int array;
}

let primes t = t.primes

let equal a b =
  Int.equal a.degree b.degree
  && Int.equal (Array.length a.primes) (Array.length b.primes)
  && Array.for_all2 Int.equal a.primes b.primes
let plans t = t.plans
let degree t = t.degree
let level_count t = Array.length t.primes
let modulus t = t.q
let modulus_bits t = Bigint.num_bits t.q

let backend_name t = t.plans.(0).Ring_backend.backend

(* x = d_0 + d_1 M_1 + ... + d_{L-1} M_{L-1} with d_i in [0, p_i): the
   digit d_i is (r_i - sum_{j<i} d_j M_j) / M_i mod p_i, every step a
   Shoup multiply by a per-basis constant, so a column decodes in
   native ints.  Limb-major over a residue matrix: digits.(i).(c); the
   digits of one prime enter another's row kernel unreduced, which
   Shoup allows (inputs < 2^31). *)
let mixed_radix_digits t rows =
  let digits = Array.make (Array.length t.primes) [||] in
  Array.iteri
    (fun i p ->
      (* d starts as r_i; subtract d_j M_j for every earlier digit,
         then scale by M_i^-1 (added into a zero row). *)
      let d = Array.copy rows.(i) in
      for j = 0 to i - 1 do
        Modarith.shoup_mul_sub_row p t.radix_mod.(i).(j) t.radix_mod'.(i).(j) digits.(j) d
      done;
      let out = Array.make (Array.length d) 0 in
      Modarith.shoup_mul_add_row p t.inv_radix.(i) t.inv_radix'.(i) d out;
      digits.(i) <- out)
    t.primes;
  digits

(* Everything derived from the prime chain; shared by [make] and
   [drop_last] so a dropped basis carries the same constants as one
   built from scratch. *)
let derive ~primes ~plans ~degree =
  let q = Array.fold_left (fun acc p -> Bigint.mul acc (Bigint.of_int p)) Bigint.one primes in
  let crt_factor =
    Array.map
      (fun p ->
        let m_i = Bigint.div q (Bigint.of_int p) in
        let inv = Modarith.inv p (Bigint.rem_int m_i p) in
        Bigint.mul m_i (Bigint.of_int inv))
      primes
  in
  let radix = Array.make (Array.length primes) Bigint.one in
  for i = 1 to Array.length primes - 1 do
    radix.(i) <- Bigint.mul_int radix.(i - 1) primes.(i - 1)
  done;
  let radix_mod = Array.mapi (fun i p -> Array.init i (fun j -> Bigint.rem_int radix.(j) p)) primes in
  let inv_radix = Array.mapi (fun i p -> Modarith.inv p (Bigint.rem_int radix.(i) p)) primes in
  let half_q = Bigint.shift_right q 1 in
  let t =
    {
      primes;
      plans;
      degree;
      q;
      crt_factor;
      half_q;
      radix;
      radix_mod;
      radix_mod' =
        Array.mapi (fun i row -> Array.map (Modarith.shoup_precompute primes.(i)) row) radix_mod;
      inv_radix;
      inv_radix' = Array.mapi (fun i w -> Modarith.shoup_precompute primes.(i) w) inv_radix;
      half_digits = [||];
    }
  in
  let half_rows = Array.map (fun p -> [| Bigint.rem_int half_q p |]) primes in
  { t with half_digits = Array.map (fun d -> d.(0)) (mixed_radix_digits t half_rows) }

let make ?backend ~primes ~degree () =
  let primes = Array.of_list primes in
  let n = Array.length primes in
  if n = 0 then invalid_arg "Rns.make: empty basis";
  let distinct = Array.to_list primes |> List.sort_uniq Int.compare |> List.length in
  if distinct <> n then invalid_arg "Rns.make: duplicate primes";
  let plans = Array.map (fun p -> Ring_backend.make_plan ?backend ~p ~degree ()) primes in
  derive ~primes ~plans ~degree

let standard ?backend ~degree ~prime_bits ~levels () =
  make ?backend ~primes:(Ntt.find_primes ~degree ~bits:prime_bits ~count:levels) ~degree ()

let to_bigint t residues =
  let acc = ref Bigint.zero in
  Array.iteri
    (fun i r -> acc := Bigint.add !acc (Bigint.mul_int t.crt_factor.(i) r))
    residues;
  Bigint.erem !acc t.q

let to_bigint_centered t residues =
  let v = to_bigint t residues in
  if Bigint.compare v t.half_q > 0 then Bigint.sub v t.q else v

(* Limb-major CRT reconstruction of a whole residue matrix
   (rows.(limb).(coeff)): one pass per limb accumulating
   crt_factor.(j) * rows.(j).(i) into per-coefficient accumulators,
   then a single reduce-and-center pass.  Same accumulation order
   (ascending limb index) as folding to_bigint_centered over columns,
   so the results are bit-identical to the column-major loop while
   touching each row sequentially. *)
let to_bigint_rows_centered t rows =
  if Array.length rows <> Array.length t.primes then
    invalid_arg "Rns.to_bigint_rows_centered: wrong number of rows";
  let n = t.degree in
  let acc = Array.make n Bigint.zero in
  Array.iteri
    (fun j row ->
      if Array.length row <> n then
        invalid_arg "Rns.to_bigint_rows_centered: wrong row length";
      let f = t.crt_factor.(j) in
      for i = 0 to n - 1 do
        acc.(i) <- Bigint.add acc.(i) (Bigint.mul_int f row.(i))
      done)
    rows;
  Array.map
    (fun v ->
      let v = Bigint.erem v t.q in
      if Bigint.compare v t.half_q > 0 then Bigint.sub v t.q else v)
    acc

(* The centered value v of a column is x or x - q, where x is its
   representative in [0, q); x > floor(q/2) is decided digit by digit
   from the most significant mixed-radix digit down, and v mod m is
   sum_i d_i (M_i mod m), less q mod m when centered.  Above 2^31 the
   digit products would overflow a native int; such a modulus takes
   the Bigint path. *)
let centered_rows_mod t m rows =
  if m < 1 then invalid_arg "Rns.centered_rows_mod: modulus must be >= 1";
  if m >= 1 lsl 31 then begin
    let big_m = Bigint.of_int m in
    Array.map (fun v -> Bigint.to_int (Bigint.erem v big_m)) (to_bigint_rows_centered t rows)
  end
  else begin
    if Array.length rows <> Array.length t.primes then
      invalid_arg "Rns.centered_rows_mod: wrong number of rows";
    Array.iter
      (fun row ->
        if Array.length row <> t.degree then
          invalid_arg "Rns.centered_rows_mod: wrong row length")
      rows;
    let digits = mixed_radix_digits t rows in
    let n = t.degree in
    let acc = Array.make n 0 in
    Array.iteri
      (fun i r ->
        let w = Bigint.rem_int r m in
        Modarith.shoup_mul_add_row m w (Modarith.shoup_precompute m w) digits.(i) acc)
      t.radix;
    (* above.(c): 1 once the column's digits exceed floor(q/2)'s, -1
       once they fall below, 0 while equal — decided top digit down. *)
    let above = Array.make n 0 in
    for i = Array.length t.primes - 1 downto 0 do
      let d = digits.(i) and h = t.half_digits.(i) in
      for c = 0 to n - 1 do
        if above.(c) = 0 then above.(c) <- Int.compare d.(c) h
      done
    done;
    let q_m = Bigint.rem_int t.q m in
    Array.mapi (fun c v -> if above.(c) > 0 then Modarith.sub m v q_m else v) acc
  end

let of_bigint t x = Array.map (fun p -> Bigint.rem_int x p) t.primes

let of_int t x = Array.map (fun p -> Modarith.reduce p x) t.primes

(* Modulus switching happens on every multiplicative level, so this must
   not pay for NTT planning again: the surviving primes keep the parent's
   plans (physically shared); only the CRT data tied to q changes. *)
let drop_last t =
  let n = Array.length t.primes in
  if n < 2 then invalid_arg "Rns.drop_last: single-prime basis";
  derive ~primes:(Array.sub t.primes 0 (n - 1)) ~plans:(Array.sub t.plans 0 (n - 1))
    ~degree:t.degree
