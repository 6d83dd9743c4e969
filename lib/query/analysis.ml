module Schema = Mycelium_graph.Schema
module Params = Mycelium_bgv.Params

type pred_side = Origin_side | Dest_side | Cross of Ast.field | Constant

let side_of_cols cols =
  let has g = List.exists (fun (c : Ast.colref) -> c.Ast.group = g) cols in
  let self = has Ast.Self and dest = has Ast.Dest in
  if self && dest then begin
    (* The sequence is driven by the dest column being compared. *)
    match List.find_opt (fun (c : Ast.colref) -> c.Ast.group = Ast.Dest) cols with
    | Some c -> Cross c.Ast.field
    | None -> assert false
  end
  else if dest then Dest_side
  else if self then Origin_side
  else if cols <> [] then Origin_side (* edge-only: origin holds its edges *)
  else Constant

let classify_atom = function
  | Ast.And _ | Ast.Or _ -> Error "classify_atom: not atomic"
  | Ast.True -> Ok Constant
  | (Ast.Truthy _ | Ast.Cmp _ | Ast.Between _ | Ast.Fn _) as atom ->
    Ok (side_of_cols (Ast.pred_cols atom))

type group_kind = Group_none | Group_self | Group_edge | Group_cross of Ast.field

type layout = { group_count : int; count_slots : int; value_slots : int; total_bins : int }

type info = {
  query : Ast.t;
  degree_bound : int;
  ciphertext_count : int;
  group_kind : group_kind;
  layout : layout;
  influence_bound : int;
  multiplications : int;
  sensitivity : float;
  clip : (float * float) option;
}

let field_slots = function
  | Ast.Inf -> 2
  | Ast.T_inf -> Schema.t_inf_days
  | Ast.Age -> Schema.age_groups
  | Ast.Duration -> 13 (* whole hours, 0..12 *)
  | Ast.Contacts -> 21 (* capped at 20 *)
  | Ast.Last_contact -> Schema.t_inf_days
  | Ast.Location -> 5
  | Ast.Setting -> 3

let bucketize field raw =
  let clamp lo hi v = max lo (min hi v) in
  match field with
  | Ast.Inf -> clamp 0 1 raw
  | Ast.T_inf -> clamp 0 (Schema.t_inf_days - 1) raw
  | Ast.Age -> Schema.age_group raw
  | Ast.Duration -> clamp 0 12 (raw / 60)
  | Ast.Contacts -> clamp 0 20 raw
  | Ast.Last_contact -> clamp 0 (Schema.t_inf_days - 1) raw
  | Ast.Location -> clamp 0 4 raw
  | Ast.Setting -> clamp 0 2 raw

let group_info (q : Ast.t) =
  match q.Ast.group_by with
  | Ast.No_group -> Ok (Group_none, 1)
  | Ast.By_col c -> (
    match c.Ast.group with
    | Ast.Self -> Ok (Group_self, field_slots c.Ast.field)
    | Ast.Edge -> Ok (Group_edge, field_slots c.Ast.field)
    | Ast.Dest -> Error "GROUP BY dest columns is not supported (would leak neighbor data)")
  | Ast.By_fn (name, s) -> (
    let cols = Ast.scalar_cols s in
    let side = side_of_cols cols in
    let count =
      match name with
      | "stage" -> Some Schema.stages
      | "isHousehold" | "onSubway" -> Some 2
      | _ -> None
    in
    match count with
    | None -> Error (Printf.sprintf "unknown GROUP BY function %s" name)
    | Some count -> (
      match side with
      | Cross f -> Ok (Group_cross f, count)
      | Dest_side -> Error "GROUP BY over dest-only expressions is not supported"
      | Origin_side | Constant ->
        (* edge/self expressions: per-edge grouping when edge columns
           are involved, origin grouping otherwise. *)
        if List.exists (fun (c : Ast.colref) -> c.Ast.group = Ast.Edge) cols then
          Ok (Group_edge, count)
        else Ok (Group_self, count)))

(* Neighborhood sizes grow exponentially in the hop count, so every
   size below is computed with checked arithmetic (non-negative
   operands): a neigh(k) whose sizes overflow a native int is an
   analysis error, not a wrapped-around bound. *)
let checked_add a b = if a > max_int - b then None else Some (a + b)
let checked_mul a b = if a <> 0 && b > max_int / a then None else Some (a * b)

(* 1 + d + d(d-1) + ... : the ball size under degree bound d, also the
   number of origins one device can influence. *)
let ball_size ~degree_bound ~hops =
  let rec go i acc layer =
    match checked_add acc layer with
    | None -> None
    | Some acc when i = hops -> Some acc
    | Some acc -> Option.bind (checked_mul layer (degree_bound - 1)) (go (i + 1) acc)
  in
  if hops < 1 then Some 1 else go 1 1 degree_bound

let pow_int b e =
  let rec go acc e =
    if e = 0 then Some acc else Option.bind (checked_mul acc b) (fun acc -> go acc (e - 1))
  in
  go 1 e

let analyze ?(degree_bound = 10) (q : Ast.t) =
  let ( let* ) = Result.bind in
  (* Validate all columns. *)
  let bad_col =
    List.find_opt (fun c -> not (Ast.colref_valid c)) (Ast.pred_cols q.Ast.where)
  in
  let* () =
    match bad_col with
    | Some c ->
      Error
        (Printf.sprintf "invalid column %s.%s" (Ast.group_to_string c.Ast.group)
           (Ast.field_to_string c.Ast.field))
    | None -> Ok ()
  in
  let* group_kind, group_count = group_info q in
  (* Ciphertext count: product of sequence lengths over distinct cross
     columns (predicates and group function). *)
  let cross_fields =
    let from_preds =
      Ast.fold_preds
        (fun acc atom ->
          match classify_atom atom with
          | Ok (Cross f) -> f :: acc
          | Ok (Origin_side | Dest_side | Constant) | Error _ -> acc)
        [] q.Ast.where
    in
    let from_group =
      match group_kind with
      | Group_cross f -> [ f ]
      | Group_none | Group_self | Group_edge -> []
    in
    List.sort_uniq Ast.compare_field (from_preds @ from_group)
  in
  let ciphertext_count =
    List.fold_left (fun acc f -> acc * field_slots f) 1 cross_fields
  in
  (* Value slots: range of the local aggregation result. The neigh(k)
     table has up to ball_size rows (neighborhood plus the origin's own
     row), each contributing at most the per-row maximum. *)
  let too_large = Printf.sprintf "neigh(%d) is too large to analyze" q.Ast.hops in
  let* mults = Option.to_result ~none:too_large (pow_int degree_bound q.Ast.hops) in
  let* contributions =
    Option.to_result ~none:too_large (ball_size ~degree_bound ~hops:q.Ast.hops)
  in
  let agg = match q.Ast.output with Ast.Histo a -> a | Ast.Gsum { num; _ } -> num in
  let* per_contribution_max =
    match agg with
    | Ast.Count -> Ok 1
    | Ast.Sum c ->
      if not (Ast.colref_valid c) then Error "invalid aggregation column"
      else Ok (field_slots c.Ast.field - 1)
  in
  let is_ratio =
    match q.Ast.output with
    | Ast.Gsum { ratio; _ } -> ratio
    | Ast.Histo _ -> false
  in
  let sizes =
    let ( let* ) = Option.bind in
    let* value_slots = Option.bind (checked_mul per_contribution_max contributions) (checked_add 1) in
    let* count_slots = if is_ratio then checked_add contributions 1 else Some 1 in
    let* total_bins = Option.bind (checked_mul group_count count_slots) (checked_mul value_slots) in
    Some { group_count; count_slots; value_slots; total_bins }
  in
  let* layout = Option.to_result ~none:too_large sizes in
  let value_slots = layout.value_slots in
  let influence_bound = contributions in
  let* clip =
    match q.Ast.output with
    | Ast.Histo _ -> Ok None
    | Ast.Gsum { ratio = true; clip; _ } ->
      (* Ratios live in [0,1]; an explicit CLIP overrides. *)
      Ok (Some (match clip with Some (a, b) -> (float_of_int a, float_of_int b) | None -> (0., 1.)))
    | Ast.Gsum { ratio = false; clip = Some (a, b); _ } -> Ok (Some (float_of_int a, float_of_int b))
    | Ast.Gsum { ratio = false; clip = None; _ } ->
      Ok (Some (0., float_of_int (value_slots - 1)))
  in
  let sensitivity =
    match clip with
    | None -> Mycelium_dp.Dp.histo_sensitivity ~neighborhood_bound:influence_bound
    | Some (lo, hi) ->
      Mycelium_dp.Dp.gsum_sensitivity ~clip_lo:lo ~clip_hi:hi ~neighborhood_bound:influence_bound
  in
  Ok
    {
      query = q;
      degree_bound;
      ciphertext_count;
      group_kind;
      layout;
      influence_bound;
      multiplications = mults;
      sensitivity;
      clip;
    }

let analyze_exn ?degree_bound q =
  match analyze ?degree_bound q with Ok i -> i | Error e -> failwith ("Analysis: " ^ e)

let log2f v = log v /. log 2.

let max_multiplications (p : Params.t) =
  (* Fresh noise ~ t * N * eta bits; each multiplication of an
     accumulated ciphertext by a fresh one adds ~ (t_bits + n_bits/2 +
     2) bits in the average case (error coefficients concentrate around
     sqrt(N) * |e1| * |e2|). Conservative safety margin of 10 bits. *)
  let t_bits = log2f (float_of_int p.Params.plain_modulus) in
  let n_bits = log2f (float_of_int p.Params.degree) in
  let eta_bits = log2f (float_of_int p.Params.error_eta) in
  let fresh = t_bits +. n_bits +. eta_bits +. 2. in
  let per_mult = t_bits +. (n_bits /. 2.) +. 2. in
  let usable = float_of_int (Params.modulus_bits p) -. fresh -. 10. in
  max 0 (int_of_float (usable /. per_mult))

let feasible info (p : Params.t) =
  let budget = max_multiplications p in
  if info.multiplications > budget then
    Error
      (Printf.sprintf "needs %d homomorphic multiplications, parameters support ~%d"
         info.multiplications budget)
  else if info.layout.total_bins > p.Params.degree then
    Error
      (Printf.sprintf "needs %d bins, ring degree is %d" info.layout.total_bins p.Params.degree)
  else Ok ()
