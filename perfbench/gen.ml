(* Seeded workload generator.

   Requests are drawn from template families modelled on the Figure 2
   corpus, each with seed-drawn constants (age ranges, day offsets,
   CLIP bounds).  Every generated query must pass
   [Runtime.validate_query]; a query that does not is drawn again.
   The generator is a pure function of its seed: the same seed gives
   the same request stream, byte for byte. *)

module Rng = Mycelium_util.Rng
module Json = Mycelium_obs.Obs.Json

type family = {
  fam : string;  (** the corpus query the template generalizes *)
  multi : bool;  (** a §4.5 multi-ciphertext family *)
  draw : Rng.t -> string;
}

let age_range rng =
  let lo = Rng.int_in rng 0 60 in
  (lo, Rng.int_in rng (lo + 10) 100)

let single_families =
  [|
    {
      fam = "Q5";
      multi = false;
      draw =
        (fun rng ->
          let lo, hi = age_range rng in
          Printf.sprintf
            "SELECT HISTO(COUNT(*)) FROM neigh(1) WHERE (dest.age IN [%d,%d]) GROUP BY self.age"
            lo hi);
    };
    {
      fam = "Q2";
      multi = false;
      draw =
        (fun rng ->
          let a = Rng.int_in rng 0 7 in
          let b = Rng.int_in rng (a + 3) (a + 14) in
          let lo, hi = age_range rng in
          Printf.sprintf
            "SELECT HISTO(SUM(edge.duration)) FROM neigh(1) WHERE self.inf AND (dest.tInf IN \
             [edge.last_contact+%d, edge.last_contact+%d]) AND (dest.age IN [%d,%d])"
            a b lo hi);
    };
    {
      fam = "Q4";
      multi = false;
      draw =
        (fun rng ->
          let lo, hi = age_range rng in
          Printf.sprintf
            "SELECT HISTO(SUM(dest.inf)) FROM neigh(1) WHERE onSubway(edge.location) AND \
             (self.age IN [%d,%d])"
            lo hi);
    };
    {
      fam = "Q8";
      multi = false;
      draw =
        (fun rng ->
          let lo, hi = age_range rng in
          Printf.sprintf
            "SELECT GSUM(SUM(dest.inf)/COUNT(*)) FROM neigh(1) WHERE self.inf AND (dest.age \
             IN [%d,%d]) GROUP BY isHousehold(edge.location)"
            lo hi);
    };
    {
      fam = "CLIP";
      multi = false;
      draw =
        (fun rng ->
          let lo = Rng.int_in rng 0 4 in
          let hi = Rng.int_in rng (lo + 2) (lo + 20) in
          let alo, ahi = age_range rng in
          Printf.sprintf
            "SELECT GSUM(SUM(edge.duration)) FROM neigh(1) WHERE dest.inf AND (dest.age IN \
             [%d,%d]) CLIP [%d,%d]"
            alo ahi lo hi);
    };
  |]

let multi_families =
  let offset_query fam fmt =
    {
      fam;
      multi = true;
      draw =
        (fun rng ->
          let k = Rng.int_in rng 1 6 in
          let lo, hi = age_range rng in
          fmt lo hi k);
    }
  in
  [|
    offset_query "Q3" (fun lo hi k ->
        Printf.sprintf
          "SELECT HISTO(SUM(edge.contacts)) FROM neigh(1) WHERE self.inf AND dest.tInf AND \
           (dest.age IN [%d,%d]) AND (dest.tInf > self.tInf+%d)"
          lo hi k);
    offset_query "Q6" (fun lo hi k ->
        Printf.sprintf
          "SELECT HISTO(COUNT(*)) FROM neigh(1) WHERE self.inf AND dest.tInf AND (dest.age IN \
           [%d,%d]) AND (dest.tInf > self.tInf+%d) GROUP BY self.age"
          lo hi k);
    offset_query "Q7" (fun lo hi k ->
        Printf.sprintf
          "SELECT HISTO(COUNT(*)) FROM neigh(1) WHERE self.inf AND dest.tInf AND (dest.age IN \
           [%d,%d]) AND (dest.tInf > self.tInf+%d) GROUP BY edge.setting"
          lo hi k);
    {
      fam = "Q9";
      multi = true;
      draw =
        (fun rng ->
          let lo, hi = age_range rng in
          let k = Rng.int_in rng 3 15 in
          Printf.sprintf
            "SELECT GSUM(SUM(dest.inf)/COUNT(*)) FROM neigh(1) WHERE (dest.age IN [%d,%d]) AND \
             (self.age IN [dest.age-%d, dest.age+%d])"
            lo hi k k);
    };
    offset_query "Q10" (fun lo hi k ->
        Printf.sprintf
          "SELECT GSUM(SUM(dest.inf)/COUNT(*)) FROM neigh(1) WHERE self.inf AND (dest.age IN \
           [%d,%d]) AND (dest.tInf > self.tInf+%d) GROUP BY stage(dest.tInf-self.tInf)"
          lo hi k);
  |]

type request = {
  user : string;
  epsilon : float;
  sql : string;
  family : string;
  multi : bool;
  arrival : float;  (** seconds on the workload's logical arrival clock *)
}

(* A shape source: [next ()] is the next (family, sql) pair. *)
type shapes = unit -> family * string

(* Families visited in a fixed round-robin, so that every prefix of the
   stream holds the same families whatever the seed: runs at different
   seeds then differ in the constants, not in the cost mix. *)
let round_robin fams =
  let pos = ref (-1) in
  fun () ->
    incr pos;
    fams.(!pos mod Array.length fams)

(* Draw a query of family [f] that passes [valid] and was never drawn
   before from [seen]. *)
let draw_fresh ~valid ~seen rng f =
  let rec go tries =
    if tries = 0 then failwith ("perfbench: cannot draw a fresh valid query of family " ^ f.fam)
    else
      let sql = f.draw rng in
      if Hashtbl.mem seen sql || not (valid sql) then go (tries - 1)
      else begin
        Hashtbl.add seen sql ();
        sql
      end
  in
  go 10_000

(* Every request a new shape; [multi_every] = Some k puts one
   multi-ciphertext request at a seeded position in each block of k. *)
let fresh_shapes ~valid ?multi_every rng : shapes =
  let seen = Hashtbl.create 64 in
  let singles = round_robin single_families in
  let multis = round_robin multi_families in
  let block_pos = ref 0 and multi_slot = ref 0 in
  fun () ->
    let use_multi =
      match multi_every with
      | None -> false
      | Some k ->
        if !block_pos = 0 then multi_slot := Rng.int rng k;
        let m = !block_pos = !multi_slot in
        block_pos := (!block_pos + 1) mod k;
        m
    in
    let f = if use_multi then multis () else singles () in
    (f, draw_fresh ~valid ~seen rng f)

(* A working set of one shape per single-ciphertext family, asked with
   Zipf(1) popularity in the fixed family order: the first family is
   the most popular.  The ranking is fixed so that the bin layout mix,
   which sets how many members share a decryption session, does not
   vary with the seed. *)
let zipf_shapes ~valid rng : shapes * (family * string) array =
  let seen = Hashtbl.create 8 in
  let set = Array.map (fun f -> (f, draw_fresh ~valid ~seen rng f)) single_families in
  let weights = Array.mapi (fun i _ -> 1. /. float_of_int (i + 1)) set in
  let total = Array.fold_left ( +. ) 0. weights in
  let pick () =
    let u = Rng.float rng *. total in
    let rec go i acc =
      if i = Array.length set - 1 then i
      else
        let acc = acc +. weights.(i) in
        if u < acc then i else go (i + 1) acc
    in
    set.(go 0 0.)
  in
  (pick, set)

let users = 200
let epsilons = [| 0.1; 0.2; 0.5 |]

(* [n] requests from [shapes], with seeded analysts, epsilons and a
   Poisson arrival clock of [rate] requests per logical second. *)
let requests rng ~rate ~n (shapes : shapes) =
  let clock = ref 0. in
  Array.init n (fun _ ->
      let f, sql = shapes () in
      clock := !clock +. Rng.exponential rng rate;
      {
        user = Printf.sprintf "analyst%03d" (Rng.int rng users);
        epsilon = Rng.choose rng epsilons;
        sql;
        family = f.fam;
        multi = f.multi;
        arrival = !clock;
      })

(* One [mycelium serve] workload line per request. *)
let to_jsonl oc reqs =
  Array.iter
    (fun r ->
      output_string oc
        (Json.to_string
           (Json.Obj
              [
                ("user", Json.Str r.user);
                ("epsilon", Json.Num r.epsilon);
                ("query", Json.Str r.sql);
                ("arrival", Json.Num r.arrival);
              ]));
      output_char oc '\n')
    reqs
