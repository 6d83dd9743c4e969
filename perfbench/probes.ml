(* Layer unit costs, measured by calling each layer's public functions
   with inputs shaped like a workload's: test_small parameters, the
   workload's graph and the workload's own query shapes.

   Each probe repeats its operation for a fixed slice of monotonic
   time and reports the median of per-repetition times, so one slow
   repetition (a major GC slice, a context switch) does not move it. *)

module Rng = Mycelium_util.Rng
module Stats = Mycelium_util.Stats
module Bgv = Mycelium_bgv.Bgv
module Params = Mycelium_bgv.Params
module Plaintext = Mycelium_bgv.Plaintext
module Rns = Mycelium_math.Rns
module Ring_backend = Mycelium_math.Ring_backend
module Zkp = Mycelium_zkp.Zkp
module Dp = Mycelium_dp.Dp
module Sha256 = Mycelium_crypto.Sha256
module Chacha20 = Mycelium_crypto.Chacha20
module Onion = Mycelium_mixnet.Onion
module Cg = Mycelium_graph.Contact_graph
module Parser = Mycelium_query.Parser
module Contribution = Mycelium_core.Contribution
module Summation_tree = Mycelium_core.Summation_tree
module Committee = Mycelium_core.Committee
module Runtime = Mycelium_core.Runtime

let slice_s = 0.15

(* Median seconds per call of [f] over [slice_s] of repetitions (at
   least three), each repetition [batch] calls long so that cheap
   operations outweigh the clock reads. *)
let per_call ?(batch = 1) f =
  let times = ref [] and n = ref 0 in
  let stop = Harness.now () +. slice_s in
  while !n < 3 || Harness.now () < stop do
    let t0 = Harness.now () in
    for _ = 1 to batch do
      ignore (Sys.opaque_identity (f ()))
    done;
    times := (Harness.now () -. t0) /. float_of_int batch :: !times;
    incr n
  done;
  Stats.median (Array.of_list !times)

let info_of rt sql =
  match Parser.parse sql with
  | Error _ -> failwith ("perfbench probe: unparsable query " ^ sql)
  | Ok q -> (
    match Runtime.validate_query rt q with
    | Ok info -> info
    | Error _ -> failwith ("perfbench probe: invalid query " ^ sql))

(* [single] and [multi] are a single- and a multi-ciphertext shape of
   the workload. *)
let run ~(rt : Runtime.t) ~single ~multi ~hops =
  let params = (Runtime.config rt).Runtime.params in
  let ctx = Bgv.make_ctx params in
  let rng = Rng.create 0x9E0BE5L in
  let sk, pk = Bgv.keygen ctx rng in
  let relin = Bgv.relin_keygen ctx rng sk ~max_degree:(Cg.degree_bound (Runtime.graph rt) + 3) in
  let srs = Zkp.setup rng in
  let graph = Runtime.graph rt in
  let dest = Cg.vertex graph 0 in
  let edge = match Cg.neighbors graph 0 with (_, e) :: _ -> Some e | [] -> None in
  let info1 = info_of rt single and infom = info_of rt multi in
  let contribution = Contribution.build srs ctx rng pk info1 ~dest ~edge in
  let pt = Plaintext.monomial ~plain_modulus:params.Params.plain_modulus ~degree:params.Params.degree ~exponent:3 in
  let ct = Bgv.encrypt ctx (Rng.create 7L) pk pt in
  let proof =
    match Zkp.prove_contribution srs ctx pk ~plaintext:pt ~seed:7L ct with
    | Some p -> p
    | None -> failwith "perfbench probe: honest contribution has no proof"
  in
  let cts = Array.init (Cg.degree_bound graph + 1) (fun i -> Bgv.encrypt_value ctx rng pk i) in
  let product = Bgv.mul_many (Array.to_list cts) in
  let limb = Array.init params.Params.degree (fun _ -> Rng.int rng 1000) in
  let plan = (Rns.plans (Bgv.basis ctx)).(0) in
  let block = Rng.bytes rng 65536 in
  let key = Rng.bytes rng 32 and nonce = Chacha20.nonce_of_round 1 in
  let hop_keys = List.init hops (fun _ -> Rng.bytes rng Onion.layer_key_size) in
  let onion_payload = Rng.bytes rng (Contribution.wire_size ctx info1) in
  let leaves = Array.init (Cg.population graph) (fun i -> Bgv.encrypt_value ctx rng pk (i mod 8)) in
  let members =
    List.init 4 (fun i ->
        ( { Committee.b_info = info1; b_epsilon = 0.5; b_noise_rng = Rng.create (Int64.of_int i) },
          Bgv.encrypt_value ctx rng (Runtime.public_key rt) 1 ))
  in
  let comm = Runtime.committee rt in
  let mb_per_s f = float_of_int (Bytes.length block) /. per_call f /. 1e6 in
  [
    ("contribution.build_ms", "ms", per_call (fun () -> Contribution.build srs ctx rng pk info1 ~dest ~edge) *. 1e3);
    ("contribution.build_multi_ms", "ms", per_call (fun () -> Contribution.build srs ctx rng pk infom ~dest ~edge) *. 1e3);
    ("contribution.verify_ms", "ms", per_call (fun () -> Contribution.verify srs ctx info1 contribution) *. 1e3);
    ("zkp.prove_ms", "ms", per_call (fun () -> Zkp.prove_contribution srs ctx pk ~plaintext:pt ~seed:7L ct) *. 1e3);
    ("zkp.verify_ms", "ms", per_call (fun () -> Zkp.verify_contribution srs ctx ct proof) *. 1e3);
    ("bgv.encrypt_ms", "ms", per_call (fun () -> Bgv.encrypt ctx rng pk pt) *. 1e3);
    ("bgv.mul_us", "us", per_call ~batch:20 (fun () -> Bgv.mul cts.(0) cts.(1)) *. 1e6);
    ("bgv.relinearize_ms", "ms", per_call (fun () -> Bgv.relinearize ctx relin product) *. 1e3);
    ("bgv.serialize_us", "us", per_call ~batch:20 (fun () -> Bgv.serialize ct) *. 1e6);
    ("ntt.forward_us", "us", per_call ~batch:100 (fun () -> Ring_backend.forward plan limb) *. 1e6);
    ("sha256.mb_per_s", "MB/s", mb_per_s (fun () -> Sha256.digest block));
    ("chacha20.mb_per_s", "MB/s", mb_per_s (fun () -> Chacha20.encrypt ~key ~nonce block));
    ("onion.wrap_us", "us", per_call ~batch:20 (fun () -> Onion.wrap ~hop_keys ~round:1 onion_payload) *. 1e6);
    ("sumtree.build_ms", "ms", per_call (fun () -> Summation_tree.build leaves) *. 1e3);
    ("committee.rotate_ms", "ms", per_call (fun () -> Committee.rotate comm rng ~population:(Cg.population graph)) *. 1e3);
    ("committee.decrypt_batch_ms", "ms", per_call (fun () -> Committee.decrypt_batch comm rng ctx ~members) *. 1e3);
    ("dp.noise_ns", "ns", per_call ~batch:1000 (fun () -> Dp.laplace_noise rng ~sensitivity:8. ~epsilon:0.5) *. 1e9);
  ]
