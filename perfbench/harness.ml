(* Workloads, the closed-loop client, the correctness gate and the
   end-to-end metrics of the Mycelium benchmark (see main.ml). *)

module Rng = Mycelium_util.Rng
module Stats = Mycelium_util.Stats
module Params = Mycelium_bgv.Params
module Cg = Mycelium_graph.Contact_graph
module Epidemic = Mycelium_graph.Epidemic
module Runtime = Mycelium_core.Runtime
module Sim = Mycelium_mixnet.Sim
module Fault_plan = Mycelium_faults.Fault_plan
module Serve = Mycelium_serve.Serve
module Semantics = Mycelium_query.Semantics
module Analysis = Mycelium_query.Analysis
module Parser = Mycelium_query.Parser
module Obs = Mycelium_obs.Obs
module Json = Obs.Json

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s); exit 2) fmt

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

type kind =
  | Served of { cache_capacity : int; mixnet : bool }
      (** through [Serve] at batch 8 with the §6.3 fault plan *)
  | Direct  (** [Runtime.run_query], one query at a time, no faults *)

type workload = {
  name : string;
  kind : kind;
  per_second : int;  (** requests generated per timed second: a ceiling on qps *)
  block : int;  (** a run holds whole blocks of this many requests *)
}

(* On direct-local, one request in each block of this many is a
   multi-ciphertext shape. *)
let multi_every = 4

(* serve-repeat: dashboard analysts asking a handful of shapes; the
   cache is larger than the working set, so the timed run is the
   cache-hit path (admission, threshold decryption, rotation, noise).
   serve-fresh-mixnet: exploratory analysts, every shape new, rows
   routed through the mixnet; the cache only takes writes and evicts.
   direct-local: a library user on the sequential pipeline with 1 in 4
   queries a §4.5 multi-ciphertext family; device and aggregator
   crypto dominate.  Its runs end on a block of 20 requests, which
   holds each multi-ciphertext family once and each single-ciphertext
   family three times, so every run has the same cost mix. *)
let workloads =
  [
    { name = "serve-repeat"; kind = Served { cache_capacity = 64; mixnet = false }; per_second = 2000; block = 1 };
    { name = "serve-fresh-mixnet"; kind = Served { cache_capacity = 8; mixnet = true }; per_second = 20; block = 1 };
    { name = "direct-local"; kind = Direct; per_second = 20; block = Array.length Gen.multi_families * multi_every };
  ]

(* One pool domain: on a 2-vCPU host, two runs of one seed at 2 domains
   differed by up to 45% in qps, at one domain by 5%.  With one domain
   the process CPU time the figures are taken on (calib.ml) is the
   pipeline's own, with nothing running in parallel. *)
let domains = 1

let batch_size = 8

(* Requests per logical second on the arrival clock: fast enough that
   8 arrivals almost never outlast the 1 s batch deadline, so batches
   fill by size and a run's batch sizes do not vary with the seed. *)
let arrival_rate = 50.

let population = 16
let degree_bound = 4

let mix_config =
  { Sim.default_config with Sim.hops = 2; replicas = 2; fraction = 0.4; fast_setup = true; verify_proofs = false }

(* The §6.3 fault plan of the bench fixture.  Like the graph it is part
   of the deployment and does not vary with the seed: which devices
   churn changes how much work a query does. *)
let fault_plan =
  Fault_plan.make ~drop_rate:0.1 ~churn_rate:0.1 ~crashed_committee:[ 2 ] ~seed:2024L ()

(* The bench fixture's graph: 16 devices, degree bound 4, built from
   the fixture's own seed exactly as [mycelium serve --population 16
   --degree 4 --seed 4242] builds it, so a written workload replays on
   the same graph.  The graph is the deployment, not the workload: it
   stays fixed while the seed varies the requests, keys and noise. *)
let graph_seed = 4242L

let make_graph () =
  let rng = Rng.create graph_seed in
  let g =
    Cg.generate { Cg.default_config with Cg.population; degree_bound; extra_contact_rate = 1.5 } rng
  in
  let (_ : Epidemic.outcome) = Epidemic.run Epidemic.default_config rng g in
  g

let runtime_config w seed ~faults =
  let served_mixnet = match w.kind with Served { mixnet; _ } -> mixnet | Direct -> false in
  {
    Runtime.default_config with
    Runtime.params = Params.test_small;
    degree_bound;
    seed;
    epsilon_budget = Float.max_float;
    domains;
    faults = (if faults then Some fault_plan else None);
    route_through_mixnet = (if served_mixnet then Some mix_config else None);
  }

type system = { rt : Runtime.t; srv : Serve.t option }

let setup w seed =
  let rt =
    Runtime.init
      (runtime_config w seed ~faults:(match w.kind with Served _ -> true | Direct -> false))
      (make_graph ())
  in
  let srv =
    match w.kind with
    | Direct -> None
    | Served { cache_capacity; _ } ->
      Some
        (Serve.create
           ~config:{ Serve.default_config with Serve.batch_size; cache_capacity; per_user_budget = 1e9; seed }
           rt)
  in
  { rt; srv }

(* The request stream of [w] at [seed], split into the warm-up requests
   (run before timing) and the timed stream.  Pure in the seed. *)
let streams w seed ~seconds ~valid =
  let rng = Rng.create (Rng.mix64 seed 0x57A7L) in
  let shapes, warm_n =
    match w.kind with
    | Served { mixnet = false; _ } ->
      (* Warm-up asks each shape of the working set once, filling the
         cache before timing starts. *)
      let pick, set = Gen.zipf_shapes ~valid rng in
      let k = ref (-1) in
      ((fun () ->
         incr k;
         if !k < Array.length set then set.(!k) else pick ()),
       Array.length set)
    | Served { mixnet = true; _ } -> (Gen.fresh_shapes ~valid rng, w.block)
    | Direct ->
      (* Warm-up is the stream's first block of [multi_every], so the
         timed stream starts on a block boundary. *)
      (Gen.fresh_shapes ~valid ~multi_every rng, multi_every)
  in
  let n = w.per_second * seconds in
  let all = Gen.requests rng ~rate:arrival_rate ~n:(warm_n + n) shapes in
  (Array.sub all 0 warm_n, Array.sub all warm_n n)

(* ------------------------------------------------------------------ *)
(* One closed-loop run                                                 *)
(* ------------------------------------------------------------------ *)

type release = {
  idx : int;  (** request index in the timed stream *)
  latency : float;  (** submit to release, seconds *)
  cpu_latency : float;
      (** CPU seconds of the program from submit to release, calibration
          samples left out (see calib.ml) *)
  outcome : (Runtime.query_result, string) result;
  cache_hit : bool;
}

type run = {
  releases : release array;  (** by request index *)
  attempted : int;
  rejected : int;
  elapsed : float;
  cpu_elapsed : float;  (** CPU seconds of the program over the run *)
  admit_s : float array;
      (** seconds of each [Serve.submit] call that flushed nothing: pure
          admission at the workload's own queue depth *)
}

let err_string e = Serve.rejection_to_string (Serve.Invalid e)

(* Submit [reqs] in order; stop submitting once [deadline] (monotonic
   seconds) passes, then drain.  Returns the releases of the submitted
   requests. *)
let drive ?(block = 1) ?cal sys (reqs : Gen.request array) ~deadline =
  let cpu = match cal with Some c -> fun () -> Calib.work c | None -> Calib.cpu in
  let start = now () and cpu_start = cpu () in
  let out = ref [] and rejected = ref 0 and i = ref 0 and admit = ref [] in
  let n = Array.length reqs in
  (match sys.srv with
  | Some srv ->
    let submitted = Hashtbl.create 256 in
    let collect rs =
      let t = now () and c = cpu () in
      List.iter
        (fun (r : Serve.response) ->
          let idx, t0, c0 = Hashtbl.find submitted r.Serve.seq in
          out :=
            {
              idx;
              latency = t -. t0;
              cpu_latency = c -. c0;
              outcome = Result.map_error err_string r.Serve.outcome;
              cache_hit = r.Serve.cache_hit;
            }
            :: !out)
        rs
    in
    (* Past the deadline, keep submitting until the open batch has
       flushed, so that every run ends on a batch boundary. *)
    while !i < n && (now () < deadline || Serve.pending_count srv > 0) do
      let q = reqs.(!i) in
      let t0 = now () and c0 = cpu () in
      let admission, flushed =
        Serve.submit srv ~arrival:q.Gen.arrival
          { Serve.user = q.Gen.user; epsilon = q.Gen.epsilon; sql = q.Gen.sql; name = Some q.Gen.family }
      in
      if flushed = [] then admit := (now () -. t0) :: !admit;
      (match admission with
      | Serve.Queued seq -> Hashtbl.replace submitted seq (!i, t0, c0)
      | Serve.Rejected _ -> incr rejected);
      collect flushed;
      incr i
    done;
    collect (Serve.drain srv)
  | None ->
    (* Past the deadline, finish the open block of [block] requests,
       so that every run holds whole blocks of the stream's mix. *)
    while !i < n && (now () < deadline || !i mod block > 0) do
      let q = reqs.(!i) in
      let t0 = now () and c0 = cpu () in
      let r = Runtime.run_query ~epsilon:q.Gen.epsilon sys.rt q.Gen.sql in
      out :=
        {
          idx = !i;
          latency = now () -. t0;
          cpu_latency = cpu () -. c0;
          outcome = Result.map_error err_string r;
          cache_hit = false;
        }
        :: !out;
      incr i
    done);
  let releases = Array.of_list !out in
  Array.sort (fun a b -> compare a.idx b.idx) releases;
  {
    releases;
    attempted = !i;
    rejected = !rejected;
    elapsed = now () -. start;
    cpu_elapsed = cpu () -. cpu_start;
    admit_s = Array.of_list !admit;
  }

(* The timed run, with the host-speed calibration sampled through it. *)
let timed_run w sys reqs ~seconds =
  let cal = Calib.create () in
  let run =
    Calib.sampling cal (fun () -> drive ~block:w.block ~cal sys reqs ~deadline:(now () +. float_of_int seconds))
  in
  (run, cal)

let warm_up sys warm = ignore (drive sys warm ~deadline:Float.infinity)

(* A fresh system at [seed], warmed up, and its request streams. *)
let prepare w seed ~seconds =
  let sys = setup w seed in
  let valid sql =
    match Parser.parse sql with
    | Error _ -> false
    | Ok q -> Result.is_ok (Runtime.validate_query sys.rt q)
  in
  let ((warm, _) as s) = streams w seed ~seconds ~valid in
  warm_up sys warm;
  (sys, s)

(* ------------------------------------------------------------------ *)
(* Correctness gate                                                    *)
(* ------------------------------------------------------------------ *)

(* The released bytes of one query: every bin and every decoded value,
   bit for bit. *)
let release_bytes (r : Runtime.query_result) =
  let b = Buffer.create 256 in
  Array.iter (fun f -> Buffer.add_string b (Printf.sprintf "%h;" f)) r.Runtime.noisy_bins;
  (match r.Runtime.result with
  | Semantics.Histogram groups ->
    Array.iter
      (fun (l, bins) ->
        Buffer.add_string b l;
        Array.iter (fun f -> Buffer.add_string b (Printf.sprintf "%h;" f)) bins)
      groups
  | Semantics.Sums groups ->
    Array.iter (fun (l, v) -> Buffer.add_string b (Printf.sprintf "%s=%h;" l v)) groups);
  Buffer.contents b

(* Per-release failure probability of the Laplace tail check: a bin
   lies farther than b ln(1/delta) from the truth with probability
   delta, for scale b = sensitivity / epsilon. *)
let tail_delta = 1e-12

let within_tail (r : Runtime.query_result) ~epsilon ~exact =
  let info = r.Runtime.info in
  let bound = info.Analysis.sensitivity /. epsilon *. log (1. /. tail_delta) in
  let exactf = Array.map float_of_int exact in
  match info.Analysis.query.Mycelium_query.Ast.output with
  | Mycelium_query.Ast.Histo _ ->
    Array.length exactf = Array.length r.Runtime.noisy_bins
    && Array.for_all2 (fun n e -> Float.abs (n -. e) <= bound) r.Runtime.noisy_bins exactf
  | Mycelium_query.Ast.Gsum _ -> (
    (* GSUM releases the exact bins and noises each group's sum once *)
    Array.length exactf = Array.length r.Runtime.noisy_bins
    && Array.for_all2 Float.equal r.Runtime.noisy_bins exactf
    &&
    match (r.Runtime.result, Semantics.decode info exactf) with
    | Semantics.Sums noisy, Semantics.Sums truth ->
      Array.length noisy = Array.length truth
      && Array.for_all2 (fun (_, n) (_, e) -> Float.abs (n -. e) <= bound) noisy truth
    | (Semantics.Sums _ | Semantics.Histogram _), _ -> false)

type verdict = { checks : (string * bool) list; incorrect : int }

let errored run = Array.to_list run.releases |> List.filter (fun r -> Result.is_error r.outcome)

(* The checks every run makes, traced or not: nothing errored or was
   refused, and the workload took the cache path it is meant to. *)
let outcome_checks w run =
  [
    ("every admitted request returns Ok", errored run = [] && run.rejected = 0);
    ("every submitted request was released", Array.length run.releases + run.rejected = run.attempted);
  ]
  @
  match w.kind with
  | Served { mixnet = false; _ } ->
    [ ("every timed request hit the warm cache", Array.for_all (fun r -> r.cache_hit) run.releases) ]
  | Served { mixnet = true; _ } ->
    [ ("every fresh shape missed the cache", Array.for_all (fun r -> not r.cache_hit) run.releases) ]
  | Direct -> []

(* The bins of [r] equal the oracle's bit for bit. *)
let exact_bins rt (r : Runtime.query_result) =
  let exact = Array.map float_of_int (Runtime.exact_bins_for_tests rt r.Runtime.info) in
  Array.length exact = Array.length r.Runtime.noisy_bins
  && Array.for_all2
       (fun a b -> Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))
       r.Runtime.noisy_bins exact

(* Shapes the oracle check replays: on the serve workloads up to one
   decryption session's worth of distinct shapes, on direct-local one
   multi- and one single-ciphertext shape. *)
let oracle_sample w seed (attempted : Gen.request array) =
  let rng = Rng.create (Rng.mix64 seed 0x0AC1EL) in
  let pick pred =
    let pool = Array.of_list (List.filter pred (Array.to_list attempted)) in
    if Array.length pool = 0 then [] else [ Rng.choose rng pool ]
  in
  let sql (q : Gen.request) = q.Gen.sql in
  match w.kind with
  | Direct -> List.map sql (pick (fun q -> q.Gen.multi) @ pick (fun q -> not q.Gen.multi))
  | Served _ ->
    let shapes = Array.of_list (List.sort_uniq compare (List.map sql (Array.to_list attempted))) in
    Rng.shuffle rng shapes;
    Array.to_list (Array.sub shapes 0 (min 4 (Array.length shapes)))

(* Replay [sample] at epsilon = infinity on [twin], a fault-free twin
   of the system, along the path the workload times, and compare every
   release with the plaintext oracle bit for bit.  On the serve
   workloads the sample goes through a [Serve] over the twin twice:
   batched together as cache misses (run_batch, monomial-shifted
   windows in one decryption session), then again as cache hits. *)
let oracle_check w seed twin sample =
  match w.kind with
  | Direct ->
    List.for_all
      (fun sql ->
        match Runtime.run_query ~epsilon:Float.infinity twin sql with
        | Error _ -> false
        | Ok r -> exact_bins twin r)
      sample
  | Served _ ->
    let srv =
      Serve.create
        ~config:{ Serve.default_config with Serve.batch_size; allow_unbudgeted = true; seed }
        twin
    in
    let round ~hit =
      List.iter
        (fun sql ->
          match
            fst
              (Serve.submit srv ~arrival:0.
                 { Serve.user = "oracle"; epsilon = Float.infinity; sql; name = None })
          with
          | Serve.Queued _ -> ()
          | Serve.Rejected r -> fail "oracle replay refused: %s" (Serve.rejection_to_string r))
        sample;
      let rs = Serve.drain srv in
      List.length rs = List.length sample
      && List.for_all
           (fun (r : Serve.response) ->
             Bool.equal r.Serve.cache_hit hit
             && match r.Serve.outcome with Ok qr -> exact_bins twin qr | Error _ -> false)
           rs
    in
    let misses = round ~hit:false in
    misses && round ~hit:true

let gate w seed (reqs : Gen.request array) (run : run) ~(again : run) =
  let checks = ref (List.rev (outcome_checks w run)) in
  let check name ok = checks := (name, ok) :: !checks in
  let incorrect = ref (List.length (errored run)) in
  (* A fault-free twin on the same graph and channel: its plaintext
     oracle is the truth the checks below compare to. *)
  let twin = Runtime.init (runtime_config w seed ~faults:false) (make_graph ()) in
  (* direct-local: every release lies within the Laplace tail bound of
     the oracle *)
  (match w.kind with
  | Direct ->
    let bad =
      Array.to_list run.releases
      |> List.filter (fun r ->
             match r.outcome with
             | Error _ -> false
             | Ok qr ->
               not
                 (within_tail qr ~epsilon:reqs.(r.idx).Gen.epsilon
                    ~exact:(Runtime.exact_bins_for_tests twin qr.Runtime.info)))
    in
    incorrect := !incorrect + List.length bad;
    check "direct-local releases lie within the Laplace tail bound" (bad = [])
  | Served _ -> ());
  let sample = oracle_sample w seed (Array.sub reqs 0 run.attempted) in
  check
    (match w.kind with
    | Direct -> "sampled shapes at epsilon = infinity equal the oracle bit for bit"
    | Served _ -> "sampled shapes at epsilon = infinity, batched and cached, equal the oracle")
    (sample <> [] && oracle_check w seed twin sample);
  (* Repeats of one seed release identical bytes: [again] is a fresh
     system at the same seed replaying the warm-up and the first
     requests. *)
  let same =
    Array.length again.releases > 0
    && Array.length again.releases = again.attempted
    && Array.for_all
         (fun a ->
           match Array.find_opt (fun b -> b.idx = a.idx) run.releases with
           | Some { outcome = Ok y; _ } -> (
             match a.outcome with Ok x -> String.equal (release_bytes x) (release_bytes y) | Error _ -> false)
           | Some { outcome = Error _; _ } | None -> false)
         again.releases
  in
  check "a replay at the same seed releases identical bytes" same;
  { checks = List.rev !checks; incorrect = !incorrect }

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let metric name unit (v : float) = (name, unit, v)

(* The result line: one JSON object, every value with all 17
   significant digits. *)
let result_line ~correct ~attempted ~failed metrics =
  let str x = Json.to_string (Json.Str x) in
  let one (n, u, v) = Printf.sprintf "%s:{\"value\":%.17g,\"unit\":%s}" (str n) v (str u) in
  Printf.sprintf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}" correct attempted failed
    (String.concat "," (List.map one metrics))

let setup_repeats = 25

(* Median time of [setup_repeats] set-ups (graph generation,
   Runtime.init and Serve.create) in reference seconds, after one
   untimed set-up that fills the process-wide tables every later set-up
   shares.  A calibration sample precedes each set-up. *)
let measure_setup w seed =
  ignore (setup w seed);
  let cal = Calib.create () in
  let times =
    Array.init setup_repeats (fun _ ->
        Calib.sample cal;
        let t0 = Calib.work cal in
        ignore (Sys.opaque_identity (setup w seed));
        Calib.work cal -. t0)
  in
  Stats.median times *. Calib.factor cal

(* Requests the same-seed replay runs after the warm-up: a fixed count,
   so that what the replayed system retains does not depend on how many
   requests the timed run got through. *)
let replay_count w =
  match w.kind with Served { mixnet = true; _ } -> batch_size / 2 | Served _ -> 4 * batch_size | Direct -> 2

(* Megabytes of heap reachable from a system. *)
let retained_mb sys = float_of_int (Obj.reachable_words (Obj.repr sys) * (Sys.word_size / 8)) /. 1e6

(* [clock] of each release that returned Ok: its wall latency by default. *)
let latencies ?(clock = fun r -> r.latency) run =
  Array.of_list
    (List.filter_map
       (fun r -> match r.outcome with Ok _ -> Some (clock r) | Error _ -> None)
       (Array.to_list run.releases))

(* Write the attempted requests as a [mycelium serve] workload file. *)
let write_workload w seed reqs =
  let dir = Filename.concat "perfbench" "out" in
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  let path = Filename.concat dir (Printf.sprintf "%s-seed%Ld.jsonl" w.name seed) in
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> Gen.to_jsonl oc reqs);
  Printf.printf "# workload written to %s (replay: mycelium serve %s --population %d --degree %d --seed %Ld)\n"
    path path population degree_bound graph_seed

(* Releases per reference second of the timed run. *)
let qps_ref run ~factor =
  float_of_int (Array.length (latencies run)) /. (run.cpu_elapsed *. factor)

let report w seed ~(reqs : Gen.request array) run (cal : Calib.t) ~setup_s =
  let factor = Calib.factor cal in
  let wall = latencies run in
  let lat = latencies ~clock:(fun r -> r.cpu_latency *. factor) run in
  let ok = Array.length lat in
  let mixnet_bytes =
    Array.fold_left
      (fun acc r -> match r.outcome with Ok qr -> acc + qr.Runtime.mixnet_bytes | Error _ -> acc)
      0 run.releases
  in
  Printf.printf "# %s seed %Ld: %d attempted, %d released in %.3f s wall, %.3f s CPU" w.name seed
    run.attempted ok run.elapsed run.cpu_elapsed;
  Printf.printf " (%.2f qps wall, %.2f reference)\n" (float_of_int ok /. run.elapsed) (qps_ref run ~factor);
  Printf.printf "# host: CPU/wall %.3f; calibration kernel median %.4f ms over %d samples" (run.cpu_elapsed /. run.elapsed)
    (1e3 *. Calib.median_s cal) (List.length cal.Calib.samples);
  Printf.printf ", %.4f reference s per CPU s\n" factor;
  (* The highest whole percentile with at least 10 samples beyond it;
     p90 is printed too, but stands on fewer than 10 samples when a run
     releases fewer than 100 requests. *)
  let top = Float.floor (100. *. (1. -. 10. /. float_of_int ok)) in
  Printf.printf
    "# reference latency samples %d: p50 %.4f s, p90 %.4f s%s (wall p50 %.4f s); mixnet %d B/query; setup %.4f s\n" ok
    (Stats.percentile lat 50.) (Stats.percentile lat 90.)
    (if top > 50. then Printf.sprintf ", p%.0f %.4f s (10 samples beyond)" top (Stats.percentile lat top) else "")
    (Stats.percentile wall 50.) (mixnet_bytes / ok) setup_s;
  let fams = List.sort_uniq compare (Array.to_list (Array.map (fun q -> q.Gen.family) reqs)) in
  List.iter
    (fun f ->
      let l =
        Array.of_list
          (List.filter_map
             (fun r ->
               if String.equal reqs.(r.idx).Gen.family f then Some (r.cpu_latency *. factor) else None)
             (Array.to_list run.releases))
      in
      if Array.length l > 0 then
        Printf.printf "# family %-5s %5d requests, median reference latency %.4f s\n" f (Array.length l)
          (Stats.median l))
    fams

(* The end-to-end run: set-up, warm-up, the timed run, a same-seed
   replay, the correctness gate.  Returns [(correct, attempted, failed,
   metrics)]. *)
let end_to_end w seed ~seconds =
  let setup_s = measure_setup w seed in
  let sys, (warm, reqs) = prepare w seed ~seconds in
  let run, cal = timed_run w sys reqs ~seconds in
  let factor = Calib.factor cal in
  let lat = latencies ~clock:(fun r -> r.cpu_latency *. factor) run in
  if Array.length lat = 0 then fail "no request completed in %d s" seconds;
  (* A fresh system at the same seed replays the warm-up and a fixed
     number of requests; the heap it then retains is the memory metric. *)
  let replay = setup w seed in
  warm_up replay warm;
  let again = drive replay (Array.sub reqs 0 (min run.attempted (replay_count w))) ~deadline:Float.infinity in
  let live_heap_mb = retained_mb replay in
  report w seed ~reqs run cal ~setup_s;
  Printf.printf "# retained by the system after warm-up + %d requests: %.4f MB\n" again.attempted live_heap_mb;
  let v = gate w seed reqs run ~again in
  List.iter (fun (n, b) -> Printf.printf "# check %-74s %s\n" n (if b then "ok" else "FAILED")) v.checks;
  let failed = run.rejected + v.incorrect in
  Printf.printf "# failed_ratio %d/%d = %.4f\n" failed run.attempted
    (float_of_int failed /. float_of_int run.attempted);
  write_workload w seed (Array.sub reqs 0 run.attempted);
  ( List.for_all snd v.checks,
    run.attempted,
    failed,
    [
      metric "qps_ref" "1/s" (qps_ref run ~factor);
      metric "latency_p50_ref_s" "s" (Stats.percentile lat 50.);
      metric "setup_s" "s" setup_s;
      metric "live_heap_mb" "MB" live_heap_mb;
    ] )
