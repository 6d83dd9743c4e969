(* The traced run: per-layer attribution of a workload's time.

   One system at the seed runs the timed stream in [slices] slices of
   [--seconds / slices] each, with [Obs] off and on in the order
   off-on-on-off-off-on, so that a drift of the host over the run
   falls on both arms alike.  The median qps (per CPU second) of the
   untraced slices over that of the traced ones is the tracing
   overhead.  The traced
   slices are split into the pipeline phases the program's own spans
   record on the submitting domain (gather, aggregate, summation,
   decrypt, with the mixnet, committee and summation-tree spans below
   them), plus two costs no span covers: committee rotation, estimated
   as probed unit cost x count, and serve admission, the median time of
   a [Serve.submit] that flushed nothing x the requests submitted.
   What is left is the unattributed residue. *)

open Harness
module Committee = Mycelium_core.Committee

let slices = 6
let traced_slice k = k mod 4 = 1 || k mod 4 = 2

(* Seconds spent in spans named [names] on domain [dom]. *)
let span_seconds spans ~dom names =
  List.fold_left
    (fun acc (s : Obs.span) ->
      if s.Obs.sp_dom = dom && List.mem s.Obs.sp_name names && not (Float.is_nan s.Obs.sp_end) then
        acc +. (s.Obs.sp_end -. s.Obs.sp_start)
      else acc)
    0. spans

let cnt name = float_of_int (Obs.Metrics.value (Obs.Metrics.counter name))

(* Releases per CPU second: the process CPU clock leaves out time the
   host gives to others, which would otherwise fall on one arm. *)
let qps r = float_of_int (Array.length r.releases) /. r.cpu_elapsed

let median_of f runs = Stats.median (Array.of_list (List.map f runs))

(* Median seconds of the admissions in [runs]; 0 where no request went
   through [Serve]. *)
let admit_median runs =
  let a = Array.concat (List.map (fun r -> r.admit_s) runs) in
  if Array.length a = 0 then 0. else Stats.median a

let run w seed ~seconds =
  (* The warm-up runs traced, so that the traced slices do not pay the
     registry's first use; the registry is then cleared. *)
  Obs.enable ();
  let sys, (_, reqs) = prepare w seed ~seconds in
  Obs.disable ();
  Obs.reset ();
  let slice_s = float_of_int seconds /. float_of_int slices in
  (* Slices of direct-local end on a block of [multi_every], not on the
     timed run's longer block. *)
  let block = match w.kind with Direct -> multi_every | Served _ -> w.block in
  let cursor = ref 0 and rotations = ref 0 in
  let minor = ref 0 and promoted = ref 0. in
  let plain = ref [] and traced = ref [] in
  for k = 0 to slices - 1 do
    let on = traced_slice k in
    if on then Obs.enable ();
    let gen0 = Committee.generation (Runtime.committee sys.rt) in
    let gc0 = Gc.quick_stat () in
    let r =
      drive ~block sys (Array.sub reqs !cursor (Array.length reqs - !cursor)) ~deadline:(now () +. slice_s)
    in
    let gc1 = Gc.quick_stat () in
    Obs.disable ();
    cursor := !cursor + r.attempted;
    if on then begin
      rotations := !rotations + Committee.generation (Runtime.committee sys.rt) - gen0;
      minor := !minor + gc1.Gc.minor_collections - gc0.Gc.minor_collections;
      promoted := !promoted +. gc1.Gc.promoted_words -. gc0.Gc.promoted_words;
      traced := r :: !traced
    end
    else plain := r :: !plain
  done;
  let top_heap_words = (Gc.quick_stat ()).Gc.top_heap_words in
  let plain = List.rev !plain and traced = List.rev !traced in
  let spans = Obs.all_spans () in
  let ok =
    List.concat_map (fun r -> Array.to_list r.releases |> List.filter_map (fun r -> Result.to_option r.outcome)) traced
  in
  let released = List.length ok in
  if released = 0 then fail "no request completed in the traced slices";
  let per_query x = x /. float_of_int released in
  let sum_results f = float_of_int (List.fold_left (fun acc r -> acc + f r) 0 ok) in
  (* Unit-cost probes at the workload's parameters and shapes; the
     serve workloads ask no multi-ciphertext shape, so theirs is drawn
     from the first multi-ciphertext family. *)
  let requests = Array.to_list reqs in
  let single = (List.find (fun q -> not q.Gen.multi) requests).Gen.sql in
  let multi =
    match List.find_opt (fun q -> q.Gen.multi) requests with
    | Some q -> q.Gen.sql
    | None -> Gen.multi_families.(0).Gen.draw (Rng.create seed)
  in
  let probes = Probes.run ~rt:sys.rt ~single ~multi ~hops:mix_config.Sim.hops in
  let probe n =
    let _, _, v = List.find (fun (m, _, _) -> String.equal m n) probes in
    v
  in
  (* Attribution of the traced slices' wall time. *)
  let wall = List.fold_left (fun acc r -> acc +. r.elapsed) 0. traced in
  let dom = (Domain.self () :> int) in
  let sp = span_seconds spans ~dom in
  let gather = sp [ "query.gather"; "batch.gather" ] in
  let summation = sp [ "query.summation" ] in
  let aggregate = sp [ "query.aggregate" ] -. summation in
  let decrypt = sp [ "query.decrypt"; "batch.decrypt" ] in
  let rotate = float_of_int !rotations *. probe "committee.rotate_ms" *. 1e-3 in
  let attempted runs = List.fold_left (fun acc r -> acc + r.attempted) 0 runs in
  let admit = float_of_int (attempted traced) *. admit_median traced in
  let attributed = gather +. aggregate +. summation +. decrypt +. rotate +. admit in
  let pct x = 100. *. x /. wall in
  let rows =
    [
      ("runtime.gather", gather, "span");
      ("  mixnet.round", sp [ "mixnet.round" ], "span");
      ("    mixnet.deposit", sp [ "mixnet.deposit" ], "span");
      ("    mixnet.stage", sp [ "mixnet.stage" ], "span");
      ("    mixnet.pickup", sp [ "mixnet.pickup" ], "span");
      ("runtime.aggregate (self)", aggregate, "span");
      ("runtime.summation", summation, "span");
      ("  sumtree.build", sp [ "sumtree.build" ], "span");
      ("runtime.decrypt", decrypt, "span");
      ("  committee.decrypt session", sp [ "committee.decrypt"; "committee.decrypt_batch" ], "span");
      ("committee.rotate", rotate, "probe x count");
      ("serve.admit", admit, "median x count");
      ("unattributed", wall -. attributed, "residue");
    ]
  in
  let overhead_pct = 100. *. (median_of qps plain /. median_of qps traced -. 1.) in
  (* The overhead is resolved only when it exceeds the spread of the
     untraced slices among themselves. *)
  let noise_pct =
    let q = List.map qps plain in
    100. *. (List.fold_left Float.max 0. q -. List.fold_left Float.min Float.infinity q) /. median_of qps plain
  in
  Printf.printf "# attribution of %s seed %Ld: %d releases in %.3f s over %d traced slices (%d spans)\n" w.name seed
    released wall (List.length traced) (List.length spans);
  List.iter (fun (n, s, how) -> Printf.printf "#   %-30s %9.4f s %6.2f%%  %s\n" n s (pct s) how) rows;
  Printf.printf "#   tracing overhead %.2f%% (%s: untraced slices spread %.2f%%; qps untraced %s, traced %s)\n"
    overhead_pct
    (if Float.abs overhead_pct > noise_pct then "resolved" else "unresolved")
    noise_pct
    (String.concat " " (List.map (fun r -> Printf.sprintf "%.2f" (qps r)) plain))
    (String.concat " " (List.map (fun r -> Printf.sprintf "%.2f" (qps r)) traced));
  List.iter (fun (n, u, v) -> Printf.printf "# probe %-28s %12.4f %s\n" n v u) probes;
  let ratio a b = if b = 0. then 0. else a /. b in
  let metrics =
    probes
    @ [
        metric "serve.admit_us" "us" (admit_median plain *. 1e6);
        metric "runtime.gather_pct" "%" (pct gather);
        metric "runtime.aggregate_pct" "%" (pct aggregate);
        metric "runtime.summation_pct" "%" (pct summation);
        metric "runtime.decrypt_pct" "%" (pct decrypt);
        metric "runtime.unattributed_pct" "%" (pct (wall -. attributed));
        metric "mixnet.round_pct" "%" (pct (sp [ "mixnet.round" ]));
        metric "mixnet.deposit_pct" "%" (pct (sp [ "mixnet.deposit" ]));
        metric "mixnet.stage_pct" "%" (pct (sp [ "mixnet.stage" ]));
        metric "mixnet.pickup_pct" "%" (pct (sp [ "mixnet.pickup" ]));
        metric "committee.decrypt_session_pct" "%" (pct (sp [ "committee.decrypt"; "committee.decrypt_batch" ]));
        metric "committee.rotate_pct" "%" (pct rotate);
        metric "sumtree.build_pct" "%" (pct (sp [ "sumtree.build" ]));
        metric "serve.admit_pct" "%" (pct admit);
        metric "committee.rotations_per_query" "count" (per_query (float_of_int !rotations));
        metric "bgv.encrypts_per_query" "count" (per_query (cnt Obs.Names.bgv_encrypts));
        metric "bgv.ciphertext_muls_per_query" "count" (per_query (cnt Obs.Names.bgv_ciphertext_muls));
        metric "bgv.relinearizations_per_query" "count" (per_query (cnt Obs.Names.bgv_relinearizations));
        metric "rq.limb_ntt_muls_per_query" "count" (per_query (cnt Obs.Names.rq_limb_ntt_muls));
        metric "faults.decryption_attempts_per_query" "count" (per_query (cnt Obs.Names.faults_decryption_attempts));
        metric "faults.channel_retries_per_query" "count" (per_query (cnt Obs.Names.faults_channel_retries));
        metric "faults.substituted_per_query" "count" (per_query (cnt Obs.Names.faults_substituted_contributions));
        metric "onion.layers_peeled_per_query" "count" (per_query (cnt Obs.Names.onion_layers_peeled));
        metric "mixnet.bytes_per_query" "B" (per_query (sum_results (fun r -> r.Runtime.mixnet_bytes)));
        metric "mixnet.lost_rows_per_query" "count" (per_query (sum_results (fun r -> r.Runtime.mixnet_losses)));
        metric "contribution.discarded_per_query" "count"
          (per_query (sum_results (fun r -> r.Runtime.discarded_contributions)));
        metric "serve.batch_members_mean" "count" (ratio (cnt Obs.Names.serve_batch_members) (cnt Obs.Names.serve_batches));
        metric "serve.cache_hit_ratio" "ratio"
          (ratio (cnt Obs.Names.serve_cache_hits)
             (cnt Obs.Names.serve_cache_hits +. cnt Obs.Names.serve_cache_misses));
        metric "serve.cache_evictions" "count" (cnt Obs.Names.serve_cache_evictions);
        metric "gc.minor_collections_per_query" "count"
          (per_query (float_of_int !minor));
        metric "gc.promoted_words_per_query" "count" (per_query !promoted);
        metric "gc.top_heap_mb" "MB" (float_of_int (top_heap_words * (Sys.word_size / 8)) /. 1e6);
        metric "obs.trace_overhead_pct" "%" overhead_pct;
      ]
  in
  let runs = plain @ traced in
  let failed = List.fold_left (fun acc r -> acc + r.rejected + List.length (errored r)) 0 runs in
  let checks = List.concat_map (outcome_checks w) runs in
  List.iter (fun (n, b) -> if not b then Printf.printf "# check %s FAILED\n" n) checks;
  (List.for_all snd checks, attempted runs, failed, metrics)
