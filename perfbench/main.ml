(* The Mycelium benchmark.

     bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>

   One closed-loop client drives one of three analyst workloads for
   [--seconds] of monotonic-clock time, then a correctness gate checks
   the releases.  With [--trace 0] the last stdout line reports the
   end-to-end metrics, timed in reference seconds that take the host's
   speed out (calib.ml); with [--trace 1] a separate traced run splits the
   workload's time across the layers (spans and counters the program
   records, plus unit costs probed here) and reports the per-layer
   metrics.  Workloads, metrics and bounds are declared in
   BENCHMARK.json. *)

open Harness
module Pool = Mycelium_parallel.Pool

let overriding_env = [ "MYCELIUM_DOMAINS"; "MYCELIUM_TRACE"; "MYCELIUM_LEDGER" ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME one of the BENCHMARK.json workloads");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_int seconds, "S length of the timed run");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or the traced per-layer run (1)");
    ]
    (fun a -> fail "unexpected argument %s" a)
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  List.iter
    (fun v ->
      match Sys.getenv_opt v with
      | Some _ -> fail "%s is set; it overrides the configuration being measured" v
      | None -> ())
    overriding_env;
  let w =
    match List.find_opt (fun w -> String.equal w.name !workload) workloads with
    | Some w -> w
    | None -> fail "unknown workload %S" !workload
  in
  if !seconds < 1 then fail "--seconds must be positive";
  let seed = Int64.of_int !seed in
  Pool.configure ~domains;
  Printf.printf "# env: nproc %d, domains %d, ocaml %s\n" (Domain.recommended_domain_count ())
    (Pool.current_domains ()) Sys.ocaml_version;
  let correct, attempted, failed, metrics =
    match !trace with
    | 0 -> end_to_end w seed ~seconds:!seconds
    | 1 -> Traced.run w seed ~seconds:!seconds
    | n -> fail "--trace must be 0 or 1, not %d" n
  in
  print_endline (result_line ~correct ~attempted ~failed metrics)
