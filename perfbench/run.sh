#!/usr/bin/env bash
# Build the Mycelium benchmark from source and run it.
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the root of a checkout.  The build goes to _build/ in the
# checkout, with dune's shared cache off so nothing is written outside
# it; build output goes to stderr, so the last stdout line is the
# benchmark's result.  Workloads and metrics: BENCHMARK.json.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f perfbench/main.ml ]; then
  echo "perfbench: not at the root of a mycelium checkout (dune-project, lib/ or perfbench/ missing)" >&2
  exit 2
fi

command -v dune >/dev/null 2>&1 || eval "$(opam env 2>/dev/null)" || true

export DUNE_CACHE=disabled
dune build --root . ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
