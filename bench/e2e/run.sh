#!/bin/sh
# Build the end-to-end benchmark from source and run it. Start it from the
# root of a checkout; the arguments go to the benchmark, e.g.
#
#   sh bench/e2e/run.sh --workload tpcc-10w --seed 1 --seconds 20 --trace 0
#
# Build output goes to stderr, so the last line of stdout is the result.
# The dune cache is disabled so that nothing is written outside the
# checkout.
set -e
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "run.sh: no dune-project and lib/ here; start from the repository root" >&2
  exit 2
fi
dune build --root . --cache=disabled --display=quiet ./bench/e2e/main.exe >&2
exec ./_build/default/bench/e2e/main.exe "$@"
