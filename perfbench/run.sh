#!/usr/bin/env bash
# Builds the benchmark from source, then runs it with the given arguments:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Build output goes to stderr, so the result stays the last stdout line.
# The dune cache is off and temporary files go to .perfbench_tmp, so a run
# writes only inside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
export DUNE_CACHE=disabled
export TMPDIR="$PWD/.perfbench_tmp"
mkdir -p "$TMPDIR"
dune build --root . ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
