#!/usr/bin/env bash
# Build the benchmark harness from source, then run it from the root of
# the checkout with the given arguments (see perfbench/README.md), e.g.
#   bash perfbench/run.sh --workload grid-1dom --seed 1 --seconds 10 --trace 0
# Build output goes to stderr, so the last line of stdout stays the
# harness's JSON result. Dune's shared cache is off because it lives
# outside the checkout.
set -eu
dune build --root . --cache=disabled ./perfbench/run.exe ./perfbench/calibrate.exe 1>&2
exec ./_build/default/perfbench/run.exe "$@"
