#!/bin/sh
# Captures the ffault command-line surface: the plain help of every
# command and subcommand, then the output and exit code of invocations
# that are rejected before they read or write any campaign state.
#   sh capture.sh path/to/main.exe > cli.out
# The runtest rule diffs the capture against cli.expected; after an
# intended change to the surface, `dune promote` accepts the new one.
BIN=$1

help() {
  echo "=== ffault $* --help=plain"
  "$BIN" "$@" --help=plain 2>&1
  echo "[exit $?]"
}

run() {
  echo "=== ffault $*"
  "$BIN" "$@" 2>&1
  echo "[exit $?]"
}

help
for c in experiment list trace explore replay falsify critical severity hierarchy \
  multicore campaign worker netsim lint; do
  help "$c"
done
help trace merge
for c in run resume serve status report diff; do
  help campaign "$c"
done

run --version
run explore --protocol bogus
run trace --protocol bogus
run replay --protocol bogus
run falsify --protocol bogus
run critical --protocol bogus
run replay --decisions 1,x
run experiment E99
run campaign run --rates 2
run campaign run --rates 2 --deadline 0
run campaign run --kinds bogus
run campaign run -f x
run campaign run --persistence bogus
run campaign run --spec missing.spec
run campaign run --deadline 0
run campaign run --deadline 1e999
run campaign run --max-retries=-1
run campaign run --quarantine-after 0
run campaign run --adaptive-deadline
run campaign resume --root missing-root --name missing
run campaign serve --listen unix:x --hb-interval 0
run campaign serve --listen unix:x --lease-trials 0
run campaign serve --listen unix:x --rates 2
run campaign serve --listen unix:x --deadline 0
run campaign serve --listen unix:x --adaptive-deadline
run campaign serve --listen bogus
run campaign report --root missing-root --name missing
run campaign diff missing-a missing-b
run worker --connect bogus
run lint --rules nope
run lint --explain nope
