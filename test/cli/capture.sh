#!/bin/sh
# Captures the ffault command-line surface: the plain help of every
# command and subcommand, then the output and exit code of invocations
# that are rejected before they read or write any campaign state, and
# last two seeded runs that write no files (a trace and a replay), which
# pin the instance heading and the trace rendering.
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
run explore --protocol fig3
run trace --protocol fig3
run explore --protocol fig3 -f 0 -t 1
run explore --protocol fig3 -t 0
run explore --protocol fig1 -n 0
run replay --decisions 1,x
run experiment E99
run multicore --deadline 0
run multicore --domains 0
run multicore --runs 0
run multicore --rate 2
run multicore -f 0
run multicore -t 0
run campaign run --rates 2
run campaign run --rates 2 --deadline 0
run campaign run --protocol herlihy -f 1 -n 2 --rates nan --trials 5
run campaign run --protocol herlihy -f 1 -n 2 --crash-rates nan --trials 5
run campaign run --kinds bogus
run campaign run -f x
run campaign run --persistence bogus
run campaign run --spec missing.spec
run campaign run --deadline 0
run campaign run --deadline 1e999
run campaign run --max-retries=-1
run campaign run --quarantine-after 0
run campaign run --adaptive-deadline
run campaign run --protocol fig3
run campaign run --protocol fig3 -f 0 -t 1
run campaign resume --root missing-root --name missing
run campaign serve --listen unix:x --hb-interval 0
run campaign serve --listen unix:x --lease-trials 0
run campaign serve --listen unix:x --rates 2
run campaign serve --listen unix:x --deadline 0
run campaign serve --listen unix:x --adaptive-deadline
run campaign serve --listen unix:x --protocol fig3
run campaign serve --listen bogus
run campaign report --root missing-root --name missing
run campaign diff missing-a missing-b
run worker --connect bogus
run lint --rules nope
run lint --explain nope
run trace --protocol fig3 -f 1 -t 1 -n 2 --seed 4 --rate 0.5
run replay --protocol herlihy -f 1 -n 3 --decisions 1,0,1,1
