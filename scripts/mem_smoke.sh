#!/bin/sh
# Memory smoke: a long crash or hang campaign must fit in about the
# memory of a short one. The engine unwinds every simulated process it
# abandons (a crash-restart's old incarnation, a nonresponsive hang); a
# process left suspended instead would keep its fiber stack until the
# campaign exits, so peak memory would grow with the trial count. Each
# leg runs its grid twice on 2 domains, the second run ten times as
# long, and fails when the longer run's peak resident set
# (`process.peak_rss_kb` in telemetry.json) exceeds the shorter run's by
# more than 16 MiB. `make mem-smoke` and CI both drive it.
set -eu

ROOT=_campaigns
BIN=_build/default/bin/main.exe
SLACK_KB=16384

dune build bin/main.exe

# The process.peak_rss_kb gauge of campaign $1 (empty when absent).
peak_kb() {
  grep -o '"process.peak_rss_kb":[0-9]*' "$ROOT/$1/telemetry.json" | cut -d: -f2
}

# leg NAME SMALL LARGE GRID-FLAGS...: run the grid at SMALL, then at
# LARGE trials per cell, and compare the two peaks.
leg() {
  NAME=$1
  SMALL=$2
  LARGE=$3
  shift 3
  for T in "$SMALL" "$LARGE"; do
    rm -rf "$ROOT/$NAME-$T"
    "$BIN" campaign run --name "$NAME-$T" --trials "$T" --domains 2 --quiet "$@"
  done
  A=$(peak_kb "$NAME-$SMALL")
  B=$(peak_kb "$NAME-$LARGE")
  if [ -z "$A" ] || [ -z "$B" ] || [ "$A" -eq 0 ] || [ "$B" -eq 0 ]; then
    echo "mem-smoke FAILED ($NAME): no peak RSS reading (process.peak_rss_kb: '${A}', '${B}')" >&2
    exit 1
  fi
  GROWTH=$((B - A))
  if [ "$GROWTH" -gt "$SLACK_KB" ]; then
    echo "mem-smoke FAILED ($NAME): peak RSS grew from $A kB at $SMALL trials/cell to $B kB at $LARGE (+$GROWTH kB, bound $SLACK_KB)" >&2
    exit 1
  fi
  echo "mem-smoke OK ($NAME): peak RSS $A kB at $SMALL trials/cell, $B kB at $LARGE (+$GROWTH kB, bound $SLACK_KB)"
}

# Crash-restarts: each abandons the crashing process's old incarnation.
leg mem-smoke-crash 20000 200000 \
  --protocol naive-tas -f 0 -n 2 --crashes 1 --crash-rates 0.4
# Nonresponsive faults: each abandons the hung process.
leg mem-smoke-hang 10000 100000 \
  --protocol fig3 -f 1..2 -t 1 -n 3 --kinds nonresponsive --rates 0.3
