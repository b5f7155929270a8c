#!/bin/sh
# Memory smoke: a long campaign, and every pass over its journal, must
# fit in about the memory of a short one, and a traced campaign in about
# the memory of an untraced one. Each leg measures one command twice on
# 2 domains (the size legs at two sizes, the second ten times the
# first), and fails when the second run's peak resident set exceeds the
# first's by more than 16 MiB (48 MiB for the trace leg).
# - crash and hang legs: the engine unwinds every simulated process it
#   abandons (a crash-restart's old incarnation, a nonresponsive hang);
#   a process left suspended instead would keep its fiber stack until
#   the campaign exits. Peak: `process.peak_rss_kb` in telemetry.json.
# - report leg: `campaign report` streams the journal once
#   (Journal.scan) and keeps per-cell accumulators, not the records. It
#   writes no telemetry.json, so its VmHWM is polled every 20 ms.
# - resume leg: `campaign resume` over a journal cut to its first 3/4
#   lines plus 40 bytes of the next one. It reads only the torn tail to
#   repair it, scans the journal once, and hands the pool the missing
#   ids as ranges, not as a list. Peak: the resume's telemetry.json.
# - trace leg: a 100,000-trial herlihy grid without and then with
#   --trace, enough to fill both domains' rings of 65,536 events. The
#   tracer gives a domain its ring at its first record, so a traced run
#   holds a ring per running domain, not one per shard (64 rings cost
#   about 34 MB), and the writer balances the rows over the tracer's own
#   events and prints one event at a time, building no JSON document.
#   The bound, 48 MiB, covers two full rings and the writer's working
#   lists. Peak: VmHWM polled every 20 ms, since telemetry.json is
#   written before the trace is.
# `make mem-smoke` and CI both drive it.
set -eu

ROOT=_campaigns
BIN=_build/default/bin/main.exe
SLACK_KB=16384

dune build bin/main.exe

# The process.peak_rss_kb gauge of campaign $1 (empty when absent).
peak_kb() {
  grep -o '"process.peak_rss_kb":[0-9]*' "$ROOT/$1/telemetry.json" | cut -d: -f2
}

# The peak resident set of a command that writes no telemetry.json: its
# VmHWM, read every 20 ms while it runs (stdout discarded).
polled_peak_kb() {
  "$@" >/dev/null &
  PID=$!
  PEAK=0
  while kill -0 "$PID" 2>/dev/null; do
    KB=$(sed -n 's/^VmHWM:[[:space:]]*\([0-9]*\) kB$/\1/p' "/proc/$PID/status" 2>/dev/null || true)
    if [ -n "$KB" ] && [ "$KB" -gt "$PEAK" ]; then PEAK=$KB; fi
    sleep 0.02
  done
  wait "$PID"
  echo "$PEAK"
}

# bound NAME FIRST SECOND A B [SLACK]: peak A of the FIRST run and peak
# B of the SECOND must both be readings, and B may exceed A by SLACK kB
# (default SLACK_KB) at most.
bound() {
  if [ -z "$4" ] || [ -z "$5" ] || [ "$4" -eq 0 ] || [ "$5" -eq 0 ]; then
    echo "mem-smoke FAILED ($1): no peak RSS reading ('$4', '$5')" >&2
    exit 1
  fi
  SLACK=${6:-$SLACK_KB}
  GROWTH=$(($5 - $4))
  if [ "$GROWTH" -gt "$SLACK" ]; then
    echo "mem-smoke FAILED ($1): peak RSS grew from $4 kB $2 to $5 kB $3 (+$GROWTH kB, bound $SLACK)" >&2
    exit 1
  fi
  echo "mem-smoke OK ($1): peak RSS $4 kB $2, $5 kB $3 (+$GROWTH kB, bound $SLACK)"
}

# leg NAME SMALL LARGE GRID-FLAGS...: run the grid at SMALL, then at
# LARGE trials per cell, and compare the two runs' peaks.
leg() {
  NAME=$1
  SMALL=$2
  LARGE=$3
  shift 3
  for T in "$SMALL" "$LARGE"; do
    rm -rf "$ROOT/$NAME-$T"
    "$BIN" campaign run --name "$NAME-$T" --trials "$T" --domains 2 --quiet "$@"
  done
  bound "$NAME" "at $SMALL trials/cell" "at $LARGE" \
    "$(peak_kb "$NAME-$SMALL")" "$(peak_kb "$NAME-$LARGE")"
}

# Crash-restarts: each abandons the crashing process's old incarnation.
leg mem-smoke-crash 20000 200000 \
  --protocol naive-tas -f 0 -n 2 --crashes 1 --crash-rates 0.4
# Nonresponsive faults: each abandons the hung process.
leg mem-smoke-hang 10000 100000 \
  --protocol fig3 -f 1..2 -t 1 -n 3 --kinds nonresponsive --rates 0.3

# The journal legs, over one failing herlihy cell (a witness on about
# half of its lines). journal_peaks T runs the grid whole at T trials,
# reports it, then cuts and resumes it, and prints the peaks of the
# report and of the resume. The commands' own output goes to stderr.
journal_peaks() {
  NAME=mem-smoke-journal-$1
  JOURNAL=$ROOT/$NAME/journal.jsonl
  rm -rf "${ROOT:?}/$NAME"
  "$BIN" campaign run --name "$NAME" --trials "$1" --domains 2 --quiet \
    --protocol herlihy -f 1 -n 3 --rates 0.5 >&2
  REPORT_KB=$(polled_peak_kb "$BIN" campaign report --name "$NAME")
  LINES=$(wc -l <"$JOURNAL")
  KEEP=$((LINES * 3 / 4))
  {
    head -n "$KEEP" "$JOURNAL"
    sed -n "$((KEEP + 1))p" "$JOURNAL" | head -c 40
  } >"$JOURNAL.cut"
  mv "$JOURNAL.cut" "$JOURNAL"
  "$BIN" campaign resume --name "$NAME" --domains 2 --quiet >&2
  echo "$REPORT_KB $(peak_kb "$NAME")"
}
SMALL=$(journal_peaks 100000)
LARGE=$(journal_peaks 1000000)
set -- $SMALL $LARGE
bound mem-smoke-report "at 100000 trials/cell" "at 1000000" "${1:-}" "${3:-}"
bound mem-smoke-resume "at 100000 trials/cell" "at 1000000" "${2:-}" "${4:-}"

# The trace leg: a grid that fills both rings, untraced, then traced.
for NAME in mem-smoke-untraced mem-smoke-traced; do
  rm -rf "${ROOT:?}/$NAME"
done
GRID="--trials 100000 --domains 2 --quiet --protocol herlihy -f 1 -n 3 --rates 0.5"
UNTRACED_KB=$(polled_peak_kb "$BIN" campaign run --name mem-smoke-untraced $GRID)
TRACED_KB=$(polled_peak_kb "$BIN" campaign run --name mem-smoke-traced $GRID \
  --trace "$ROOT/mem-smoke-traced/trace.json")
bound mem-smoke-trace untraced traced "$UNTRACED_KB" "$TRACED_KB" 49152
