#!/bin/sh
# Memory smoke: a long campaign, and every pass over its journal, must
# fit in about the memory of a short one. Each leg measures one command
# at two sizes, the second ten times the first, on 2 domains, and fails
# when the larger run's peak resident set exceeds the smaller run's by
# more than 16 MiB.
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

# bound NAME SMALL LARGE A B: peak A at SMALL trials/cell and peak B at
# LARGE must both be readings, and B may exceed A by SLACK_KB at most.
bound() {
  if [ -z "$4" ] || [ -z "$5" ] || [ "$4" -eq 0 ] || [ "$5" -eq 0 ]; then
    echo "mem-smoke FAILED ($1): no peak RSS reading ('$4', '$5')" >&2
    exit 1
  fi
  GROWTH=$(($5 - $4))
  if [ "$GROWTH" -gt "$SLACK_KB" ]; then
    echo "mem-smoke FAILED ($1): peak RSS grew from $4 kB at $2 trials/cell to $5 kB at $3 (+$GROWTH kB, bound $SLACK_KB)" >&2
    exit 1
  fi
  echo "mem-smoke OK ($1): peak RSS $4 kB at $2 trials/cell, $5 kB at $3 (+$GROWTH kB, bound $SLACK_KB)"
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
  bound "$NAME" "$SMALL" "$LARGE" "$(peak_kb "$NAME-$SMALL")" "$(peak_kb "$NAME-$LARGE")"
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
bound mem-smoke-report 100000 1000000 "${1:-}" "${3:-}"
bound mem-smoke-resume 100000 1000000 "${2:-}" "${4:-}"
