#!/bin/sh
# Recover smoke: the crash-restart subsystem end to end, four legs.
#
#   1. Planted baseline: a crash-only sweep over the deliberately
#      non-recoverable naive-tas MUST produce recoverable-linearizability
#      violations, every one attributed to crashes (never to primitive
#      faults — there are none at f = 0), with a witness in the journal,
#      and the attribution columns and a minimized witness in the
#      report.
#   2. Recoverable protocols: the same sweep over rec-tas and rec-cas
#      must come back completely clean.
#   3. Durability: SIGKILL a crash-axis campaign mid-flight, resume it,
#      and prove the journal ends complete — every trial exactly once.
#   4. Distributed: the same crash axes through `campaign serve` plus
#      workers over a Unix socket must journal every trial exactly once
#      with the crash fields intact.
#
# This is the acceptance scenario of doc/RECOVERY.md run as a test;
# `make recover-smoke` and CI both drive it.
set -eu

ROOT=_campaigns
BIN=_build/default/bin/main.exe
CRASH_FLAGS="--crashes 1 --crash-rates 0.4 --persistence all"

dune build bin/main.exe

# ---- leg 1: the planted naive baseline must fail, crash-attributed ----

NAME=recover-smoke-naive
DIR="$ROOT/$NAME"
rm -rf "$DIR"
# shellcheck disable=SC2086 # CRASH_FLAGS is a flag list by construction
"$BIN" campaign run --name "$NAME" --protocol naive-tas \
  -f 0 -n 2 --rates 0.0 $CRASH_FLAGS --trials 300 --domains 2 --quiet

FAILS=$(grep -c '"ok":false' "$DIR/journal.jsonl" || true)
if [ "$FAILS" -eq 0 ]; then
  echo "recover-smoke FAILED: naive-tas produced no violations under crashes" >&2
  exit 1
fi
if ! grep -q '"ok":false.*"witness":\[' "$DIR/journal.jsonl"; then
  echo "recover-smoke FAILED: no witness journaled for a naive-tas violation" >&2
  exit 1
fi
# f = 0, rate 0: every violating trial must carry crash charges and no
# primitive ones.
if grep '"ok":false' "$DIR/journal.jsonl" | grep -q '"crash_faults":0'; then
  echo "recover-smoke FAILED: a violation without crash charges at f=0" >&2
  exit 1
fi
if grep '"ok":false' "$DIR/journal.jsonl" | grep -qv '"faults":0'; then
  echo "recover-smoke FAILED: a primitive fault charged in a crash-only cell" >&2
  exit 1
fi
"$BIN" campaign report --name "$NAME" >/dev/null
if ! grep -q 'attribution' "$DIR/report.md"; then
  echo "recover-smoke FAILED: report has no attribution column for a crash-axis campaign" >&2
  exit 1
fi
# the grid's one cell fails, so the report names its minimized witness
if ! grep -q '"min_witness":{"trial":' "$DIR/report.json"; then
  echo "recover-smoke FAILED: report.json has no min_witness for the naive-tas cell" >&2
  exit 1
fi
echo "recover-smoke: naive-tas planted baseline caught ($FAILS violations, crash-attributed, min_witness reported)"

# ---- leg 2: the recoverable protocols must stay clean ----

for PROTO in rec-tas rec-cas; do
  NAME="recover-smoke-$PROTO"
  DIR="$ROOT/$NAME"
  rm -rf "$DIR"
  # shellcheck disable=SC2086
  "$BIN" campaign run --name "$NAME" --protocol "$PROTO" \
    -f 0 -n 2 --rates 0.0 $CRASH_FLAGS --trials 300 --domains 2 --quiet
  if grep -q '"ok":false' "$DIR/journal.jsonl"; then
    echo "recover-smoke FAILED: $PROTO violated under a crash-only schedule" >&2
    grep '"ok":false' "$DIR/journal.jsonl" | head -3 >&2
    exit 1
  fi
  echo "recover-smoke: $PROTO clean under crash-only schedules"
done

# ---- leg 3: SIGKILL + resume, exactly once, with crash axes live ----

NAME=recover-smoke-chaos
DIR="$ROOT/$NAME"
rm -rf "$DIR"
TOTAL=200000
# Run the binary directly so the kill lands on the campaign process
# itself, not a wrapper that would orphan it.
"$BIN" campaign run --name "$NAME" --protocol naive-tas \
  -f 0 -n 2 --rates 0.0 --crashes 1 --crash-rates 0.2,0.4 --persistence all \
  --trials 100000 --domains 2 --quiet &
PID=$!
sleep 0.3
kill -9 "$PID" 2>/dev/null || true
wait "$PID" 2>/dev/null || true

BEFORE=$(wc -l <"$DIR/journal.jsonl" 2>/dev/null || echo 0)
if [ "$BEFORE" -ge "$TOTAL" ]; then
  echo "recover-smoke FAILED: campaign finished before the kill ($BEFORE trials); raise --trials" >&2
  exit 1
fi
echo "recover-smoke: killed the crash-axis campaign after ~$BEFORE journaled trials"

"$BIN" campaign resume --name "$NAME" --quiet

LINES=$(grep -c '"trial":' "$DIR/journal.jsonl")
UNIQUE=$(grep -o '"trial":[0-9]*' "$DIR/journal.jsonl" | sort -u | wc -l)
if [ "$LINES" -ne "$TOTAL" ] || [ "$UNIQUE" -ne "$TOTAL" ]; then
  echo "recover-smoke FAILED: $LINES journal lines, $UNIQUE unique trials, expected $TOTAL" >&2
  exit 1
fi
echo "recover-smoke: resume completed $TOTAL trials exactly once"

# ---- leg 4: the crash axes through the distributed path ----

NAME=recover-smoke-dist
DIR="$ROOT/$NAME"
SOCK="${TMPDIR:-/tmp}/ffault-recover-smoke-$$.sock"
TOTAL=2000
rm -rf "$DIR"
rm -f "$SOCK"

# shellcheck disable=SC2086
"$BIN" campaign serve --name "$NAME" --protocol naive-tas \
  --faults 0 --procs 2 --rates 0.0 $CRASH_FLAGS --trials 2000 \
  --listen "unix:$SOCK" --lease-trials 200 --quiet &
SERVE_PID=$!

tries=0
while [ ! -S "$SOCK" ]; do
  tries=$((tries + 1))
  if [ "$tries" -gt 100 ]; then
    echo "recover-smoke FAILED: coordinator never listened on $SOCK" >&2
    kill "$SERVE_PID" 2>/dev/null || true
    exit 1
  fi
  sleep 0.1
done

"$BIN" worker --connect "unix:$SOCK" --name recover-w1 --domains 2 --quiet &
W1=$!
"$BIN" worker --connect "unix:$SOCK" --name recover-w2 --domains 2 --quiet &
W2=$!

wait "$SERVE_PID"
wait "$W1"
wait "$W2"
rm -f "$SOCK"

LINES=$(grep -c '"trial":' "$DIR/journal.jsonl")
UNIQUE=$(grep -o '"trial":[0-9]*' "$DIR/journal.jsonl" | sort -u | wc -l)
if [ "$LINES" -ne "$TOTAL" ] || [ "$UNIQUE" -ne "$TOTAL" ]; then
  echo "recover-smoke FAILED (dist): $LINES journal lines, $UNIQUE unique trials, expected $TOTAL" >&2
  exit 1
fi
if ! grep -q '"crashes":1' "$DIR/journal.jsonl"; then
  echo "recover-smoke FAILED (dist): journal records lost the crash axes" >&2
  exit 1
fi
if ! grep -q '"ok":false' "$DIR/journal.jsonl"; then
  echo "recover-smoke FAILED (dist): naive-tas produced no violations through the workers" >&2
  exit 1
fi
"$BIN" campaign report --name "$NAME" >/dev/null

echo "recover-smoke OK: baseline caught, recoverable protocols clean, resume and dist exactly-once"
