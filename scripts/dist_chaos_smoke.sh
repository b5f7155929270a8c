#!/bin/sh
# Distributed chaos smoke: a coordinator shards a 100k-trial grid to
# three worker processes over a Unix socket, one worker is SIGKILLed
# mid-campaign, and the run must still finish with every trial
# journaled exactly once — the killed worker's lease expires, its shard
# is re-leased with the journaled trials excluded, and the zombie's
# stale results (if any) are deduped by trial id. This is the
# exactly-once claim of doc/DISTRIBUTED.md run as a test;
# `make dist-chaos-smoke` and CI both drive it.
set -eu

ROOT=_campaigns
NAME=dist-chaos-smoke
DIR="$ROOT/$NAME"
BIN=_build/default/bin/main.exe
SOCK="${TMPDIR:-/tmp}/ffault-dist-chaos-$$.sock"
STATUS_SOCK="${TMPDIR:-/tmp}/ffault-dist-chaos-status-$$.sock"
SCRAPES="$DIR/scrapes"
# grid: f in 1..2 (2) x rates 0.3,0.6 (2) = 4 cells x 25000 trials.
# Sized so the campaign outlasts the kill and the post-kill scrapes of
# the status endpoint, about 1.5 s in.
TOTAL=100000

dune build bin/main.exe
rm -rf "$DIR"
rm -f "$SOCK" "$STATUS_SOCK"

# Run the binaries directly (not through `dune exec`) so the kill lands
# on the worker process itself, not a wrapper that would orphan it.
# Small leases + a short timeout keep the post-kill reclaim quick.
"$BIN" campaign serve --name "$NAME" --protocol fig3 \
  --faults 1..2 --bound 1 --procs 3 --rates 0.3,0.6 --trials 25000 \
  --listen "unix:$SOCK" --status "unix:$STATUS_SOCK" \
  --lease-trials 500 --lease-timeout 2 \
  --hb-interval 0.5 --quiet &
SERVE_PID=$!
mkdir -p "$SCRAPES"

# Workers must not race the coordinator's bind.
tries=0
while [ ! -S "$SOCK" ]; do
  tries=$((tries + 1))
  if [ "$tries" -gt 100 ]; then
    echo "dist-chaos-smoke FAILED: coordinator never listened on $SOCK" >&2
    kill "$SERVE_PID" 2>/dev/null || true
    exit 1
  fi
  sleep 0.1
done

"$BIN" worker --connect "unix:$SOCK" --name chaos-w1 --domains 2 --quiet &
W1=$!
"$BIN" worker --connect "unix:$SOCK" --name chaos-w2 --domains 2 --quiet &
W2=$!
"$BIN" worker --connect "unix:$SOCK" --name chaos-w3 --domains 2 --quiet &
W3=$!

# Let the campaign get moving, then scrape the live endpoint: the
# status summary must be well-formed running-state JSON and the
# exposition must carry ffault_-prefixed samples.
sleep 0.6
"$BIN" campaign status --connect "unix:$STATUS_SOCK" --format json > "$SCRAPES/status-mid.json"
"$BIN" campaign status --connect "unix:$STATUS_SOCK" --get /metrics > "$SCRAPES/metrics-mid.txt"
"$BIN" campaign status --connect "unix:$STATUS_SOCK" --get /workers > "$SCRAPES/workers-mid.json"
if ! grep -q '"version":1' "$SCRAPES/status-mid.json" \
  || ! grep -q '"state":"running"' "$SCRAPES/status-mid.json"; then
  echo "dist-chaos-smoke FAILED: mid-campaign /status is not well-formed running JSON" >&2
  cat "$SCRAPES/status-mid.json" >&2
  exit 1
fi
if ! grep -q '^# TYPE ffault_' "$SCRAPES/metrics-mid.txt"; then
  echo "dist-chaos-smoke FAILED: /metrics exposition has no ffault_ samples" >&2
  exit 1
fi

# Murder one worker mid-lease.
BEFORE=$(grep -c '"trial":' "$DIR/journal.jsonl" 2>/dev/null || echo 0)
if [ "$BEFORE" -ge "$TOTAL" ]; then
  echo "dist-chaos-smoke FAILED: campaign finished before the kill ($BEFORE trials); raise --trials" >&2
  exit 1
fi
kill -9 "$W1" 2>/dev/null || true
echo "killed worker chaos-w1 after ~$BEFORE journaled trials"

# Within one heartbeat interval the coordinator must have noticed: the
# dead worker shows up no-longer-connected in /workers and its
# departure lands in the event log.
sleep 0.5
"$BIN" campaign status --connect "unix:$STATUS_SOCK" --get /workers > "$SCRAPES/workers-postkill.json"
"$BIN" campaign status --connect "unix:$STATUS_SOCK" --get /status > "$SCRAPES/status-postkill.json"
"$BIN" campaign status --connect "unix:$STATUS_SOCK" --get /metrics > "$SCRAPES/metrics-postkill.txt"
"$BIN" campaign status --connect "unix:$STATUS_SOCK" --get /events > "$SCRAPES/events-postkill.json"
W1ROW=$(grep -o '"name":"chaos-w1"[^}]*' "$SCRAPES/workers-postkill.json" || true)
case "$W1ROW" in
  *'"connected":false'*) ;;
  *'"stale":true'*) ;;
  *)
    echo "dist-chaos-smoke FAILED: killed worker not flagged in /workers: $W1ROW" >&2
    cat "$SCRAPES/workers-postkill.json" >&2
    exit 1
    ;;
esac
if ! grep -q 'chaos-w1 left' "$SCRAPES/events-postkill.json"; then
  echo "dist-chaos-smoke FAILED: /events has no departure for chaos-w1" >&2
  exit 1
fi

# The survivors and the coordinator must converge on a complete journal.
wait "$SERVE_PID"
wait "$W2"
wait "$W3"
wait "$W1" 2>/dev/null || true
rm -f "$SOCK" "$STATUS_SOCK"

LINES=$(grep -c '"trial":' "$DIR/journal.jsonl")
UNIQUE=$(grep -o '"trial":[0-9]*' "$DIR/journal.jsonl" | sort -u | wc -l)
if [ "$LINES" -ne "$TOTAL" ] || [ "$UNIQUE" -ne "$TOTAL" ]; then
  echo "dist-chaos-smoke FAILED: $LINES journal lines, $UNIQUE unique trials, expected $TOTAL" >&2
  exit 1
fi

if [ ! -f "$DIR/workers.json" ]; then
  echo "dist-chaos-smoke FAILED: coordinator left no workers.json" >&2
  exit 1
fi

if [ ! -s "$DIR/events.jsonl" ]; then
  echo "dist-chaos-smoke FAILED: coordinator streamed no events.jsonl" >&2
  exit 1
fi

# A coordinator reports its connected-workers gauge (a pool run does not).
if ! grep -q '"dist.workers_connected"' "$DIR/telemetry.json"; then
  echo "dist-chaos-smoke FAILED: coordinator's telemetry.json has no dist.workers_connected gauge" >&2
  exit 1
fi

"$BIN" campaign report --name "$NAME" >/dev/null
if ! grep -q '^## Workers' "$DIR/report.md"; then
  echo "dist-chaos-smoke FAILED: report.md has no Workers section" >&2
  exit 1
fi
# The kill must be visible: at least one lease expired and was reassigned.
if ! grep -q 'expired and reassigned' "$DIR/report.md"; then
  echo "dist-chaos-smoke FAILED: no reassigned lease in the Workers ledger (was the worker killed too late?)" >&2
  grep -A4 '^## Workers' "$DIR/report.md" >&2 || true
  exit 1
fi

echo "dist-chaos-smoke OK: $TOTAL trials exactly once across 3 workers (one SIGKILLed at ~$BEFORE)"
grep -A2 '^## Workers' "$DIR/report.md" | tail -1
