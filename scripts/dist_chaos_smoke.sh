#!/bin/sh
# Distributed chaos smoke: a coordinator shards a 100k-trial grid to
# three worker processes over a Unix socket, one worker is SIGKILLed
# mid-campaign, and the run must still finish with every trial
# journaled exactly once — the killed worker's lease expires, its shard
# is re-leased with the journaled trials excluded, and the zombie's
# stale results (if any) are deduped by trial id. This is the
# exactly-once claim of doc/DISTRIBUTED.md run as a test;
# `make dist-chaos-smoke` and CI both drive it.
#
# The coordinator and chaos-w1 and chaos-w2 trace. The coordinator's
# merged trace holds a row of the killed chaos-w1, cut mid-span, and its
# own ring overflows on this grid; chaos-w2 writes its own file. Both
# files must hold as many span ends as begins, and chaos-w2's row in each
# no more than the 65,536 events a trace row keeps. The script prints the
# coordinator's and chaos-w2's peak RSS.
#
# The survivors chaos-w2 and chaos-w3 must show their Results written in
# groups: their own counters, piggybacked on their last beats into
# workers.json, must hold at least 16 frames per write (about 1 when
# each frame is a write of its own; 39–46 with grouped Result writes).
#
# A second, shorter leg serves one 200,000-trial lease to one traced
# 4-domain worker under a 10 s heartbeat, so the flush beat before its
# Complete drains four full rings, up to 262,144 spans. A beat ships at
# most the newest 65,536 of them, far under the wire's 16 MiB frame cap:
# the worker must exit 0, the lease complete, and the serve trace hold
# the worker's row with 1 to 65,536 events.
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

# Workers must not race the coordinator's bind.
await_listen() {
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
}

# Run the binaries directly (not through `dune exec`) so the kill lands
# on the worker process itself, not a wrapper that would orphan it.
# Small leases + a short timeout keep the post-kill reclaim quick.
"$BIN" campaign serve --name "$NAME" --protocol fig3 \
  --faults 1..2 --bound 1 --procs 3 --rates 0.3,0.6 --trials 25000 \
  --listen "unix:$SOCK" --status "unix:$STATUS_SOCK" \
  --lease-trials 500 --lease-timeout 2 \
  --hb-interval 0.5 --trace "$DIR/trace.json" --quiet &
SERVE_PID=$!
mkdir -p "$SCRAPES"
await_listen

"$BIN" worker --connect "unix:$SOCK" --name chaos-w1 --domains 2 \
  --trace "$DIR/trace-chaos-w1.json" --quiet &
W1=$!
"$BIN" worker --connect "unix:$SOCK" --name chaos-w2 --domains 2 \
  --trace "$DIR/trace-chaos-w2.json" --quiet &
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

# One worker's counter in workers.json: each worker's object is cut
# onto a line of its own first.
worker_counter() {
  sed 's/{"name":"/\n&/g' "$DIR/workers.json" | grep "^{\"name\":\"$1\"" \
    | grep -o "\"$2\":[0-9]*" | head -1 | cut -d: -f2
}
FRAMES_PER_WRITE=16
for w in chaos-w2 chaos-w3; do
  FRAMES=$(worker_counter "$w" dist.frames_sent)
  WRITES=$(worker_counter "$w" dist.writes)
  if [ -z "$FRAMES" ] || [ -z "$WRITES" ] || [ "$WRITES" -eq 0 ] \
    || [ "$FRAMES" -lt $((FRAMES_PER_WRITE * WRITES)) ]; then
    echo "dist-chaos-smoke FAILED: $w sent ${FRAMES:-no} frames in ${WRITES:-no} writes, expected at least $FRAMES_PER_WRITE frames per write" >&2
    exit 1
  fi
  echo "$w: $FRAMES frames in $WRITES writes"
done

if [ ! -s "$DIR/events.jsonl" ]; then
  echo "dist-chaos-smoke FAILED: coordinator streamed no events.jsonl" >&2
  exit 1
fi

# A coordinator reports its connected-workers gauge (a pool run does not).
if ! grep -q '"dist.workers_connected"' "$DIR/telemetry.json"; then
  echo "dist-chaos-smoke FAILED: coordinator's telemetry.json has no dist.workers_connected gauge" >&2
  exit 1
fi

# A trace holds as many span ends as begins, in the expected number of
# process rows: the coordinator's and one per tracing worker that
# shipped spans, or the worker's own. The totals can agree while a track
# does not, so each (pid, tid) track is also walked in file order: no
# end before its begin, none left open.
tracks_nest() {
  grep -o '"ph":"[BE]","ts":[^,]*,"tid":[0-9]*,"pid":[0-9]*' "$1" \
    | awk -F'[:,]' '{ k = $8 " " $6; d[k] += ($2 == "\"B\"") ? 1 : -1; if (d[k] < 0) bad = 1 }
        END { for (k in d) if (d[k] != 0) bad = 1; exit bad }'
}
check_trace() {
  B=$(grep -o '"ph":"B"' "$1" | wc -l)
  E=$(grep -o '"ph":"E"' "$1" | wc -l)
  ROWS=$(grep -o '"name":"process_name"' "$1" | wc -l)
  if [ "$B" -eq 0 ] || [ "$B" -ne "$E" ] || [ "$ROWS" -ne "$2" ] || ! tracks_nest "$1"; then
    echo "dist-chaos-smoke FAILED: $1 has $B begins, $E ends and $ROWS process row(s), expected equal counts nesting on every track, and $2 row(s)" >&2
    exit 1
  fi
}
check_trace "$DIR/trace.json" 3
check_trace "$DIR/trace-chaos-w2.json" 1

# Every row keeps its newest 65,536 events, as each tracer ring does.
# chaos-w2 exits cleanly, so the writer closes none of its spans: its
# row holds exactly the events kept for it.
row_events() {
  pid=$(grep -o '"pid":[0-9]*,"tid":0,"args":{"name":"'"$2"'"}' "$1" | sed 's/^"pid":\([0-9]*\).*/\1/')
  grep -o '"ph":"[BEi]","ts":[^,]*,"tid":[0-9]*,"pid":[0-9]*' "$1" \
    | awk -F'"pid":' -v pid="$pid" '$2 == pid { n++ } END { print n + 0 }'
}
for f in "$DIR/trace.json" "$DIR/trace-chaos-w2.json"; do
  N=$(row_events "$f" chaos-w2)
  if [ "$N" -eq 0 ] || [ "$N" -gt 65536 ]; then
    echo "dist-chaos-smoke FAILED: chaos-w2's row in $f holds $N events, expected 1 to 65536" >&2
    exit 1
  fi
done

peak_kb() { grep -o '"process.peak_rss_kb":[0-9]*' | head -1 | cut -d: -f2; }
echo "process.peak_rss_kb: coordinator $(peak_kb <"$DIR/telemetry.json"), chaos-w2 $(grep -o '"name":"chaos-w2".*' "$DIR/workers.json" | peak_kb)"

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

# The oversized-beat leg.
BEAT_DIR="$ROOT/$NAME-beat"
rm -rf "$BEAT_DIR"
"$BIN" campaign serve --name "$NAME-beat" --protocol herlihy -f 1 -n 3 --rates 0.5 \
  --trials 200000 --lease-trials 200000 --hb-interval 10 \
  --listen "unix:$SOCK" --trace "$BEAT_DIR/trace.json" --quiet &
SERVE_PID=$!
await_listen
if ! "$BIN" worker --connect "unix:$SOCK" --name beat-w --domains 4 \
  --trace "$BEAT_DIR/trace-beat-w.json" --quiet; then
  echo "dist-chaos-smoke FAILED: the 4-domain traced worker died (a flush beat over the frame cap?)" >&2
  kill "$SERVE_PID" 2>/dev/null || true
  rm -f "$SOCK"
  exit 1
fi
wait "$SERVE_PID"
rm -f "$SOCK"
if ! grep -q '"leases":{"granted":1,"completed":1,"expired":0}' "$BEAT_DIR/workers.json"; then
  echo "dist-chaos-smoke FAILED: the 200000-trial lease did not complete" >&2
  cat "$BEAT_DIR/workers.json" >&2
  exit 1
fi
N=$(row_events "$BEAT_DIR/trace.json" beat-w)
if [ "$N" -eq 0 ] || [ "$N" -gt 65536 ]; then
  echo "dist-chaos-smoke FAILED: beat-w's row in $BEAT_DIR/trace.json holds $N events, expected 1 to 65536" >&2
  exit 1
fi
echo "oversized beat: beat-w exited 0, its lease completed, its serve row holds $N events"

echo "dist-chaos-smoke OK: $TOTAL trials exactly once across 3 workers (one SIGKILLed at ~$BEFORE)"
grep -A2 '^## Workers' "$DIR/report.md" | tail -1
