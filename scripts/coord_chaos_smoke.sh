#!/bin/sh
# Coordinator chaos smoke: three workers grind a 100k-trial grid, the
# live COORDINATOR is SIGKILLed mid-campaign, and a `serve --resume` of
# the same campaign must finish it — epoch-fenced against the dead
# incarnation's leases, recovering the lease table from the journal.
# The workers are started exactly once: they must ride out the outage
# with their bounded reconnect backoff, re-Hello to the next epoch, and
# exit 0 with the campaign complete. This is the failover sequence of
# doc/DISTRIBUTED.md run as a test; `make coord-chaos-smoke` and CI
# both drive it.
set -eu

ROOT=_campaigns
NAME=coord-chaos-smoke
DIR="$ROOT/$NAME"
BIN=_build/default/bin/main.exe
SOCK="${TMPDIR:-/tmp}/ffault-coord-chaos-$$.sock"
STATUS_SOCK="${TMPDIR:-/tmp}/ffault-coord-chaos-status-$$.sock"
SCRAPES="$DIR/scrapes"
# grid: f in 1..2 (2) x rates 0.3,0.6 (2) = 4 cells x 25000 trials.
# Sized so the resumed half runs for several seconds: it must outlast
# the slowest worker's reconnect backoff (~2 s after the kill), or a
# worker that reattaches late finds the campaign already over.
TOTAL=100000

serve() {
  # Identical flags both incarnations, plus whatever the caller adds
  # (--resume). Short lease timeout keeps the epoch-1 leases from
  # stalling the resumed run; the heartbeat cadence bounds how long a
  # worker can go silent before the heartbeat-silence drop requeues its
  # shard.
  "$BIN" campaign serve --name "$NAME" --protocol fig3 \
    --faults 1..2 --bound 1 --procs 3 --rates 0.3,0.6 --trials 25000 \
    --listen "unix:$SOCK" --status "unix:$STATUS_SOCK" \
    --lease-trials 500 --lease-timeout 2 \
    --hb-interval 0.5 --quiet "$@" &
}

status_get() {
  "$BIN" campaign status --connect "unix:$STATUS_SOCK" --get "$1"
}

dune build bin/main.exe
rm -rf "$DIR"
rm -f "$SOCK" "$STATUS_SOCK"

serve
SERVE_PID=$!
mkdir -p "$SCRAPES"

tries=0
while [ ! -S "$SOCK" ]; do
  tries=$((tries + 1))
  if [ "$tries" -gt 100 ]; then
    echo "coord-chaos-smoke FAILED: coordinator never listened on $SOCK" >&2
    kill "$SERVE_PID" 2>/dev/null || true
    exit 1
  fi
  sleep 0.1
done

# The workers of the whole test: started once, never restarted. Their
# summary lines (captured stdout) are the reattachment evidence.
"$BIN" worker --connect "unix:$SOCK" --name chaos-w1 --domains 2 --quiet > "$SCRAPES/w1.out" &
W1=$!
"$BIN" worker --connect "unix:$SOCK" --name chaos-w2 --domains 2 --quiet > "$SCRAPES/w2.out" &
W2=$!
"$BIN" worker --connect "unix:$SOCK" --name chaos-w3 --domains 2 --quiet > "$SCRAPES/w3.out" &
W3=$!

# Let the campaign get moving, then snapshot epoch 1: the ownership
# file and a live scrape.
sleep 0.8
status_get /status > "$SCRAPES/status-epoch1.json"
cp "$DIR/owner.json" "$SCRAPES/owner-epoch1.json"
if ! grep -q '"epoch":1' "$SCRAPES/status-epoch1.json"; then
  echo "coord-chaos-smoke FAILED: first incarnation is not epoch 1" >&2
  cat "$SCRAPES/status-epoch1.json" >&2
  exit 1
fi

# Murder the coordinator mid-campaign.
BEFORE=$(grep -c '"trial":' "$DIR/journal.jsonl" 2>/dev/null || echo 0)
if [ "$BEFORE" -ge "$TOTAL" ]; then
  echo "coord-chaos-smoke FAILED: campaign finished before the kill ($BEFORE trials); raise --trials" >&2
  exit 1
fi
kill -9 "$SERVE_PID" 2>/dev/null || true
wait "$SERVE_PID" 2>/dev/null || true
echo "killed coordinator after ~$BEFORE journaled trials"

# Leave the workers in the dark for a moment — they must be retrying,
# not dead — then restart the campaign as the next incarnation.
sleep 0.5
serve --resume
SERVE_PID=$!

# The stale socket file survives the SIGKILL, so poll the status
# endpoint (rebound by the new incarnation) instead of the path.
tries=0
until status_get /status > "$SCRAPES/status-epoch2.json" 2>/dev/null \
  && grep -q '"epoch":2' "$SCRAPES/status-epoch2.json"; do
  tries=$((tries + 1))
  if [ "$tries" -gt 100 ]; then
    echo "coord-chaos-smoke FAILED: resumed coordinator never served epoch 2 on /status" >&2
    cat "$SCRAPES/status-epoch2.json" >&2 || true
    exit 1
  fi
  sleep 0.1
done
cp "$DIR/owner.json" "$SCRAPES/owner-epoch2.json"
if ! grep -q '"epoch":2' "$SCRAPES/owner-epoch2.json"; then
  echo "coord-chaos-smoke FAILED: owner.json not bumped to epoch 2" >&2
  cat "$SCRAPES/owner-epoch2.json" >&2
  exit 1
fi
if ! grep -q '"restarts":1' "$SCRAPES/status-epoch2.json"; then
  echo "coord-chaos-smoke FAILED: /status does not report 1 restart" >&2
  cat "$SCRAPES/status-epoch2.json" >&2
  exit 1
fi

# All three workers must land on the new incarnation through their
# reconnect backoff. Poll /workers while the coordinator is alive; if
# the resumed campaign finishes before a scrape sees all three, fall
# back to the workers.json it persists on success (the per-worker
# reconnect counts below still prove the reattachment happened live).
attached=0
tries=0
while [ "$tries" -le 60 ] && kill -0 "$SERVE_PID" 2>/dev/null; do
  tries=$((tries + 1))
  if status_get /workers > "$SCRAPES/workers-postrestart.json" 2>/dev/null \
    && grep -q '"name":"chaos-w1"' "$SCRAPES/workers-postrestart.json" \
    && grep -q '"name":"chaos-w2"' "$SCRAPES/workers-postrestart.json" \
    && grep -q '"name":"chaos-w3"' "$SCRAPES/workers-postrestart.json"; then
    attached=1
    break
  fi
  sleep 0.1
done
SERVE_REAPED=0
if [ "$attached" -ne 1 ]; then
  wait "$SERVE_PID"
  SERVE_REAPED=1
  cp "$DIR/workers.json" "$SCRAPES/workers-postrestart.json" 2>/dev/null || true
fi
for w in chaos-w1 chaos-w2 chaos-w3; do
  if ! grep -q "\"name\":\"$w\"" "$SCRAPES/workers-postrestart.json"; then
    echo "coord-chaos-smoke FAILED: $w not attached to the resumed coordinator" >&2
    cat "$SCRAPES/workers-postrestart.json" >&2
    exit 1
  fi
done

# The resumed coordinator and the original worker processes must
# converge on a complete journal.
if [ "$SERVE_REAPED" -ne 1 ]; then wait "$SERVE_PID"; fi
WFAIL=0
wait "$W1" || { echo "coord-chaos-smoke FAILED: chaos-w1 exited non-zero" >&2; WFAIL=1; }
wait "$W2" || { echo "coord-chaos-smoke FAILED: chaos-w2 exited non-zero" >&2; WFAIL=1; }
wait "$W3" || { echo "coord-chaos-smoke FAILED: chaos-w3 exited non-zero" >&2; WFAIL=1; }
rm -f "$SOCK" "$STATUS_SOCK"
if [ "$WFAIL" -ne 0 ]; then
  cat "$SCRAPES"/w*.out >&2 || true
  exit 1
fi

# Reattached, not restarted: each worker's own summary counts at least
# one lost-and-reestablished session.
for i in 1 2 3; do
  if ! grep -q ' reconnect(s)' "$SCRAPES/w$i.out" || grep -q ' 0 reconnect(s)' "$SCRAPES/w$i.out"; then
    echo "coord-chaos-smoke FAILED: chaos-w$i reports no reconnect (was it restarted, or did the kill land too late?)" >&2
    cat "$SCRAPES/w$i.out" >&2
    exit 1
  fi
done

LINES=$(grep -c '"trial":' "$DIR/journal.jsonl")
UNIQUE=$(grep -o '"trial":[0-9]*' "$DIR/journal.jsonl" | sort -u | wc -l)
if [ "$LINES" -ne "$TOTAL" ] || [ "$UNIQUE" -ne "$TOTAL" ]; then
  echo "coord-chaos-smoke FAILED: $LINES journal lines, $UNIQUE unique trials, expected $TOTAL" >&2
  exit 1
fi

if [ ! -s "$DIR/events.jsonl" ]; then
  echo "coord-chaos-smoke FAILED: coordinator streamed no events.jsonl" >&2
  exit 1
fi
if ! grep -q 'recovery' "$DIR/events.jsonl"; then
  echo "coord-chaos-smoke FAILED: events.jsonl has no recovery event from the resumed incarnation" >&2
  exit 1
fi

"$BIN" campaign report --name "$NAME" >/dev/null
if ! grep -q 'Coordinator epoch 2: 1 restart(s)' "$DIR/report.md"; then
  echo "coord-chaos-smoke FAILED: report.md Workers section does not mention the failover" >&2
  grep -A6 '^## Workers' "$DIR/report.md" >&2 || true
  exit 1
fi

echo "coord-chaos-smoke OK: $TOTAL trials exactly once; coordinator SIGKILLed at ~$BEFORE and resumed as epoch 2; 3 workers reattached without restarting"
grep -o '[0-9]* reconnect(s)' "$SCRAPES"/w*.out | sed 's/^/  /'
