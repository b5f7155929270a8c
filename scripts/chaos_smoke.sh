#!/bin/sh
# Chaos smoke: SIGKILL a campaign mid-flight (no cleanup, no flush
# beyond the journal's own group writes), resume it, and prove the
# journal ends complete — every trial present exactly once, no loss, no
# duplication. The journal writes its records out once per 64, so the
# kill drops up to 63 appended records (and may tear the last line);
# resume repairs the tail and re-runs every trial the journal lacks.
# This is the durability claim of doc/CAMPAIGNS.md run as a test, in
# two legs: 2 domains, where a group ends with a consumed chunk, and 1
# domain, which writes every 64 trials. `make chaos-smoke` and CI both
# drive it.
set -eu

ROOT=_campaigns
BIN=_build/default/bin/main.exe
# grid: f in 1..2 (2) x rates 0.3,0.6 (2) = 4 cells x 10000 trials.
# Big enough that the sleep below reliably interrupts it mid-flight
# (the engine clears ~25k trials/s on a fast machine).
TOTAL=40000

dune build bin/main.exe

# kill_and_resume NAME DOMAINS
kill_and_resume() {
  NAME=$1
  DIR="$ROOT/$NAME"
  rm -rf "$DIR"

  # Run the binary directly (not through `dune exec`) so the kill lands
  # on the campaign process itself, not a wrapper that would orphan it.
  "$BIN" campaign run --name "$NAME" --protocol fig3 \
    -f 1..2 -t 1 -n 3 --rates 0.3,0.6 --trials 10000 --domains "$2" --quiet &
  PID=$!
  sleep 0.3
  kill -9 "$PID" 2>/dev/null || true
  wait "$PID" 2>/dev/null || true

  BEFORE=$(wc -l <"$DIR/journal.jsonl" 2>/dev/null || echo 0)
  if [ "$BEFORE" -ge "$TOTAL" ]; then
    echo "chaos-smoke FAILED ($2-domain leg): campaign finished before the kill ($BEFORE trials); raise --trials" >&2
    exit 1
  fi
  echo "killed the $2-domain campaign after ~$BEFORE journaled trials"

  "$BIN" campaign resume --name "$NAME" --domains "$2" --quiet

  LINES=$(grep -c '"trial":' "$DIR/journal.jsonl")
  UNIQUE=$(grep -o '"trial":[0-9]*' "$DIR/journal.jsonl" | sort -u | wc -l)
  if [ "$LINES" -ne "$TOTAL" ] || [ "$UNIQUE" -ne "$TOTAL" ]; then
    echo "chaos-smoke FAILED ($2-domain leg): $LINES journal lines, $UNIQUE unique trials, expected $TOTAL" >&2
    exit 1
  fi

  "$BIN" campaign report --name "$NAME" >/dev/null
  echo "chaos-smoke OK ($2-domain leg): $TOTAL trials exactly once (killed at ~$BEFORE, resume completed the rest)"
}

kill_and_resume chaos-smoke 2
kill_and_resume chaos-smoke-1dom 1
