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
TOTAL=40000
# The kill lands once the journal holds KILL_AT lines (16 groups of 64),
# however fast the host: a kill on a timer would miss the run on a host
# fast enough to finish first.
KILL_AT=1024
WAIT_S=60

dune build bin/main.exe

# Lines in the current leg's journal (0 before the run creates it).
journaled() {
  if [ -f "$DIR/journal.jsonl" ]; then wc -l <"$DIR/journal.jsonl"; else echo 0; fi
}

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
  GIVE_UP=$(($(date +%s) + WAIT_S))
  while [ "$(journaled)" -lt "$KILL_AT" ] && kill -0 "$PID" 2>/dev/null; do
    if [ "$(date +%s)" -gt "$GIVE_UP" ]; then
      kill -9 "$PID" 2>/dev/null || true
      echo "chaos-smoke FAILED ($2-domain leg): the journal held under $KILL_AT lines after ${WAIT_S}s" >&2
      exit 1
    fi
    sleep 0.01
  done
  kill -9 "$PID" 2>/dev/null || true
  wait "$PID" 2>/dev/null || true

  BEFORE=$(journaled)
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
