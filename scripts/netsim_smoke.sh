#!/bin/sh
# Netsim smoke: deterministic simulation of the distributed layer
# (doc/SIMULATION.md), three runs. Each must exit as expected AND print
# its pinned text: a run is a pure function of its seed, so its event
# count and its shrunk reproducer are exact, and a change to what a
# schedule does shows here even when the verdict stays the same.
#
#   1. A 300-schedule sweep rooted at seed 7 (drops, dups, reordering,
#      latency, partitions, worker AND coordinator crashes) against the
#      real coordinator engine: exactly-once must hold on every schedule.
#   2. The planted lease-retirement bug (--break-complete: retire a lease
#      on Complete without checking the journal) must be caught and
#      shrunk.
#   3. The planted fencing bug (--break-fencing: trust a stale-epoch
#      Complete from a dead incarnation) must be caught and shrunk. Seed
#      2 hits at schedule 7; the 50-schedule bound is headroom.
#
# `make netsim-smoke` and CI both drive it.
set -u

BIN=_build/default/bin/main.exe
OUT=_campaigns/netsim-smoke.out

dune build bin/main.exe || exit 1
mkdir -p _campaigns

# run WHAT EXPECTED_EXIT ARGS... — one netsim run, its output kept in $OUT
run() {
  what=$1
  want=$2
  shift 2
  "$BIN" netsim "$@" >"$OUT"
  got=$?
  cat "$OUT"
  if [ "$got" -ne "$want" ]; then
    echo "netsim-smoke FAILED: $what exited $got, expected $want" >&2
    exit 1
  fi
}

# pin TEXT — the last run printed TEXT
pin() {
  if ! grep -qF -- "$1" "$OUT"; then
    echo "netsim-smoke FAILED: expected \"$1\" in the output above" >&2
    exit 1
  fi
}

run "the seed-7 sweep" 0 --schedules 300 --seed 7
pin "251861 events"
pin "exactly-once holds on every schedule"

echo "-- planted-bug self-test (expected to catch a violation) --"
run "the planted lease-retirement bug" 1 --schedules 50 --seed 7 --break-complete
pin "VIOLATION at schedule 0"
pin "shrunk to 1 (17 probe(s))"

echo "-- planted fencing-bug self-test (expected to catch a violation) --"
run "the planted fencing bug" 1 --schedules 50 --seed 2 --break-fencing
pin "VIOLATION at schedule 7"
pin "shrunk to 59 (400 probe(s))"

echo "netsim-smoke: the sweep holds and both planted bugs are caught and shrunk as pinned"
