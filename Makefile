# Convenience targets for the ffault reproduction.

.PHONY: all build test lint lint-json experiments experiments-quick bench bench-smoke examples campaign-smoke chaos-smoke dist-chaos-smoke coord-chaos-smoke netsim-smoke recover-smoke check clean

all: build

build:
	dune build @all

test:
	dune runtest --force --no-buffer

# Static analysis: the fault-injection / determinism invariants
# (doc/LINT.md), parsetree AND typed-tree passes. Builds first —
# @check leaves a cmt for every module, executables included — because
# the typed pass demands a fresh one per .ml. Fails on any finding not
# suppressed in-source.
lint:
	dune build @check
	dune exec bin/main.exe -- lint

# Same run, machine-readable; CI archives the output as lint.json.
lint-json:
	dune build @check
	dune exec bin/main.exe -- lint --format json

# The full local gate: what CI runs, minus the artifact uploads.
check: build test lint campaign-smoke chaos-smoke dist-chaos-smoke coord-chaos-smoke netsim-smoke recover-smoke bench-smoke

experiments:
	dune exec bin/main.exe -- experiment

experiments-quick:
	dune exec bin/main.exe -- experiment --quick

bench:
	dune exec bench/main.exe

# One measurement per workload under a millisecond quota: proves every
# bench still runs and emits its BENCH_<group>.json, without the cost of
# real timing. The files go to _campaigns/bench-smoke/, so the committed
# baselines at the root stay as they are. CI runs this on every push.
bench-smoke:
	dune exec bench/main.exe -- --smoke campaign netsim dist recover b1 e1

examples:
	dune exec examples/quickstart.exe
	dune exec examples/leader_election.exe
	dune exec examples/replicated_log.exe
	dune exec examples/fault_lab.exe
	dune exec examples/hierarchy_tour.exe
	dune exec examples/degradation_study.exe
	dune exec examples/relaxed_queue.exe

# A 200-trial end-to-end campaign: run, report, and a self-diff that must
# come back regression-free. Exercises the whole artifact pipeline in CI.
# Then the supervised path: one herlihy grid run plain and under a
# per-trial deadline must diff clean both ways at zero tolerance, so a
# supervised run that loses or gains a single violation fails the step.
campaign-smoke:
	rm -rf _campaigns/ci-smoke _campaigns/ci-smoke-plain _campaigns/ci-smoke-deadline
	dune exec bin/main.exe -- campaign run --name ci-smoke --protocol fig3 \
	  -f 1..2 -t 1 -n 3 --rates 0.3,0.6 --trials 50 --domains 2 \
	  --trace _campaigns/ci-smoke/trace.json
	dune exec bin/main.exe -- campaign report --name ci-smoke
	dune exec bin/main.exe -- campaign diff _campaigns/ci-smoke _campaigns/ci-smoke
	dune exec bin/main.exe -- campaign run --name ci-smoke-plain --protocol herlihy \
	  -f 1 -n 3 --rates 0.3,0.6 --trials 50 --domains 2
	dune exec bin/main.exe -- campaign run --name ci-smoke-deadline --protocol herlihy \
	  -f 1 -n 3 --rates 0.3,0.6 --trials 50 --domains 2 --deadline 5 --max-retries 1
	dune exec bin/main.exe -- campaign diff --tolerance 0 \
	  _campaigns/ci-smoke-plain _campaigns/ci-smoke-deadline
	dune exec bin/main.exe -- campaign diff --tolerance 0 \
	  _campaigns/ci-smoke-deadline _campaigns/ci-smoke-plain

# Crash-tolerance end to end: SIGKILL a live campaign mid-flight, resume
# it, and assert the journal holds every trial exactly once.
chaos-smoke:
	sh scripts/chaos_smoke.sh

# The distributed flavour: coordinator + three workers over a Unix
# socket, SIGKILL one worker mid-campaign, assert the exactly-once
# journal and a reassigned lease in the Workers report.
dist-chaos-smoke:
	sh scripts/dist_chaos_smoke.sh

# Coordinator failover end to end: SIGKILL the live coordinator
# mid-campaign, `serve --resume` it as the next epoch, and assert the
# exactly-once journal plus every worker reattaching through its
# reconnect backoff without a process restart.
coord-chaos-smoke:
	sh scripts/coord_chaos_smoke.sh

# The crash-restart subsystem end to end: the naive baseline must
# violate recoverable linearizability under crash-only schedules (with
# the violation crash-attributed and its witness shrunk), the
# recoverable protocols must stay clean, and a crash-axis campaign must
# survive SIGKILL+resume and the distributed serve/worker path with the
# journal exactly-once. See doc/RECOVERY.md.
recover-smoke:
	sh scripts/recover_smoke.sh

# The fencing self-test sweep stops at its first catch (seed 2 hits at
# schedule 7); the 50-schedule bound is headroom, not the usual cost.
FENCING_SEED = 2
FENCING_SCHEDULES = 50

# Deterministic simulation of the distributed layer: a few hundred
# seed-derived fault schedules (drops, dups, reordering, partitions,
# worker AND coordinator crashes) against the real coordinator engine;
# any exactly-once violation fails the target, printing a shrunk
# reproducer. Also self-tests the search by planting two bugs — lease
# retirement without a journal check, and trusting stale-epoch
# Completes from a dead incarnation — and requiring both to be caught.
netsim-smoke:
	dune exec bin/main.exe -- netsim --schedules 300 --seed 7
	@echo "-- planted-bug self-test (expected to catch a violation) --"
	@if dune exec bin/main.exe -- netsim --schedules 50 --seed 7 --break-complete; then \
	  echo "netsim-smoke: planted bug NOT caught"; exit 1; \
	else echo "netsim-smoke: planted bug caught and shrunk (expected)"; fi
	@echo "-- planted fencing-bug self-test (expected to catch a violation) --"
	@if dune exec bin/main.exe -- netsim --schedules $(FENCING_SCHEDULES) --seed $(FENCING_SEED) --break-fencing; then \
	  echo "netsim-smoke: planted fencing bug NOT caught"; exit 1; \
	else echo "netsim-smoke: planted fencing bug caught and shrunk (expected)"; fi

clean:
	dune clean
