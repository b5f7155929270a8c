# Convenience targets for the ffault reproduction.

.PHONY: all build test lint lint-json experiments experiments-quick bench bench-smoke examples campaign-smoke chaos-smoke dist-chaos-smoke coord-chaos-smoke netsim-smoke recover-smoke mem-smoke check clean

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
check: build test lint campaign-smoke chaos-smoke dist-chaos-smoke coord-chaos-smoke netsim-smoke recover-smoke mem-smoke bench-smoke

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
	dune exec bench/main.exe -- --smoke dist e1

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
# Its trace must hold as many span ends as begins, in one process row.
# Its telemetry.json must not carry a coordinator's gauge: a pool run
# reports only the metrics it touched.
# Then the supervised path: one herlihy grid run plain and under a
# per-trial deadline must diff clean both ways at zero tolerance, so a
# supervised run that loses or gains a single violation fails the step.
# Last, the plain grid again on 1 domain: its journal must equal the
# 2-domain one line for line, witnesses included, once `wall_us` is
# stripped and the lines sorted.
campaign-smoke:
	rm -rf _campaigns/ci-smoke _campaigns/ci-smoke-plain _campaigns/ci-smoke-deadline \
	  _campaigns/ci-smoke-1dom
	dune exec bin/main.exe -- campaign run --name ci-smoke --protocol fig3 \
	  -f 1..2 -t 1 -n 3 --rates 0.3,0.6 --trials 50 --domains 2 \
	  --trace _campaigns/ci-smoke/trace.json
	test "$$(grep -o '"ph":"B"' _campaigns/ci-smoke/trace.json | wc -l)" \
	  -eq "$$(grep -o '"ph":"E"' _campaigns/ci-smoke/trace.json | wc -l)"
	test "$$(grep -o '"name":"process_name"' _campaigns/ci-smoke/trace.json | wc -l)" -eq 1
	! grep -q '"dist.workers_connected"' _campaigns/ci-smoke/telemetry.json
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
	dune exec bin/main.exe -- campaign run --name ci-smoke-1dom --protocol herlihy \
	  -f 1 -n 3 --rates 0.3,0.6 --trials 50 --domains 1
	sed -E 's/"wall_us":[0-9]+//' _campaigns/ci-smoke-plain/journal.jsonl | sort \
	  > _campaigns/ci-smoke-plain/journal.sorted
	sed -E 's/"wall_us":[0-9]+//' _campaigns/ci-smoke-1dom/journal.jsonl | sort \
	  > _campaigns/ci-smoke-1dom/journal.sorted
	cmp _campaigns/ci-smoke-plain/journal.sorted _campaigns/ci-smoke-1dom/journal.sorted

# Crash-tolerance end to end: SIGKILL a live campaign mid-flight, resume
# it, and assert the journal holds every trial exactly once; on 2
# domains, then on 1 (whose journal is written every 64 trials).
chaos-smoke:
	sh scripts/chaos_smoke.sh

# The distributed flavour: coordinator + three workers over a Unix
# socket, SIGKILL one worker mid-campaign, assert the exactly-once
# journal and a reassigned lease in the Workers report. Then one traced
# 4-domain worker runs a 200k-trial lease whose flush beat drains four
# full tracer rings: it must complete within the wire's frame cap.
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
# the violation crash-attributed, its witness journaled and a minimized
# witness in the report), the
# recoverable protocols must stay clean, and a crash-axis campaign must
# survive SIGKILL+resume and the distributed serve/worker path with the
# journal exactly-once. See doc/RECOVERY.md.
recover-smoke:
	sh scripts/recover_smoke.sh

# Memory stays flat over a long crash or hang campaign, over a report
# or a resume of a long journal, and under --trace: the engine unwinds
# every process it abandons, each journal pass streams the file once,
# the tracer allocates a ring only for a domain that records, and the
# trace writer prints one event at a time. A crash grid and a hang grid
# each run twice on 2 domains, the second time ten times as long; a
# failing herlihy grid is journaled at 100k and 1M trials, reported,
# cut to 3/4 of its lines and resumed; a 100k-trial herlihy grid that
# fills both tracer rings runs untraced, then traced. A leg fails when
# the second run's peak RSS (telemetry.json's `process.peak_rss_kb`;
# for `report` and the trace leg, VmHWM polled every 20 ms) exceeds
# the first one's by over 16 MiB (48 MiB for the trace leg).
mem-smoke:
	sh scripts/mem_smoke.sh

# Deterministic simulation of the distributed layer: a few hundred
# seed-derived fault schedules (drops, dups, reordering, partitions,
# worker AND coordinator crashes) against the real coordinator engine;
# any exactly-once violation fails the target, printing a shrunk
# reproducer. Also self-tests the search by planting two bugs — lease
# retirement without a journal check, and trusting stale-epoch
# Completes from a dead incarnation — and requiring both to be caught.
# Every run is a function of its seed, so each must also print its
# pinned event count or shrunk reproducer.
netsim-smoke:
	sh scripts/netsim_smoke.sh

clean:
	dune clean
