GO ?= go

PERFFLAGS ?=

.PHONY: check race bench fuzz vet test build trace allocs audit scenarios telemetry perf perfcompare idle

# Tier-1 verification: everything must build, vet cleanly, pass the full
# test suite, and hold the scenario grid's acceptance bar and the fleet
# telemetry plane's acceptance loop.
check: build vet test scenarios telemetry

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Race tier: vet plus the full suite under the race detector. The parallel
# determinism tests (Workers: 4 against Workers: 1) run their worker pools
# here, so data races in the per-node emulation fan-out, the solver sweep,
# or the experiment grids are caught even on single-core hosts. The chaos and
# cluster packages rerun uncached (-count=1): they exercise real TCP,
# per-agent fault streams, and the gate/outage machinery, where fresh
# scheduling each run is the point.
race: vet
	$(GO) test -race ./...
	$(GO) test -race -count=1 ./internal/chaos/ ./internal/cluster/ ./internal/governor/ \
		./internal/bro/ ./internal/conntrack/ ./internal/control/ ./internal/ledger/ \
		./internal/telemetry/
	$(GO) test -race -count=1 -run 'Scenario|Diurnal|Flash|Maintenance|Regret' \
		./internal/experiments/ ./internal/traffic/ ./internal/online/

# Allocation gate: rerun the testing.AllocsPerRun contracts of the
# per-packet path uncached. The decision path (ShouldAnalyze / DecideAll /
# DecideMask / CoversUnit), the engine's steady-state ingestion with policy
# scripts on (every decision source), the packet front half (ReadPacket on
# a warmed Reader, Feed on an open flow), the conntrack pool, and the arena
# index must all report 0 allocs/op, and the engine's per-Run set-up must
# stay inside its budget; -count=1 keeps a cached pass from masking a
# regression.
allocs:
	$(GO) test -count=1 -run 'AllocFree|Alloc|Pool' \
		./internal/control/ ./internal/bro/ ./internal/packet/ ./internal/conntrack/ \
		./internal/hashing/

# Perf tier: the repo's one layered benchmark (cmd/perf, BENCHMARK.json).
# `make perf` runs every workload untraced then traced; pass flags through
# PERFFLAGS, e.g. `make perf PERFFLAGS="-workload node_coord -trace 1"` or
# `make perf PERFFLAGS="-runs 5 -o a.json"`. `make perfcompare A=a.json
# B=b.json` prints one row per workload x metric and exits 1 on a
# regression.
perf:
	$(GO) run ./cmd/perf $(PERFFLAGS)

perfcompare:
	$(GO) run ./cmd/perf compare $(A) $(B)

# Fuzz tier: a short smoke run of the solver fuzzer (simplex vs brute-force
# vertex enumeration on random small LPs) and of the two ingest fuzzers
# (arbitrary bytes through the pcap Reader; fuzzed captures through the
# assembler, whose counters must balance). CI-friendly; run with a longer
# -fuzztime locally to dig. The ingest seeds are whole captures (160 KB for
# the 20-session one), and minimizing one interesting input of that size
# under the default 60 s budget would eat the whole run, hence 1 s.
fuzz:
	$(GO) test -run=FuzzSolve -fuzz=FuzzSolve -fuzztime=10s ./internal/lp/
	$(GO) test -run=FuzzReader -fuzz=FuzzReader -fuzztime=10s -fuzzminimizetime=1s ./internal/packet/
	$(GO) test -run=FuzzAssemble -fuzz=FuzzAssemble -fuzztime=10s -fuzzminimizetime=1s ./internal/packet/

# Bench tier: the go-test micro-benchmarks, with allocation reporting —
# every figure/table benchmark, the obs instruments, cluster convergence,
# the full-epoch cost with the flight recorder off vs on, warm- vs
# cold-started replan solves, the shed hook's per-packet cost, and the
# per-packet decision path against its test-only pre-index reference. It
# runs no command and writes no file: end-to-end and per-layer numbers are
# `make perf` (cmd/perf, BENCHMARK.json), the one benchmark.
bench:
	$(GO) test -bench=. -benchmem .
	$(GO) test -bench=. -benchmem ./internal/obs/
	$(GO) test -bench=ClusterConverge -benchmem ./internal/cluster/
	$(GO) test -bench=TraceOverhead -benchmem ./internal/cluster/
	$(GO) test -bench=WarmVsColdReplan -benchmem ./internal/lp/
	$(GO) test -bench=ShedFilter -benchmem ./internal/bro/
	$(GO) test -bench=DataplaneDecide -benchmem ./internal/control/

# Scenarios tier: the composable-scenario acceptance run, wired into check.
# The grid drives all five catalog drivers (plus the maintenance+flashcrowd
# composition) against the live cluster runtime and fails unless every row
# meets its acceptance bar: coverage floor held (or every breach
# post-mortemed), zero SLO violations under the catalog thresholds, the SYN
# flood visible to the data plane, the manifest-steering adversary's traffic
# flowing with zero evasion, and FPL's cumulative regret sublinear. Both
# sizes run — the quick grid the tests share, then the full one — in a few
# seconds together.
scenarios:
	$(GO) run ./cmd/experiments -quick -only scenarios -scenarios-assert >/dev/null
	$(GO) run ./cmd/experiments -only scenarios -scenarios-assert >/dev/null

# Telemetry tier: the fleet plane's acceptance loop, wired into check. The
# selftest runs a scenario cluster with a crash and a planned drain, serves
# the debug HTTP surface on a loopback port, scrapes /fleet, /fleet/history,
# and /metrics.prom over the wire, and fails unless the crashed node
# classifies dark and the draining node stale within one epoch and the
# Prometheus exposition validates structurally.
telemetry:
	$(GO) run ./cmd/fleetstat -selftest >/dev/null

# Audit tier: smoke the tamper-evident ledger end to end. A seeded chaos
# run and a seeded overload run each record their audit chain; auditcheck
# replays both offline (every chain link, Merkle root, and blob digest
# against the pinned HEAD, plus the genesis link against the seed), proves
# a sampled (node, range, epoch) assignment by Merkle inclusion, and runs
# the adversarial self-test: hundreds of seeded single-byte corruptions
# across chain and blobs, every one of which must fail verification.
audit:
	rm -rf audit_chaos audit_overload
	$(GO) run ./cmd/cluster -sessions 2000 -epochs 6 -seed 21 -probes 500 \
		-trace audit_chaos.trace.jsonl -ledger audit_chaos >/dev/null
	$(GO) run ./cmd/cluster -overload -governor -redundancy 2 \
		-sessions 1500 -epochs 5 -burstfactor 1.8 -burstprob 0.5 \
		-basejitter 0.05 -probes 500 -seed 5 -ledger audit_overload >/dev/null
	$(GO) run ./cmd/auditcheck -dir audit_chaos -seed 21 -tamper 200
	$(GO) run ./cmd/auditcheck -dir audit_chaos -seed 21 -q -prove -node 3 -epoch 1 \
		-class 0 -k0 3 -k1 -1 -lo 0.0 -hi 1.0
	$(GO) run ./cmd/auditcheck -dir audit_overload -seed 5 -tamper 200
	rm -rf audit_chaos audit_overload audit_chaos.trace.jsonl

# Trace tier: smoke the flight recorder end to end. A seeded overload run
# with forced governor shedding writes its JSONL post-mortem twice — once
# with -workers 1, once with -workers 4 — the two dumps must be
# byte-identical (the tracing determinism contract), and cmd/tracecheck
# validates the wire schema (known event types, hex IDs, per-component
# seq monotonicity, header/body consistency).
trace:
	$(GO) run ./cmd/cluster -overload -governor -redundancy 2 \
		-sessions 1500 -epochs 5 -burstfactor 1.8 -burstprob 0.5 \
		-basejitter 0.05 -probes 500 -seed 5 \
		-trace trace_w1.jsonl -workers 1 >/dev/null
	$(GO) run ./cmd/cluster -overload -governor -redundancy 2 \
		-sessions 1500 -epochs 5 -burstfactor 1.8 -burstprob 0.5 \
		-basejitter 0.05 -probes 500 -seed 5 \
		-trace trace_w4.jsonl -workers 4 >/dev/null
	cmp trace_w1.jsonl trace_w4.jsonl
	$(GO) run ./cmd/tracecheck trace_w1.jsonl trace_w4.jsonl
	rm -f trace_w1.jsonl trace_w4.jsonl

# Idle check: the last command of a working session. Fails, listing the
# offenders, if a test binary, the benchmark binary, a `go run` child of one
# of this repo's socket-opening commands, or a go test/run/build is still
# alive — killing only the `go` parent (what a tool timeout does) orphans
# the program it started — or if any process at all is running a binary
# from this checkout, from $(SCRATCH) (hand-built A/B binaries such as
# perf_parent / perf_new, which no name pattern catches) or from a go-build
# temp dir. Run it on its own: a shell line that also names `go test`
# matches itself. (The [.] keeps the recipe's own shell from matching its
# pattern.)
SCRATCH ?= /root/scratch

idle:
	@bad=0; \
	if pgrep -fa '[.]test( |$$)|[.]bench_build/perf( |$$)|go-build.*/(cluster|fleetstat|controller|perf|experiments|auditcheck)( |$$)|(^|/)go (test|run|build)( |$$)'; then bad=1; fi; \
	for p in /proc/[0-9]*; do \
		exe=$$(readlink "$$p/exe" 2>/dev/null) || continue; \
		case "$$exe" in \
		"$(CURDIR)"/*|$(SCRATCH)/*|*/go-build*) echo "$${p#/proc/} $$exe"; bad=1;; \
		esac; \
	done; \
	if [ $$bad = 1 ]; then \
		echo 'idle: the processes above are still running' >&2; exit 1; \
	fi
