GO ?= go

PERFFLAGS ?=

.PHONY: check race bench fuzz vet test build allocs perf perfcompare reach idle

# Tier-1 verification: everything must build, vet cleanly and pass the full
# test suite. The acceptance tiers are tests in internal/cli that call the
# commands in-process, writing only under t.TempDir(): TestScenariosTier
# (the scenario grid's acceptance bar, quick and full), TestSelftest (the
# fleet telemetry loop), TestAuditTier (two seeded ledgers verified, proved
# and tampered 200 times) and TestTraceTier (flight-recorder dumps
# byte-identical across -workers 1 and 4, and schema-valid). Then reach, the
# ratchet on code no entry point runs, and idle last, so a green check also
# proves nothing it started is left running.
check: build vet test reach idle

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Race tier: vet plus the full suite under the race detector. The parallel
# determinism tests (Workers: 4 against Workers: 1) run their worker pools
# here, so data races in the per-node emulation fan-out, the solver sweep,
# or the experiment grids are caught even on single-core hosts. The chaos,
# cluster and cli packages rerun uncached (-count=1): they exercise real
# TCP, per-agent fault streams, and the gate/outage machinery, where fresh
# scheduling each run is the point. The bro and packet packages rerun too:
# each hands work between its caller and a helper goroutine (deciding
# ahead, reading a capture ahead).
race: vet
	$(GO) test -race ./...
	$(GO) test -race -count=1 ./internal/chaos/ ./internal/cluster/ ./internal/governor/ \
		./internal/bro/ ./internal/conntrack/ ./internal/control/ ./internal/ledger/ \
		./internal/telemetry/ ./internal/cli/ ./internal/packet/
	$(GO) test -race -count=1 -run 'Scenario|Diurnal|Flash|Maintenance|Regret' \
		./internal/experiments/ ./internal/traffic/ ./internal/online/

# Allocation gate: rerun the testing.AllocsPerRun contracts of the
# per-packet path uncached. The decision path (ShouldAnalyze / DecideAll /
# DecideMask / CoversUnit), the engine's steady-state ingestion with policy
# scripts on (every decision source), re-inserts into warmed policy tables,
# the packet front half (ReadPacket on a warmed Reader, Feed on an open
# flow; a warm pipelined StreamSessions within 1 KB of an inline one), the
# conntrack pool, the arena index, range subtraction into a
# grown buffer, the coverage audit (core.ProbeCoverage, however many units
# it counts) and a steady-state simplex iteration must all report 0
# allocs/op; the engine's per-Run set-up, a cold LP solve (160 bytes per
# entry of nnz + rows + columns) and each step of one manifest's publish
# and install pipeline (build, diff, encode, apply, decider index) and one
# control-plane exchange, both ends together (a v2 delta on a held
# connection, a v1 full fetch), must stay inside their budgets; -count=1 keeps a cached pass from masking a
# regression.
allocs:
	$(GO) test -count=1 -run 'AllocFree|Alloc|Pool' \
		./internal/control/ ./internal/bro/ ./internal/packet/ ./internal/conntrack/ \
		./internal/hashing/ ./internal/lp/ ./internal/core/

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
# vertex enumeration on random small LPs), of the three ingest fuzzers
# (arbitrary bytes through the pcap Reader; fuzzed captures through the
# assembler, whose counters must balance; fuzzed Update/Lookup/Expire
# streams through the connection table against its map+heap reference),
# of the trace-dump validator
# (arbitrary bytes must not panic it; dumps of random emit sequences must
# validate), of the coverage audit (range counts vs the point-by-point
# probe on arbitrary finite endpoints), of range subtraction (the sweep
# against the quadratic loop it replaced, on grids where endpoints
# coincide) and of the wire's two binary
# decoders (arbitrary manifest bytes through the agent's install check,
# decider build and decisions; arbitrary delta bytes applied to a checked
# base, whose result must pass the check, round-trip and match the
# map-based reference), of the decider index (random manifests' every
# decision, unit range and width against the map-backed baseline) and of
# the controller's request line (arbitrary bytes must not panic it, and
# malformed ones are answered and counted as bad), of a held connection
# (several request lines through one served connection, each answered
# byte for byte as on a fresh one, closed after the first v1 or error
# answer), of the ledger verifier (arbitrary chains must not panic it;
# any single-byte change to a valid chain fails against its pinned head),
# of the engine's policy tables (addSet/incr streams over raw float64
# bit patterns against the Go-map model, every return value and the final
# contents), of the ledger item decoder behind the floor attestation
# (arbitrary bytes must not panic it; whatever decodes re-encodes to the
# same attestation) and of the Prometheus exposition validator that
# fleetstat runs on scraped bodies (arbitrary bytes must not panic it).
# CI-friendly;
# run with a longer -fuzztime locally to dig. The ingest seeds are whole
# captures (160 KB for the 20-session one), the ledger's a 1.1 KB chain,
# and minimizing one interesting input under the default 60 s budget would
# eat the whole run, hence 1 s.
fuzz:
	$(GO) test -run=FuzzSolve -fuzz=FuzzSolve -fuzztime=10s ./internal/lp/
	$(GO) test -run=FuzzReader -fuzz=FuzzReader -fuzztime=10s -fuzzminimizetime=1s ./internal/packet/
	$(GO) test -run=FuzzAssemble -fuzz=FuzzAssemble -fuzztime=10s -fuzzminimizetime=1s ./internal/packet/
	$(GO) test -run=FuzzConntrack -fuzz=FuzzConntrack -fuzztime=10s ./internal/conntrack/
	$(GO) test -run=FuzzValidate -fuzz=FuzzValidate -fuzztime=10s -fuzzminimizetime=1s ./internal/trace/
	$(GO) test -run=FuzzProbeCoverage -fuzz=FuzzProbeCoverage -fuzztime=10s ./internal/core/
	$(GO) test -run=FuzzSubtract -fuzz=FuzzSubtract -fuzztime=10s ./internal/hashing/
	$(GO) test -run=FuzzInstallManifest -fuzz=FuzzInstallManifest -fuzztime=10s -fuzzminimizetime=1s ./internal/control/
	$(GO) test -run=FuzzApplyDelta -fuzz=FuzzApplyDelta -fuzztime=10s -fuzzminimizetime=1s ./internal/control/
	$(GO) test -run=FuzzDecideMask -fuzz=FuzzDecideMask -fuzztime=10s ./internal/control/
	$(GO) test -run=FuzzRequestLine -fuzz=FuzzRequestLine -fuzztime=10s -fuzzminimizetime=1s ./internal/control/
	$(GO) test -run=FuzzHeldConn -fuzz=FuzzHeldConn -fuzztime=10s -fuzzminimizetime=1s ./internal/control/
	$(GO) test -run=FuzzVerifyChain -fuzz=FuzzVerifyChain -fuzztime=10s -fuzzminimizetime=1s ./internal/ledger/
	$(GO) test -run=FuzzPolicyTables -fuzz=FuzzPolicyTables -fuzztime=10s ./internal/bro/
	$(GO) test -run=FuzzDecodeAttestation -fuzz=FuzzDecodeAttestation -fuzztime=10s ./internal/governor/
	$(GO) test -run=FuzzValidateProm -fuzz=FuzzValidateProm -fuzztime=10s ./internal/telemetry/

# Bench tier: the go-test micro-benchmarks, with allocation reporting —
# every figure/table benchmark, the obs instruments, cluster convergence,
# the full-epoch cost with the flight recorder off vs on, warm- vs
# cold-started replan solves, cold simplex solves of deployment- and
# packing-shaped LPs and of the GÉANT and 50-node placement LPs behind
# cmd/perf's lp.curve_ms (the pivot loop's micro A/B), the policy tables
# against their test-only Go-map model, the engine over node 10's share of
# the 100k trace standalone and under its manifest (node_edge's and
# node_coord's shapes), the per-packet decision path
# against its test-only pre-index reference, and one agent's sync over
# loopback against a 1000-node plan (v1 full JSON fetch vs v2 binary delta
# on a held connection). It runs no command and writes no file: end-to-end and
# per-layer numbers are `make perf` (cmd/perf, BENCHMARK.json), the one
# benchmark.
bench:
	$(GO) test -bench=. -benchmem .
	$(GO) test -bench=. -benchmem ./internal/obs/
	$(GO) test -bench=ClusterConverge -benchmem ./internal/cluster/
	$(GO) test -bench=TraceOverhead -benchmem ./internal/cluster/
	$(GO) test -bench=WarmVsColdReplan -benchmem ./internal/lp/
	$(GO) test -bench=Simplex -benchmem ./internal/lp/
	$(GO) test -bench='PolicyTables|RunEdge|RunDecider' -benchmem ./internal/bro/
	$(GO) test -bench=DataplaneDecide -benchmem ./internal/control/
	$(GO) test -bench=AgentSync -benchmem ./internal/control/

# Reach check: list every function outside cmd/ that no entry point runs.
# Part of `make check` (it takes about a minute and builds into
# $(SCRATCH)/reach); a change that adds a reach_allow.txt line says why in
# CHANGES.md. Run it on its own after deleting or adding code. Coverage comes from
# TestREADMECommands (every README command at reduced size), every example,
# and every cmd/perf workload for one traced second, each in the foreground
# under timeout. A function at 0.0% must be listed in reach_allow.txt as
# `file:Func reason`, with one of the reasons below; it fails on an unlisted
# unreached function and on a stale line (a function that now runs or no
# longer exists), and prints the counts.
REACH = $(SCRATCH)/reach
REACH_REASONS = error path|test oracle read across packages|config branch behind a documented flag|public facade API|interface method|entry point skipped by TestREADMECommands|ledger record decoder that ROADMAP item 14 consumes
PERF_WORKLOADS = node_coord node_edge node_pcap replan_nids replan_nips cluster_epoch distribute_1k

reach:
	@rm -rf $(REACH) && mkdir -p $(REACH)/cov
	timeout 300 $(GO) test -count=1 -run '^TestREADMECommands$$' -cover -coverpkg=nwdeploy/... \
		./internal/cli -args -test.gocoverdir=$(REACH)/cov
	@for d in examples/*/ cmd/perf/; do \
		n=$$(basename $$d); \
		timeout 300 $(GO) build -cover -coverpkg=nwdeploy/... -o $(REACH)/$$n ./$$d || exit 1; \
	done
	@for d in examples/*/; do \
		n=$$(basename $$d); echo "run example $$n"; \
		GOCOVERDIR=$(REACH)/cov timeout 120 $(REACH)/$$n >/dev/null || exit 1; \
	done
	@for w in $(PERF_WORKLOADS); do \
		echo "run perf -workload $$w -seconds 1 -trace 1"; \
		GOCOVERDIR=$(REACH)/cov timeout 180 $(REACH)/perf -workload $$w -seconds 1 -trace 1 >/dev/null || exit 1; \
	done
	@$(GO) tool covdata func -i=$(REACH)/cov | \
		awk '$$NF == "0.0%" { f = $$1; sub(/^nwdeploy\//, "", f); sub(/:[0-9]+:$$/, "", f); if (f !~ /^cmd\//) print f ":" $$2 }' | \
		sort -u >$(REACH)/unreached.txt
	@awk 'BEGIN { n = split("$(REACH_REASONS)", r, "|"); for (i = 1; i <= n; i++) ok[r[i]] = 1 } \
		NF && !/^#/ { e = $$1; $$1 = ""; sub(/^ /, ""); if (!($$0 in ok)) { print "reach_allow.txt: " e ": reason \"" $$0 "\" is not an allowed one"; bad = 1 } } \
		END { exit bad }' reach_allow.txt
	@awk 'NF && !/^#/ { print $$1 }' reach_allow.txt | sort >$(REACH)/allowed.txt
	@bad=0; \
	comm -23 $(REACH)/unreached.txt $(REACH)/allowed.txt | sed 's/^/reach: unreached and not in reach_allow.txt: /' | grep . && bad=1; \
	comm -13 $(REACH)/unreached.txt $(REACH)/allowed.txt | sed 's/^/reach: reach_allow.txt names a function that runs or no longer exists; drop it: /' | grep . && bad=1; \
	echo "reach: $$(wc -l <$(REACH)/unreached.txt) unreached functions, $$(wc -l <$(REACH)/allowed.txt) allowlisted"; \
	exit $$bad

# Idle check: the last command of a working session. Fails, listing the
# offenders, if a test binary, the benchmark binary or a go test/run/build
# is still alive, or if any process at all is running a binary from this
# checkout, from $(SCRATCH) (hand-built A/B binaries such as perf_parent /
# perf_new, which no name pattern catches) or from a go-build temp dir —
# which is where a `go run` child lives, and killing only the `go` parent
# (what a tool timeout does) orphans it. Run it on its own: a shell line that also names `go test`
# matches itself. (The [.] keeps the recipe's own shell from matching its
# pattern.)
SCRATCH ?= /root/scratch

idle:
	@bad=0; \
	if pgrep -fa '[.]test( |$$)|[.]bench_build/perf( |$$)|(^|/)go (test|run|build)( |$$)'; then bad=1; fi; \
	for p in /proc/[0-9]*; do \
		exe=$$(readlink "$$p/exe" 2>/dev/null) || continue; \
		case "$$exe" in \
		"$(CURDIR)"/*|$(SCRATCH)/*|*/go-build*) echo "$${p#/proc/} $$exe"; bad=1;; \
		esac; \
	done; \
	if [ $$bad = 1 ]; then \
		echo 'idle: the processes above are still running' >&2; exit 1; \
	fi
