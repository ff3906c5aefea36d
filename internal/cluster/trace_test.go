package cluster

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"nwdeploy/internal/trace"
)

// tracedChaos runs the fault-heavy determinism scenario with a live
// tracer and returns the run's canonical event sequence plus a full dump.
func tracedChaos(t *testing.T, seed int64, workers int) ([]trace.Event, []byte) {
	t.Helper()
	tr := trace.New(trace.Options{Seed: seed})
	cfg := smallChaosConfig(seed, workers)
	cfg.Trace = tr
	if _, err := RunScenario(cfg); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.Dump(&buf, "test"); err != nil {
		t.Fatal(err)
	}
	return tr.Events(), buf.Bytes()
}

// The tentpole determinism guarantee for traces: same seed, Workers 1 vs
// 4 → DeepEqual per-component event sequences and byte-identical dumps,
// even though agents fetch concurrently over real sockets under injected
// faults. Events() already normalizes order per component (and components
// sort by (kind, id)), so DeepEqual over it is the per-node comparison.
func TestClusterTraceDeterministicAcrossWorkers(t *testing.T) {
	ev1, dump1 := tracedChaos(t, 21, 1)
	ev4, dump4 := tracedChaos(t, 21, 4)
	if !reflect.DeepEqual(ev1, ev4) {
		for i := range ev1 {
			if i >= len(ev4) || !reflect.DeepEqual(ev1[i], ev4[i]) {
				t.Fatalf("event %d diverges across workers:\n w1: %+v\n w4: %+v", i, ev1[i], ev4[i])
			}
		}
		t.Fatalf("event counts diverge: %d vs %d", len(ev1), len(ev4))
	}
	if !bytes.Equal(dump1, dump4) {
		t.Fatal("dumps not byte-identical across worker counts")
	}
	if len(ev1) == 0 {
		t.Fatal("traced chaos run recorded no events")
	}
	// The chaos path drives the data plane, so engine_run events must be
	// present (the overload path audits coverage without running engines).
	var engineRuns int
	for _, ev := range ev1 {
		if ev.Type == trace.EvEngineRun {
			engineRuns++
		}
	}
	if engineRuns == 0 {
		t.Fatal("traced chaos run recorded no engine_run events")
	}

	ev22, _ := tracedChaos(t, 22, 1)
	if reflect.DeepEqual(ev1, ev22) {
		t.Fatal("different seeds produced identical traces")
	}
}

// A traced overload run must record the causal chain the flight recorder
// exists to reconstruct: overrun → shed_planned → shed_publish →
// fetch_ok (carrying the publish span), all on one run's trace.
func TestOverloadTraceRecordsCausalChain(t *testing.T) {
	tr := trace.New(trace.Options{Seed: 5})
	cfg := smallOverloadConfig(5, 1)
	cfg.Trace = tr
	rep, err := RunScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	shedHappened := false
	for _, e := range rep.Epochs {
		if e.ShedWidth > 0 {
			shedHappened = true
		}
	}
	if !shedHappened {
		t.Fatal("scenario no longer sheds; causal-chain assertion is vacuous")
	}

	// Two passes: Events() orders components canonically ((kind, id), so
	// agents precede the controller), not causally — collect the publish
	// spans first, then check the agents' fetches stitch to them.
	seen := map[string]int{}
	pubSpans := map[string]bool{}
	for _, ev := range tr.Events() {
		seen[ev.Type]++
		if ev.Type == trace.EvShedPublish || ev.Type == trace.EvPublish {
			pubSpans[ev.Span] = true
		}
	}
	var stitched bool
	for _, ev := range tr.Events() {
		if ev.Type == trace.EvFetchOK {
			for _, a := range ev.Attrs {
				if a.K == "pub_span" && pubSpans[a.V] {
					stitched = true
				}
			}
		}
	}
	for _, typ := range []string{
		trace.EvEpochStart, trace.EvDrift, trace.EvOverrun,
		trace.EvShedPlanned, trace.EvShedPublish, trace.EvFetchOK,
		trace.EvCoverage,
	} {
		if seen[typ] == 0 {
			t.Errorf("causal chain missing %q events (saw %v)", typ, seen)
		}
	}
	if !stitched {
		t.Fatal("no fetch_ok carried a publish span recorded by the controller: wire stitch broken")
	}
}

// The SLO watchdog's verdicts land in the epoch reports and are
// tracer-independent: the same impossible SLO yields the same violations
// with and without a live tracer.
func TestWatchdogViolationsInReports(t *testing.T) {
	slo := trace.Disabled()
	slo.MinWorstCoverage = 1.01 // unsatisfiable: every epoch violates
	run := func(tr *trace.Tracer) *ScenarioReport {
		cfg := smallOverloadConfig(9, 1)
		cfg.Watchdog = trace.NewWatchdog(slo)
		cfg.Trace = tr
		rep, err := RunScenario(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	tr := trace.New(trace.Options{Seed: 9})
	withTrace := run(tr)
	withoutTrace := run(nil)
	if !reflect.DeepEqual(withTrace, withoutTrace) {
		t.Fatal("watchdog verdicts differ with vs without a live tracer")
	}
	for _, e := range withTrace.Epochs {
		if len(e.SLOViolations) == 0 {
			t.Fatalf("epoch %d: unsatisfiable SLO produced no violations", e.Epoch)
		}
	}
	var sloEvents int
	for _, ev := range tr.Events() {
		if ev.Type == trace.EvSLOViolation {
			sloEvents++
		}
	}
	if sloEvents == 0 {
		t.Fatal("no slo_violation events recorded")
	}
}

// The watchdog sees fetch failures on every path, not only under chaos: a
// lossy scenario run breaches max_fetch_failures in exactly the epochs that
// had failures, and arming the rule changes nothing else — the rule-off run
// is the one the golden file pins.
func TestWatchdogSeesFetchFailuresUnderScenario(t *testing.T) {
	off, err := RunScenario(lossyScenarioConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	slo := trace.Disabled()
	slo.MaxFetchFailures = 0
	cfg := lossyScenarioConfig(t)
	cfg.Watchdog = trace.NewWatchdog(slo)
	on, err := RunScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fired := 0
	for i := range on.Epochs {
		e := &on.Epochs[i]
		breached := len(e.SLOViolations) == 1 && strings.HasPrefix(e.SLOViolations[0], "max_fetch_failures=")
		if breached != (e.FetchFailures > 0) {
			t.Fatalf("epoch %d: %d fetch failures but violations %v", e.Epoch, e.FetchFailures, e.SLOViolations)
		}
		if breached {
			fired++
		}
		e.SLOViolations = nil
	}
	if fired == 0 {
		t.Fatal("lossy run had no fetch failures; the rule was never on trial")
	}
	if on.SLOViolations != fired {
		t.Fatalf("report counts %d violations, epochs carry %d", on.SLOViolations, fired)
	}
	on.SLOViolations = 0
	if !reflect.DeepEqual(on, off) {
		t.Fatal("arming max_fetch_failures changed the report beyond its SLO fields")
	}
}

// DumpOnce fires at the first violation and the sink holds exactly one
// post-mortem even when every epoch violates.
func TestPostMortemDumpsOnce(t *testing.T) {
	tr := trace.New(trace.Options{Seed: 9})
	var sink bytes.Buffer
	tr.SetSink(&sink)
	slo := trace.Disabled()
	slo.MinWorstCoverage = 1.01
	cfg := smallOverloadConfig(9, 1)
	cfg.Trace = tr
	cfg.Watchdog = trace.NewWatchdog(slo)
	if _, err := RunScenario(cfg); err != nil {
		t.Fatal(err)
	}
	if sink.Len() == 0 {
		t.Fatal("violating run produced no post-mortem")
	}
	if n := bytes.Count(sink.Bytes(), []byte(`"type":"dump"`)); n != 1 {
		t.Fatalf("sink holds %d dump headers, want exactly 1", n)
	}
}
