package control

import (
	"errors"
	"runtime"
	"testing"

	"nwdeploy/internal/hashing"
)

// The publish and install steps run once per node per epoch: a 1000-agent
// fleet builds, diffs, encodes, applies and indexes a thousand manifests
// every time the operations centre re-plans. Each step's objects and bytes
// are pinned here for one 8-unit manifest of the distribute workload's
// shape, one of whose units moved, with a little headroom on the bytes.
// The map-based kernels this replaced allocated, for the same pipeline,
// 15 objects / 1088 bytes (ManifestFromPlan), 45 / 1192 (DiffManifests),
// 44 / 2432 (ApplyDelta) and 85 / 3896 (NewDecider); the decider with a
// per-class index beside the scope-grouped one took 9 / 1504.
func TestManifestPipelineAllocBudget(t *testing.T) {
	const node = 17
	plan := syntheticPlan(1000, 8)
	next := syntheticPlan(1000, 8)
	moved := next.Manifests[node].Ranges[node+3][0]
	next.Manifests[node].Ranges[node+3] = hashing.RangeSet{{Lo: moved.Lo + 0.01, Hi: moved.Hi + 0.01}}
	old, err := ManifestFromPlan(plan, node, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	cur, _ := ManifestFromPlan(next, node, 2, 7)
	d, ok := DiffManifests(old, cur)
	if !ok || len(d.Added) != 1 || len(d.Removed) != 1 {
		t.Fatalf("test premise broken: delta %+v", d)
	}
	buf := AppendDeltaBinary(nil, d)
	for _, step := range []struct {
		name          string
		allocs, bytes float64
		run           func()
	}{
		{"ManifestFromPlan", 4, 800, func() { ManifestFromPlan(next, node, 2, 7) }},
		{"DiffManifests", 5, 320, func() { DiffManifests(old, cur) }},
		{"AppendDeltaBinary", 0, 0, func() { buf = AppendDeltaBinary(buf[:0], d) }},
		{"ApplyDelta", 3, 700, func() { ApplyDelta(old, d) }},
		{"NewDecider", 6, 1480, func() { NewDecider(cur) }},
	} {
		allocs := testing.AllocsPerRun(200, step.run)
		const reps = 200
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < reps; i++ {
			step.run()
		}
		runtime.ReadMemStats(&after)
		bytes := float64(after.TotalAlloc-before.TotalAlloc) / reps
		t.Logf("%s: %v objects, %.0f bytes (budget %v / %v)", step.name, allocs, bytes, step.allocs, step.bytes)
		if allocs > step.allocs || bytes > step.bytes {
			t.Errorf("%s allocates %v objects / %.0f bytes, budget %v / %v", step.name, allocs, bytes, step.allocs, step.bytes)
		}
	}
}

// exchangeBytes is the mean bytes one run of fn allocates, in every
// goroutine of the process, over reps runs after a warm-up one.
func exchangeBytes(t *testing.T, reps int, fn func() error) float64 {
	t.Helper()
	if err := fn(); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < reps; i++ {
		if err := fn(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(reps)
}

// TestExchangeAllocBudget pins what one control-plane exchange allocates,
// controller and agent together, over loopback against a 1000-node plan:
// a v2 binary delta on a held connection, and a v1 full JSON fetch on its
// own connection (the dial included). Both line readers come from a pool,
// so each budget sits below one 4 KiB reader: an exchange that builds a
// reader per connection fails it.
func TestExchangeAllocBudget(t *testing.T) {
	const node = 17
	ctrl, err := NewController("127.0.0.1:0", 7)
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	plan := syntheticPlan(1000, 8)
	ctrl.UpdatePlan(plan)
	base := ctrl.Epoch()
	plan.Manifests[node].Ranges[node+3] = hashing.RangeSet{{Lo: 0.01, Hi: 0.2}}
	ctrl.UpdatePlan(plan)

	a := NewAgent(ctrl.Addr(), node)
	defer a.Close()
	for _, tc := range []struct {
		name   string
		req    request
		budget float64
	}{
		{"v2-delta-bin-held", request{Op: "delta", Node: node, V: ProtocolV2, Enc: EncBin, Have: base}, 1200},
		{"v1-full-json", request{Op: "manifest", Node: node}, 4090},
	} {
		budget := tc.budget
		if raceEnabled {
			budget *= 2.5 // the race detector about doubles these bytes
		}
		bytes := exchangeBytes(t, 500, func() error {
			resp, _, err := a.exchange(tc.req)
			if err == nil && resp.Delta == nil && resp.Manifest == nil {
				err = errors.New("answer carries neither delta nor manifest")
			}
			return err
		})
		t.Logf("%s: %.0f bytes per exchange (budget %.0f)", tc.name, bytes, budget)
		if bytes > budget {
			t.Errorf("%s allocates %.0f bytes per exchange, budget %.0f", tc.name, bytes, budget)
		}
	}
}
