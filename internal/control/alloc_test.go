package control

import (
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
// 44 / 2432 (ApplyDelta) and 85 / 3896 (NewDecider).
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
		{"NewDecider", 9, 2200, func() { NewDecider(cur) }},
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
