package lp

import (
	"runtime"
	"testing"
)

// TestPivotAllocFree holds a steady-state simplex iteration — pricing,
// FTRAN, the ratio test, the reduced-cost update from the pivot row, the
// eta append and its row and pivot chains — to zero allocations, and with
// them the step that refactorizes, resetting the eta file and its chains,
// and then a refactorization and a refresh on their own: every work vector,
// the eta file, both chains and factor's scratch are sized once with the
// solver, and none of them regrows.
func TestPivotAllocFree(t *testing.T) {
	s := newSimplex(buildDeploymentLP(50, 600, 7), Options{})
	s.c = make([]float64, s.nTotal) // phase 1: the sum of the artificials
	for j := s.firstArt; j < s.nTotal; j++ {
		s.c[j] = 1
	}
	s.refresh()
	// Run past the first refactorization, stopping a few basis changes
	// short of the second, so the measured window holds it.
	const lead = 10
	for s.iters <= refactorEvery || s.updates != refactorEvery-lead {
		if st, done := s.step(); done {
			t.Fatalf("phase 1 ended (%v) after %d iterations, before the window", st, s.iters)
		}
	}
	reserved := func() [5]int {
		return [5]int{cap(s.piv), cap(s.pivNext), cap(s.active), cap(s.etas.nz), cap(s.etaAt)}
	}
	want := reserved()
	const window = refactorEvery / 2
	if allocs := testing.AllocsPerRun(window, func() {
		if st, done := s.step(); done {
			t.Fatalf("phase 1 ended (%v) inside the window", st)
		}
	}); allocs != 0 {
		t.Fatalf("a simplex iteration allocates %v times, want 0", allocs)
	}
	if s.updates >= refactorEvery-lead {
		t.Fatalf("window missed the refactorization (%d basis changes since the last)", s.updates)
	}
	if allocs := testing.AllocsPerRun(5, func() {
		if !s.factor() {
			t.Fatal("the basis no longer factors")
		}
		s.refresh()
	}); allocs != 0 {
		t.Fatalf("a refactorization and refresh allocate %v times, want 0", allocs)
	}
	if len(s.pivNext) != len(s.piv) {
		t.Fatalf("factor left %d pivot-chain links for %d etas", len(s.pivNext), len(s.piv))
	}
	if got := reserved(); got != want {
		t.Fatalf("capacities (etas, pivot links, active words, eta entries, etaAt) grew from %v to %v", want, got)
	}
}

// TestSolveAllocBudget bounds what a cold solve allocates by a multiple of
// the sparse problem's size, nnz + rows + columns: a dense rows x columns
// tableau (about 13 MB at this size) cannot come back.
func TestSolveAllocBudget(t *testing.T) {
	p := buildDeploymentLP(50, 600, 7)
	probe := newSimplex(p, Options{})
	size := uint64(len(probe.rows.nz) + probe.m + probe.nTotal)
	const perEntry = 160 // bytes

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sol, err := p.Solve()
	runtime.ReadMemStats(&after)
	if err != nil || sol.Status != StatusOptimal {
		t.Fatalf("status %v err %v", sol.Status, err)
	}
	got := after.TotalAlloc - before.TotalAlloc
	if budget := perEntry * size; got > budget {
		t.Fatalf("cold solve allocated %d bytes, budget %d (%d bytes x (nnz + rows + columns = %d))", got, budget, perEntry, size)
	}
	t.Logf("cold solve allocated %d bytes for nnz + rows + columns = %d (dense tableau: %d bytes)", got, size, 8*probe.m*(probe.nTotal+1))
}
