package lp

import (
	"runtime"
	"testing"
)

// TestPivotAllocFree holds the elimination step to zero allocations: the
// pivot row's nonzero list lives in scratch sized once with the tableau.
func TestPivotAllocFree(t *testing.T) {
	s := newSimplex(buildDeploymentLP(11, 100, 7), Options{})
	s.phase1Costs() // so the cost-row update runs too
	// Row 0 is unit 0's coverage equality. Pivoting it back and forth between
	// two of its columns keeps both pivots nonzero, and each eliminates the
	// column from the load row that also holds it.
	var cols []int
	for j := 0; j < s.nStruct && len(cols) < 2; j++ {
		if s.tab[j] != 0 {
			cols = append(cols, j)
		}
	}
	if len(cols) < 2 {
		t.Fatalf("row 0 has %d structural nonzeros, want 2", len(cols))
	}
	if allocs := testing.AllocsPerRun(100, func() {
		s.pivot(0, cols[0])
		s.pivot(0, cols[1])
	}); allocs != 0 {
		t.Fatalf("pivot allocates %v times per call pair, want 0", allocs)
	}
}

// TestSolveAllocBudget bounds what a cold solve allocates by its tableau
// plus 25%: everything else the solver keeps is O(rows + columns), so a
// dense per-row scratch the size of the constraint matrix cannot come back.
func TestSolveAllocBudget(t *testing.T) {
	p := buildDeploymentLP(50, 600, 7)
	probe := newSimplex(p, Options{})
	tableau := uint64(8 * len(probe.tab))

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sol, err := p.Solve()
	runtime.ReadMemStats(&after)
	if err != nil || sol.Status != StatusOptimal {
		t.Fatalf("status %v err %v", sol.Status, err)
	}
	got := after.TotalAlloc - before.TotalAlloc
	if budget := tableau + tableau/4; got > budget {
		t.Fatalf("cold solve allocated %d bytes, budget %d (tableau %d x 1.25)", got, budget, tableau)
	}
	t.Logf("cold solve allocated %d bytes for a %d-byte tableau", got, tableau)
}
