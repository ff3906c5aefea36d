package lp

import "math"

// Warm starting: the deployment planner re-solves its placement LP every
// few minutes against slightly perturbed traffic volumes (the paper's
// Section 5 "Traffic changes" cadence). The column space is a function of
// the problem's shape alone, so the previous optimal basis is almost always
// feasible, and nearly optimal, for the new data: re-solving from it skips
// phase 1 and needs a handful of phase-2 pivots instead of hundreds.

// Basis is a simplex basis snapshot in the solver's total column space:
// structural variables first (AddVar order), then one slack/surplus column
// per inequality row, then one artificial per GE/EQ row. A Basis captured
// from one solve (Solution.Basis) can warm-start any problem with the same
// shape via Options.WarmBasis.
type Basis struct {
	// Cols and Rows pin the column space the basis lives in; a solve
	// rejects a basis whose dimensions do not match its own.
	Cols, Rows int
	// Basic holds the column basic in each row, in row order.
	Basic []int
	// AtUpper lists the nonbasic columns resting at a finite upper bound;
	// all other nonbasic columns rest at their (shifted) lower bound.
	AtUpper []int
}

// captureBasis snapshots the current basis and bound states.
func (s *simplex) captureBasis() *Basis {
	b := &Basis{Cols: s.nTotal, Rows: s.m, Basic: append([]int(nil), s.basis...)}
	for j := 0; j < s.nTotal; j++ {
		if s.state[j] == atUpper {
			b.AtUpper = append(b.AtUpper, j)
		}
	}
	return b
}

// installBasis factors the given basis, at the cost of one factorization,
// and validates primal feasibility of its point. On success the solver is
// flagged warm: phase 1 is skipped and artificials stay frozen at zero. On
// failure (dimension mismatch, singular basis, infeasible point) it returns
// false with the solver's state changed: the caller must rebuild the
// simplex for a cold start.
func (s *simplex) installBasis(b *Basis) bool {
	if b == nil || b.Cols != s.nTotal || b.Rows != s.m || len(b.Basic) != s.m {
		return false
	}
	for j := range s.state {
		s.state[j] = atLower
	}
	for r, j := range b.Basic {
		if j < 0 || j >= s.nTotal || s.state[j] == basic {
			return false
		}
		s.basis[r], s.state[j] = j, basic
	}
	// Freeze artificials exactly as a completed phase 1 would: a basic
	// artificial (redundant row) may stay, pinned to zero. This must happen
	// before bound-state restoration — the donor solve records zero-width
	// artificials it bound-flipped as AtUpper, and restoring them against
	// the construction-time infinite bound would demote them to atLower and
	// replay every one of those degenerate flips.
	for j := s.firstArt; j < s.nTotal; j++ {
		s.ub[j] = 0
	}
	// A recorded atUpper column whose bound is infinite here (shape drift
	// the dimension check cannot see) stays atLower; repair arbitrates.
	for _, j := range b.AtUpper {
		if j < 0 || j >= s.nTotal || s.state[j] == basic {
			return false
		}
		if !math.IsInf(s.ub[j], 1) {
			s.state[j] = atUpper
		}
	}
	if !s.factor() || !s.repairBounds(math.Max(1e-7, s.tol*100)) {
		return false
	}
	s.warm = true
	return true
}

// repairBounds restores primal feasibility after a basis install: basic
// variables that rested on a bound can drift past it when the coefficients
// moved. Each is demoted to the violated bound, and the row's best column
// that moves off its own bound as it returns is pivoted in (a crash repair
// for bounded variables). A fifth pass only checks: a repair that has not
// converged rejects the warm start, and the caller solves cold.
func (s *simplex) repairBounds(feasTol float64) bool {
	for pass := 0; ; pass++ {
		s.refresh()
		clean := true
		for r, b := range s.basis {
			demote, want := atLower, 1.0
			if v, u := s.beta[r], s.ub[b]; !math.IsInf(u, 1) && v > u+feasTol {
				demote, want = atUpper, -1
			} else if v >= -feasTol {
				continue
			}
			clean = false
			best := s.bestInRow(r, want)
			if pass == 4 || best < 0 {
				return false
			}
			s.ftranCol(best)
			s.pivot(r, best, demote)
		}
		if clean {
			return true
		}
	}
}
