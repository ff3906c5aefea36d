package lp

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
)

// The reference kernels: pricing as a scan over every column, BTRAN as a
// reverse walk over the whole eta file and FTRAN as a forward one, as the
// simplex ran them before it priced by block bounds and found its etas by
// row and pivot chains. They are the oracle the fast kernels are held to
// step by step (checkKernels), so keep them plain: do not optimise them.

// refPrice is price over every column's gain, computed afresh from its
// state and reduced cost.
func refPrice(s *simplex, bland bool) (j, dir int) {
	j, best := -1, math.Max(s.tol, 1e-7)
	for k, st := range s.state {
		if rc := [4]float64{atLower: -1, atUpper: 1}[st&3] * s.cost[k]; rc > best {
			j, best = k, rc
			if bland {
				break
			}
		}
	}
	if j >= 0 {
		dir = 1 - 2*int(s.state[j])
	}
	return j, dir
}

// refBtran is btran applying every eta, newest first.
func refBtran(s *simplex, v *svec) {
	for k := len(s.piv) - 1; k >= 0; k-- {
		p := s.piv[k]
		a := v.x[p.i]
		for _, e := range s.etas.line(k) {
			a -= e.v * v.x[e.i]
		}
		if a != 0 || v.x[p.i] != 0 {
			v.set(p.i, a/p.v)
		}
	}
}

// refFtran is ftran applying every eta, oldest first, skipping one whose
// pivot entry is zero.
func refFtran(s *simplex, v *svec) {
	for k, p := range s.piv {
		xp := v.x[p.i]
		if xp == 0 {
			continue
		}
		xp /= p.v
		v.x[p.i] = xp
		for _, e := range s.etas.line(k) {
			v.set(e.i, v.x[e.i]+(-e.v*xp))
		}
	}
}

// priceBlocksHold checks what price relies on: every gain equals the one
// its column's state and reduced cost give, bit for bit; every block's bound
// is at least each of its gains; and a clean block's bound is its largest
// gain, with arg the lowest column holding it. A missed gain update that
// happens not to change a pivot (a leaving column's gain is never positive)
// still fails here.
func priceBlocksHold(s *simplex) error {
	for k, st := range s.state {
		if g := [4]float64{atLower: -1, atUpper: 1}[st&3] * s.cost[k]; math.Float64bits(s.gain[k]) != math.Float64bits(g) {
			return fmt.Errorf("gain[%d] = %v, its state and reduced cost give %v", k, s.gain[k], g)
		}
	}
	for b, blk := range s.blocks {
		lo := b << blockBits
		top, arg := math.Inf(-1), lo
		for k := lo; k < min(lo+1<<blockBits, s.nTotal); k++ {
			if s.gain[k] > blk.bound {
				return fmt.Errorf("block %d bound %v under gain[%d] = %v", b, blk.bound, k, s.gain[k])
			}
			if s.gain[k] > top {
				top, arg = s.gain[k], k
			}
		}
		if blk.clean && (blk.bound != top || blk.arg != arg) {
			return fmt.Errorf("clean block %d holds (%v, column %d), its gains give (%v, column %d)", b, blk.bound, blk.arg, top, arg)
		}
	}
	return nil
}

// KernelChecks counts the calls checkKernels compared: FTRANs by the
// simplex method that ran them (step, factor, refresh, ...), and ratio tests.
type KernelChecks struct {
	Dantzig, Bland, Btran, Ratio int
	Ftran                        map[string]int
}

// checkKernels holds every price, btran and ftran call, in every solve, to
// the reference kernels until restore is called: the same column and
// direction, and a BTRAN or FTRAN result equal bit for bit, with its
// nonzeros listed in the same order. Every ratio test must walk the rows of
// the FTRAN before it in slices.Sort's order. fail reports a disagreement.
// Tests using it must not run in parallel.
func checkKernels(fail func(format string, args ...any)) (n *KernelChecks, restore func()) {
	n = &KernelChecks{Ftran: map[string]int{}}
	checkPrice = func(s *simplex, bland bool, j, dir int) {
		if bland {
			n.Bland++
		} else {
			n.Dantzig++
		}
		if rj, rdir := refPrice(s, bland); j != rj || dir != rdir {
			fail("price (bland %v, iteration %d) chose column %d dir %d, reference %d dir %d", bland, s.iters, j, dir, rj, rdir)
		}
		if err := priceBlocksHold(s); err != nil {
			fail("price (iteration %d): %v", s.iters, err)
		}
	}
	// against runs ref on a copy of v and returns the check of v's result.
	against := func(name string, ref func(*simplex, *svec), s *simplex, v *svec) func() {
		want := newSvec(len(v.x))
		for _, i := range v.nz {
			want.set(i, v.x[i])
		}
		ref(s, &want)
		return func() {
			if !slices.Equal(v.nz, want.nz) {
				fail("%s (iteration %d) listed nonzeros %v, reference %v", name, s.iters, v.nz, want.nz)
				return
			}
			for i := range v.x {
				if math.Float64bits(v.x[i]) != math.Float64bits(want.x[i]) {
					fail("%s (iteration %d) row %d = %v, reference %v", name, s.iters, i, v.x[i], want.x[i])
					return
				}
			}
		}
	}
	checkBtran = func(s *simplex, v *svec) func() {
		n.Btran++
		return against("btran", refBtran, s, v)
	}
	var rows []int32 // the last FTRAN's nonzeros, sorted: the ratio test's order
	checkFtran = func(s *simplex, v *svec) func() {
		site := ftranCaller()
		n.Ftran[site]++
		check := against("ftran from "+site, refFtran, s, v)
		return func() {
			check()
			rows = append(rows[:0], v.nz...)
			slices.Sort(rows)
		}
	}
	checkRatio = func(s *simplex) {
		n.Ratio++
		if !slices.Equal(s.col.nz, rows) {
			fail("ratio test (iteration %d) walks rows %v, sorted %v", s.iters, s.col.nz, rows)
		}
	}
	return n, func() { checkPrice, checkBtran, checkFtran, checkRatio = nil, nil, nil, nil }
}

// ftranCaller names the simplex method that called ftran, directly or
// through ftranCol, from inside checkFtran.
func ftranCaller() string {
	pc := make([]uintptr, 16)
	frames := runtime.CallersFrames(pc[:runtime.Callers(3, pc)])
	for {
		f, more := frames.Next()
		name := f.Function[strings.LastIndexByte(f.Function, '.')+1:]
		if name != "ftran" && name != "ftranCol" || !more {
			return name
		}
	}
}
