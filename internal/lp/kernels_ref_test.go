package lp

import (
	"fmt"
	"math"
	"slices"
)

// The reference kernels: pricing as a scan over every column and BTRAN as a
// reverse walk over the whole eta file, as the simplex ran them before it
// priced by block bounds and found BTRAN's etas by row chains. They are the
// oracle the fast kernels are held to step by step (checkKernels), so keep
// them plain: do not optimise them.

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

// KernelChecks counts the calls checkKernels compared.
type KernelChecks struct{ Dantzig, Bland, Btran int }

// checkKernels holds every price and btran call, in every solve, to the
// reference kernels until restore is called: the same column and direction,
// and a BTRAN result equal bit for bit, with its nonzeros listed in the same
// order. fail reports a disagreement. Tests using it must not run in
// parallel.
func checkKernels(fail func(format string, args ...any)) (n *KernelChecks, restore func()) {
	n = &KernelChecks{}
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
	checkBtran = func(s *simplex, v *svec) func() {
		n.Btran++
		ref := newSvec(len(v.x))
		for _, i := range v.nz {
			ref.set(i, v.x[i])
		}
		refBtran(s, &ref)
		return func() {
			if !slices.Equal(v.nz, ref.nz) {
				fail("btran (iteration %d) listed nonzeros %v, reference %v", s.iters, v.nz, ref.nz)
				return
			}
			for i := range v.x {
				if math.Float64bits(v.x[i]) != math.Float64bits(ref.x[i]) {
					fail("btran (iteration %d) row %d = %v, reference %v", s.iters, i, v.x[i], ref.x[i])
					return
				}
			}
		}
	}
	return n, func() { checkPrice, checkBtran = nil, nil }
}
