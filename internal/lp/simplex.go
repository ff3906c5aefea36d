package lp

import (
	"math"
	"math/bits"
	"slices"
)

// varState tracks where a variable currently sits.
type varState int8

const (
	atLower varState = iota // nonbasic at its (shifted) lower bound 0
	atUpper                 // nonbasic at its finite upper bound
	basic                   // basic; value held in beta for its row
)

// simplex is a bounded-variable, two-phase revised primal simplex over
// sparse columns.
//
// Internal form: all variables are shifted so lower bounds are 0; every
// constraint row is an equality after adding a slack (LE) or surplus (GE)
// column; rows are normalized to nonnegative right-hand sides; artificial
// variables complete the initial basis for rows whose slack cannot serve.
//
// A, slack and artificial columns included, is held by column and by row
// (for the pivot row of B^-1*A, which updates the reduced costs). B^-1 is
// the product of the eta file: the etas of the last factorization, then one
// per basis change. Every refactorEvery basis changes the file is rebuilt
// from the basic columns, and beta and the reduced costs are recomputed
// from scratch, bounding the file's length and their drift.
type simplex struct {
	nStruct int // structural variables
	nTotal  int // structural + slack/surplus + artificial
	m       int // rows

	cols, rows sparse    // A by column (rows ascending) and by row
	rhs        []float64 // m normalized right-hand sides

	c       []float64 // nTotal costs of the current phase; nil while none is loaded
	cost    []float64 // nTotal reduced costs, kept current while c is loaded
	ub      []float64 // nTotal upper bounds (shifted space)
	objCost []float64 // nTotal phase-2 costs (internal minimize space)
	sign    float64   // +1, or -1 for a maximization: objCost = sign*cost

	basis []int      // m: variable index basic in each row
	state []varState // nTotal
	beta  []float64  // m: current basic values

	// The eta file: eta k pivots on row piv[k].i with value piv[k].v, and
	// its other nonzeros are etas.line(k).
	etas    sparse
	piv     []entry
	updates int // basis changes since the last factorization

	// The eta file by row, for btran: rowHead[i] heads row i's chain (see
	// activate), etaAt[c] is the eta holding etas.nz[16c], active the etas to apply.
	rowHead, etaAt []int32
	active         []uint64

	// The etas by pivot row, for ftran: pivHead[i] is 1 + the newest eta
	// pivoting on row i, pivNext[k] 1 + the one before eta k on its row; 0
	// ends a chain.
	pivHead, pivNext []int32

	gain   []float64    // nTotal: each column's gain (see setGain)
	blocks []priceBlock // bounds on the gains of each 64 columns (see price)
	col    svec         // m: the entering column, FTRAN'd; also beta's scratch
	rho    svec         // m: a BTRAN'd row of B^-1, or c_B*B^-1
	alpha  svec         // nTotal: a row of B^-1*A
	keys   []int64      // m: factor's column order

	firstArt int // index of first artificial column; nTotal if none

	// Original-problem bookkeeping for solution extraction.
	lbShift []float64 // per structural var
	rowFlip []bool    // row was negated during rhs normalization
	rowUnit []int     // +1 unit column per row (slack or artificial)

	// tol is the feasibility tolerance, always 1e-9. It stays a variable:
	// the run-time product tol*100 rounds above 1e-7, a constant one would not.
	tol      float64
	maxIters int
	iters    int

	degenStreak int // consecutive (near-)zero-step iterations
	blandCount  int // times the degeneracy streak forced Bland's rule on

	// warm records that installBasis succeeded: the current basis is
	// primal-feasible with artificials frozen at zero, so solve skips
	// phase 1 outright. singular records that a refactorization during the
	// solve found a basic column with no usable pivot (see step).
	warm, singular bool
}

const (
	degenSwitch   = 400  // switch to Bland's rule after this many degenerate steps
	refactorEvery = 100  // basis changes between factorizations (DESIGN.md, "LP solver")
	pivTol        = 1e-8 // smallest pivot the ratio test and factor accept
	blockBits     = 6    // 64 columns a price block
	etaAtBits     = 4    // etaAt has one eta per 16 entries of the file
	walkBudget    = 64   // chain links a btran walks before it applies every eta below
)

// entry is one nonzero of a sparse line: its index along the line (the row
// of a column entry, the column of a row entry) and its value. The eta file
// chains its entries by row through next, which fills what would be padding.
type entry struct {
	i, next int32
	v       float64
}

// priceBlock bounds the gains of 64 consecutive columns. A clean block's
// bound is their largest, at column arg, the lowest holding it.
type priceBlock struct {
	bound float64
	arg   int
	clean bool
}

// checkPrice, checkBtran, checkFtran and checkRatio are nil outside tests,
// which hold each pricing decision, each BTRAN and FTRAN (input, then
// result) and the ratio test's row order to the reference kernels.
var checkPrice func(s *simplex, bland bool, j, dir int)
var checkBtran, checkFtran func(s *simplex, v *svec) (check func())
var checkRatio func(s *simplex)

// sparse stores lines of nonzeros back to back: line k is
// nz[start[k]:start[k+1]].
type sparse struct {
	start []int32
	nz    []entry
}

func (a *sparse) line(k int) []entry { return a.nz[a.start[k]:a.start[k+1]] }

// svec is a dense work vector that also lists its nonzero positions, so the
// sparse kernels visit only those and clearing costs what was set. Their
// membership is a bitset, a bit a position.
type svec struct {
	x  []float64
	nz []int32
	in []uint64
}

func newSvec(n int) svec {
	return svec{x: make([]float64, n), nz: make([]int32, 0, n), in: make([]uint64, (n+63)>>6)}
}

func (v *svec) add(i int32, a float64) { v.set(i, v.x[i]+a) }

func (v *svec) set(i int32, a float64) {
	v.list(i)
	v.x[i] = a
}

// list appends i to the nonzero list, reporting whether it was not there.
func (v *svec) list(i int32) bool {
	w, b := i>>6, uint64(1)<<(i&63)
	if v.in[w]&b != 0 {
		return false
	}
	v.in[w] |= b
	v.nz = append(v.nz, i)
	return true
}

// ascend relists the nonzeros in ascending order, read off the bitset.
func (v *svec) ascend() {
	v.nz = v.nz[:0]
	for w, b := range v.in {
		for ; b != 0; b &= b - 1 {
			v.nz = append(v.nz, int32(w<<6|bits.TrailingZeros64(b)))
		}
	}
}

// clear zeroes what was set: every set bit belongs to a listed position.
func (v *svec) clear() {
	for _, i := range v.nz {
		v.x[i], v.in[i>>6] = 0, 0
	}
	v.nz = v.nz[:0]
}

func newSimplex(p *Problem, opts Options) *simplex {
	n, m := len(p.vars), len(p.cons)
	s := &simplex{nStruct: n, m: m, tol: 1e-9, sign: 1}
	if p.sense == Maximize {
		s.sign = -1
	}

	// Shift variables to zero lower bounds.
	s.lbShift, s.ub, s.objCost = make([]float64, n), make([]float64, n, n+2*m), make([]float64, n, n+2*m)
	for i, v := range p.vars {
		s.lbShift[i], s.ub[i], s.objCost[i] = v.lb, v.ub-v.lb, s.sign*v.cost
	}

	// Rows: duplicate terms summed in term order, zeros dropped, the rhs
	// shifted and normalized to >= 0 by negating the row; then the row's
	// slack or surplus and its artificial, numbered after every slack (a
	// flip swaps LE and GE, so it moves no row in or out of EQ). The row's
	// +1 unit column starts basic.
	nnz := 2 * m // the unit columns, at most two a row
	s.firstArt = n
	for _, c := range p.cons {
		nnz += len(c.terms)
		if c.op == LE || c.op == GE {
			s.firstArt++
		}
	}
	s.rhs, s.rowFlip, s.basis = make([]float64, m), make([]bool, m), make([]int, m)
	s.rows.start, s.rows.nz = make([]int32, 1, m+1), make([]entry, 0, nnz)
	at := make([]int32, n) // 1 + position in rows.nz of a variable in this row
	slack, art := n, s.firstArt
	for r, c := range p.cons {
		start, rhs, op := len(s.rows.nz), c.rhs, c.op
		for _, t := range c.terms {
			rhs -= t.Coef * s.lbShift[t.Var]
			if k := at[t.Var]; k > 0 {
				s.rows.nz[k-1].v += t.Coef
			} else {
				s.rows.nz = append(s.rows.nz, entry{i: int32(t.Var), v: t.Coef})
				at[t.Var] = int32(len(s.rows.nz))
			}
		}
		if rhs < 0 {
			s.rowFlip[r], rhs = true, -rhs
			switch op {
			case LE:
				op = GE
			case GE:
				op = LE
			}
		}
		s.rhs[r] = rhs
		row := s.rows.nz[:start]
		for _, e := range s.rows.nz[start:] {
			at[e.i] = 0
			if e.v != 0 {
				if s.rowFlip[r] {
					e.v = -e.v
				}
				row = append(row, e)
			}
		}
		switch op {
		case LE:
			row, s.basis[r] = append(row, entry{i: int32(slack), v: 1}), slack
			slack++
		case GE:
			row = append(row, entry{i: int32(slack), v: -1})
			slack++
			fallthrough
		default:
			row, s.basis[r] = append(row, entry{i: int32(art), v: 1}), art
			art++
		}
		s.rows.nz = row
		s.rows.start = append(s.rows.start, int32(len(row)))
	}
	s.nTotal = art
	for j := n; j < s.nTotal; j++ {
		s.ub, s.objCost = append(s.ub, math.Inf(1)), append(s.objCost, 0)
	}
	s.rowUnit = append([]int(nil), s.basis...)

	// Columns, by a counting transpose of the rows.
	s.cols.start = make([]int32, s.nTotal+1)
	for _, e := range s.rows.nz {
		s.cols.start[e.i+1]++
	}
	for j := 0; j < s.nTotal; j++ {
		s.cols.start[j+1] += s.cols.start[j]
	}
	s.cols.nz = make([]entry, len(s.rows.nz))
	next := append([]int32(nil), s.cols.start...)
	for r := 0; r < m; r++ {
		for _, e := range s.rows.line(r) {
			s.cols.nz[next[e.i]] = entry{i: int32(r), v: e.v}
			next[e.i]++
		}
	}

	s.state = make([]varState, s.nTotal)
	for _, b := range s.basis {
		s.state[b] = basic
	}
	s.beta = make([]float64, m)
	s.col, s.rho, s.alpha = newSvec(m), newSvec(m), newSvec(s.nTotal)
	s.piv = make([]entry, 0, m+refactorEvery)
	s.etas.start = make([]int32, 1, m+refactorEvery+1)
	s.etas.nz = make([]entry, 0, 4*len(s.rows.nz)) // placement LPs' files peak near 2x nnz
	s.rowHead, s.etaAt = make([]int32, m), make([]int32, 0, cap(s.etas.nz)>>etaAtBits+1)
	s.pivHead, s.pivNext = make([]int32, m), make([]int32, 0, cap(s.piv))
	s.cost, s.gain = make([]float64, s.nTotal), make([]float64, s.nTotal)
	s.blocks = make([]priceBlock, (s.nTotal+1<<blockBits-1)>>blockBits)
	s.active, s.keys = make([]uint64, 0, (cap(s.piv)+63)>>6), make([]int64, 0, m)

	s.maxIters = opts.MaxIters
	if s.maxIters == 0 {
		s.maxIters = 200*(m+s.nTotal) + 20000
	}
	return s
}

// loadCol scatters column j of A into s.col; ftranCol then makes it B^-1*a_j.
func (s *simplex) loadCol(j int) {
	for _, e := range s.cols.line(j) {
		s.col.add(e.i, e.v)
	}
}

func (s *simplex) ftranCol(j int) {
	s.loadCol(j)
	s.ftran(&s.col)
}

// ftran overwrites v with B^-1*v, applying the etas in file order. Eta k
// reads only its pivot entry and is a no-op while that is zero, which it
// is unless the row is one of v's or an earlier applied eta wrote to it. So
// ftran marks the etas on the pivot chains of v's rows, and of each row an
// applied eta first lists, and applies only the marked ones, in order: the
// full walk's arithmetic on the same etas, so v and v.nz match it bit for bit.
func (s *simplex) ftran(v *svec) {
	if checkFtran != nil {
		defer checkFtran(s, v)()
	}
	for _, i := range v.nz {
		s.markPivots(i, -1)
	}
	for w := range (len(s.piv) + 63) >> 6 {
		for s.active[w] != 0 {
			b := bits.TrailingZeros64(s.active[w])
			s.active[w] &^= 1 << b
			k := w<<6 | b
			p := s.piv[k]
			xp := v.x[p.i]
			if xp == 0 {
				continue
			}
			xp /= p.v
			v.x[p.i] = xp
			for _, e := range s.etas.line(k) {
				if v.list(e.i) {
					s.markPivots(e.i, k)
				}
				v.x[e.i] = v.x[e.i] + (-e.v * xp)
			}
		}
	}
}

// markPivots marks for ftran every eta after eta k that pivots on row i.
func (s *simplex) markPivots(i int32, k int) {
	for n := s.pivHead[i]; int(n) > k+1; n = s.pivNext[n-1] {
		s.active[(n-1)>>6] |= 1 << ((n - 1) & 63)
	}
}

// btran overwrites the row vector v with v*B^-1, applying the etas in
// reverse. Eta k sets only its pivot entry, to a dot product over the entries
// it reads, a no-op while those are all zero; btran skips the no-ops it finds
// on the row chains (see activate) and applies the rest as a full walk would,
// so v and v.nz match it bit for bit.
func (s *simplex) btran(v *svec) {
	if checkBtran != nil {
		defer checkBtran(s, v)()
	}
	budget := walkBudget
	for n := 0; n < len(v.nz) && budget >= 0; n++ {
		budget = s.activate(v.nz[n], len(s.piv), budget)
	}
	for w := (len(s.piv)+63)>>6 - 1; w >= 0; w-- {
		for s.active[w] != 0 {
			b := 63 - bits.LeadingZeros64(s.active[w])
			s.active[w] &^= 1 << b
			k := w<<6 | b
			p := s.piv[k]
			a := v.x[p.i]
			for _, e := range s.etas.line(k) {
				a -= e.v * v.x[e.i]
			}
			if a != 0 || v.x[p.i] != 0 {
				if v.list(p.i) && budget >= 0 {
					budget = s.activate(p.i, k, budget)
				}
				v.x[p.i] = a / p.v
			}
		}
	}
}

// activate marks for btran every eta below `below` on row i's chain (link
// n > 0 is etas.nz[n-1], n < 0 the pivot of eta ^n, 0 the end), spending a
// unit of budget a link. The walk that overspends marks every eta below, as
// applying them costs less than walking on; btran then walks no more.
func (s *simplex) activate(i int32, below, budget int) int {
	for n := s.rowHead[i]; n != 0; budget-- {
		k := int(^n)
		if n > 0 {
			p := int(n) - 1
			k = int(s.etaAt[p>>etaAtBits])
			for int(s.etas.start[k+1]) <= p {
				k++
			}
			n = s.etas.nz[p].next
		} else {
			n = s.piv[k].next
		}
		if k < below {
			s.active[k>>6] |= 1 << (k & 63)
		}
	}
	for k := 0; budget < 0 && k < below; k += 64 {
		s.active[k>>6] |= ^uint64(0) >> (64 - min(64, below-k))
	}
	return budget
}

// pushEta appends the eta of the FTRAN'd column in s.col pivoting on row r,
// chained by row and by pivot row, then clears s.col. A unit column in its
// own row needs none.
func (s *simplex) pushEta(r int) {
	v := &s.col
	if piv := v.x[r]; piv != 1 || len(v.nz) > 1 {
		k := int32(len(s.piv))
		for _, i := range v.nz {
			if a := v.x[i]; int(i) != r && a != 0 {
				s.etas.nz = append(s.etas.nz, entry{i: i, next: s.rowHead[i], v: a})
				s.rowHead[i] = int32(len(s.etas.nz))
			}
		}
		s.piv = append(s.piv, entry{i: int32(r), next: s.rowHead[r], v: piv})
		s.rowHead[r] = ^k
		s.pivNext = append(s.pivNext, s.pivHead[r])
		s.pivHead[r] = k + 1
		if len(s.piv) > len(s.active)<<6 {
			s.active = append(s.active, 0)
		}
		for len(s.etaAt)<<etaAtBits < len(s.etas.nz) {
			s.etaAt = append(s.etaAt, k)
		}
		s.etas.start = append(s.etas.start, int32(len(s.etas.nz)))
	}
	v.clear()
}

// factor rebuilds the eta file from the basic columns, reassigning rows.
// Singleton columns (slacks, artificials) go first, untransformed into their
// own rows, with no eta for a +1; the rest follow by increasing nonzero
// count, each FTRAN'd and pivoted on its largest entry in a row not yet
// taken. A column with no usable pivot leaves the basis for the unit column
// of a left-over row, and factor reports false (a warm start then fails).
func (s *simplex) factor() bool {
	s.piv, s.etas.start, s.etas.nz = s.piv[:0], s.etas.start[:1], s.etas.nz[:0]
	s.etaAt, s.keys, s.pivNext, s.updates = s.etaAt[:0], s.keys[:0], s.pivNext[:0], 0
	clear(s.rowHead)
	clear(s.pivHead)
	for r, j := range s.basis {
		s.keys = append(s.keys, int64(s.cols.start[j+1]-s.cols.start[j])<<32|int64(j))
		s.basis[r] = -1
	}
	slices.Sort(s.keys)
	ok := true
	for _, key := range s.keys {
		j := int(uint32(key))
		s.loadCol(j)
		if len(s.col.nz) > 1 {
			s.ftran(&s.col)
		}
		p, best := -1, pivTol
		for _, i := range s.col.nz {
			if a := math.Abs(s.col.x[i]); a > best && s.basis[i] < 0 {
				p, best = int(i), a
			}
		}
		if p < 0 {
			s.col.clear()
			s.state[j], ok = atLower, false
			continue
		}
		s.basis[p] = j
		s.pushEta(p)
	}
	for r, j := range s.basis {
		if j < 0 {
			s.basis[r] = s.rowUnit[r]
			s.state[s.rowUnit[r]] = basic
		}
	}
	return ok
}

// refresh recomputes the basic values exactly, beta = B^-1*(b - the at-upper
// columns at their bounds), and, while a phase's costs are loaded, every
// reduced cost and gain: d_j = c_j - y*a_j with y = c_B*B^-1.
func (s *simplex) refresh() {
	v := &s.col
	for r, b := range s.rhs {
		v.add(int32(r), b)
	}
	for j, st := range s.state {
		if st == atUpper {
			for _, e := range s.cols.line(j) {
				v.add(e.i, -e.v*s.ub[j])
			}
		}
	}
	s.ftran(v)
	copy(s.beta, v.x)
	v.clear()
	if s.c == nil {
		return
	}
	clear(s.blocks) // dirty at bound 0: setGain raises it past every larger gain
	y := &s.rho
	for r, j := range s.basis {
		y.add(int32(r), s.c[j])
	}
	s.btran(y)
	for j := range s.cost {
		d := 0.0
		if s.state[j] != basic {
			d = s.c[j]
			for _, e := range s.cols.line(j) {
				d -= y.x[e.i] * e.v
			}
		}
		s.cost[j] = d
		s.setGain(j)
	}
	y.clear()
}

// tableauRow fills s.alpha with row r of B^-1*A: rho = e_r*B^-1, then
// rho*A over the rows rho touches.
func (s *simplex) tableauRow(r int) {
	s.rho.add(int32(r), 1)
	s.btran(&s.rho)
	for _, i := range s.rho.nz {
		if y := s.rho.x[i]; y != 0 {
			for _, e := range s.rows.line(int(i)) {
				s.alpha.add(e.i, y*e.v)
			}
		}
	}
	s.rho.clear()
}

// bestInRow returns the movable nonbasic column with the largest entry
// above 1e-7 in row r of B^-1*A (lowest index on a tie), or -1. A nonzero
// want admits only columns whose move off their bound shifts the row's
// basic variable in want's direction (want*alpha < 0 from a lower bound).
func (s *simplex) bestInRow(r int, want float64) int {
	s.tableauRow(r)
	best, bestA := -1, 1e-7
	for _, k := range s.alpha.nz {
		j, a := int(k), s.alpha.x[k]
		if s.state[j] == basic || s.ub[j] == 0 || want != 0 && (want*a > 0) != (s.state[j] == atUpper) {
			continue
		}
		if a = math.Abs(a); a > bestA || a == bestA && j < best {
			best, bestA = j, a
		}
	}
	s.alpha.clear()
	return best
}

// price selects an entering variable: the column with the largest gain above
// the threshold, lowest index on a tie (Dantzig), or under Bland's rule the
// first above it; j=-1 means optimal, and dir=+1 (-1) that j leaves its lower
// (upper) bound. Dantzig rescans the top block (largest bound, lowest index)
// until it is clean; Bland skips blocks bounded at or below the threshold.
func (s *simplex) price(bland bool) (j, dir int) {
	thr, j := math.Max(s.tol, 1e-7), -1
	for k := 0; bland && j < 0 && k < s.nTotal; k++ {
		if s.blocks[k>>blockBits].bound <= thr {
			k |= 1<<blockBits - 1 // skip the rest of the block
		} else if s.gain[k] > thr {
			j = k
		}
	}
	for !bland && j < 0 {
		top := 0
		for b := 1; b < len(s.blocks); b++ {
			if s.blocks[b].bound > s.blocks[top].bound {
				top = b
			}
		}
		blk := &s.blocks[top]
		if blk.bound <= thr {
			break
		}
		if blk.clean {
			j = blk.arg
			break
		}
		lo := top << blockBits // rescan: the largest gain, at its lowest column
		*blk = priceBlock{bound: math.Inf(-1), arg: lo, clean: true}
		for k, g := range s.gain[lo:min(lo+1<<blockBits, s.nTotal)] {
			if g > blk.bound {
				blk.bound, blk.arg = g, lo+k
			}
		}
	}
	if j >= 0 {
		dir = 1 - 2*int(s.state[j]) // +1 from atLower, -1 from atUpper
	}
	if checkPrice != nil {
		checkPrice(s, bland, j, dir)
	}
	return j, dir
}

// setGain recomputes column k's gain (-d off a lower bound, +d off an upper
// one, 0 if basic) and its block: a gain above the bound is the block's unique
// largest, so the block is clean; a fall of the arg's gain leaves it dirty.
func (s *simplex) setGain(k int) {
	g := [4]float64{atLower: -1, atUpper: 1}[s.state[k]&3] * s.cost[k] // &3 spares a bounds check
	s.gain[k] = g
	switch blk := &s.blocks[k>>blockBits]; {
	case g > blk.bound:
		*blk = priceBlock{bound: g, arg: k, clean: true}
	case !blk.clean:
	case k == blk.arg:
		blk.clean = g == blk.bound
	case g == blk.bound && k < blk.arg:
		blk.arg = k
	}
}

// ratio runs the bounded-variable ratio test for entering column j, whose
// FTRAN'd column is in s.col with its nonzeros in ascending row order (ties
// break by row), moving with direction dir. It returns the step length t,
// the limiting row (or -1 for a bound flip on the entering variable), and
// whether the leaving basic variable exits at its upper bound.
func (s *simplex) ratio(j, dir int) (t float64, limRow int, leaveUpper bool, unbounded bool) {
	if checkRatio != nil {
		checkRatio(s)
	}
	t, limRow = s.ub[j], -1 // bound-flip distance; may be +Inf
	bestPiv := 0.0
	for _, i := range s.col.nz {
		r := int(i)
		a := float64(dir) * s.col.x[r]
		var tr float64
		switch ubB := s.ub[s.basis[r]]; {
		case a > pivTol: // basic variable decreases toward 0
			tr = s.beta[r] / a
		case a < -pivTol && !math.IsInf(ubB, 1): // increases toward its upper bound
			tr = (ubB - s.beta[r]) / (-a)
		default:
			continue
		}
		if tr < 0 {
			tr = 0
		}
		if tr < t-1e-9 || (tr < t+1e-9 && math.Abs(a) > bestPiv && limRow >= 0) {
			t, limRow, leaveUpper, bestPiv = tr, r, a < 0, math.Abs(a)
		}
	}
	if math.IsInf(t, 1) {
		return 0, -1, false, true
	}
	return t, limRow, leaveUpper, false
}

// pivot makes column j, FTRAN'd in s.col, basic in row r, and sends the
// leaving column to state leave. Reduced costs and gains, while loaded, are
// updated from the pivot row: d_k -= theta*alpha_rk over the nonbasic
// columns it touches; j gets 0 and the leaving column -theta.
func (s *simplex) pivot(r, j int, leave varState) {
	out := s.basis[r]
	s.state[out], s.state[j] = leave, basic
	if s.c != nil {
		theta := s.cost[j] / s.col.x[r]
		if theta != 0 {
			s.tableauRow(r)
			for _, k := range s.alpha.nz {
				if s.state[k] != basic {
					s.cost[k] -= theta * s.alpha.x[k]
					s.setGain(int(k))
				}
			}
			s.alpha.clear()
		}
		s.cost[j], s.cost[out] = 0, -theta
		s.setGain(j)
		s.setGain(out)
	}
	s.pushEta(r)
	s.basis[r] = j
	s.updates++
}

// step runs one simplex iteration on the current phase objective. It
// reports done, with the status, at optimality, unboundedness or the
// iteration limit. Between refactorizations it allocates nothing.
func (s *simplex) step() (st Status, done bool) {
	if s.iters >= s.maxIters {
		return StatusIterLimit, true
	}
	s.iters++
	bland := s.degenStreak > degenSwitch
	j, dir := -1, 0
	if s.updates < refactorEvery {
		j, dir = s.price(bland)
	}
	if j < 0 && s.updates > 0 {
		// Refactor on cadence, and confirm optimality against reduced costs
		// computed afresh. A basis too near singular to factor ends the solve
		// unproven: the unit columns factor swaps in may sit outside bounds.
		if s.singular = !s.factor(); s.singular {
			return StatusIterLimit, true
		}
		s.refresh()
		j, dir = s.price(bland)
	}
	if j < 0 {
		return StatusOptimal, true
	}
	s.ftranCol(j)
	s.col.ascend()
	t, limRow, leaveUpper, unbounded := s.ratio(j, dir)
	if unbounded {
		s.col.clear()
		return StatusUnbounded, true
	}
	if t > 1e-12 {
		s.degenStreak = 0
	} else if s.degenStreak++; s.degenStreak == degenSwitch+1 {
		s.blandCount++ // the next price call switches to Bland
	}

	// Step: move entering by t in direction dir; basics absorb.
	if t != 0 {
		dt := float64(dir) * t
		for _, r := range s.col.nz {
			s.beta[r] -= dt * s.col.x[r]
		}
	}
	enterVal, leave := t, atLower
	if s.state[j] == atUpper {
		enterVal = s.ub[j] - t
	}
	if limRow < 0 {
		// Bound flip: entering traverses to its other bound.
		s.col.clear()
		s.state[j] = atUpper - s.state[j] // atLower <-> atUpper
		s.setGain(j)
		return 0, false
	}
	if leaveUpper {
		leave = atUpper
	}
	s.pivot(limRow, j, leave)
	// Clamp tiny negative drift.
	if enterVal < 0 && enterVal > -1e-9 {
		enterVal = 0
	}
	s.beta[limRow] = enterVal
	return 0, false
}

// phase loads the costs c, recomputes beta, the reduced costs and the
// gains against the current basis, and iterates until step reports done.
func (s *simplex) phase(c []float64) Status {
	s.c, s.degenStreak = c, 0
	s.refresh()
	for {
		if st, done := s.step(); done {
			return st
		}
	}
}

// solve runs both phases and extracts the solution.
func (s *simplex) solve() (*Solution, error) {
	phase1Iters := 0
	result := func(st Status) *Solution {
		return &Solution{Status: st, Iters: s.iters, Stats: SolveStats{
			Phase1Iters: phase1Iters, Phase2Iters: s.iters - phase1Iters, BlandActivations: s.blandCount,
		}}
	}
	if s.firstArt < s.nTotal && !s.warm {
		c := make([]float64, s.nTotal) // phase 1 minimizes the sum of the artificials
		for j := s.firstArt; j < s.nTotal; j++ {
			c[j] = 1
		}
		st := s.phase(c)
		phase1Iters = s.iters
		if st == StatusIterLimit {
			return result(st), nil
		}
		s.refresh()
		infeas := 0.0 // the basic artificials: none rests at its +Inf upper bound
		for r, b := range s.basis {
			if b >= s.firstArt {
				infeas += s.beta[r]
			}
		}
		if infeas > math.Max(1e-7, s.tol*100) {
			return result(StatusInfeasible), nil
		}
		// Freeze artificials at zero so phase 2 cannot reactivate them.
		for j := s.firstArt; j < s.nTotal; j++ {
			s.ub[j] = 0
		}
		s.driveOutArtificials()
	}

	st := s.phase(s.objCost)
	s.refresh()
	sol := result(st)
	if st == StatusOptimal {
		sol.Duals = s.extractDuals()
		sol.Basis = s.captureBasis()
	}
	if st == StatusOptimal || st == StatusIterLimit {
		sol.X = s.extractX()
		for i, x := range sol.X {
			sol.Objective += s.sign * s.objCost[i] * x
		}
	}
	return sol, nil
}

// driveOutArtificials pivots basic artificials (at zero after phase 1, and
// frozen there) out for columns that can move. The pivots are degenerate:
// the incoming variable keeps its value, 0 or its upper bound. In a row
// where none can, the row is redundant and its artificial stays basic at
// zero. Phase 2 recomputes beta and the reduced costs, so none are kept.
func (s *simplex) driveOutArtificials() {
	s.c = nil
	for r, b := range s.basis {
		if b < s.firstArt {
			continue
		}
		if pick := s.bestInRow(r, 0); pick >= 0 {
			s.ftranCol(pick)
			s.pivot(r, pick, atLower)
		}
	}
}

// extractDuals recovers every constraint's shadow price, d objective /
// d rhs, in the problem's sense and row orientation. The internal dual of
// row i is y_i = c_B*B^-1*e_i; its +1 unit column u has reduced cost
// 0 - y_i, so y_i = -cost[u].
func (s *simplex) extractDuals() []float64 {
	duals := make([]float64, s.m)
	for r, u := range s.rowUnit {
		duals[r] = -s.sign * s.cost[u]
		if s.rowFlip[r] {
			duals[r] = -duals[r]
		}
	}
	return duals
}

// extractX reads variable values in original (unshifted) space.
func (s *simplex) extractX() []float64 {
	x := make([]float64, s.nStruct)
	for j := range x {
		if s.state[j] == atUpper {
			x[j] = s.ub[j]
		}
	}
	for r, b := range s.basis {
		if b < s.nStruct {
			x[b] = s.beta[r]
		}
	}
	for j := range x {
		if x[j] < 0 && x[j] > -1e-9 {
			x[j] = 0
		}
		x[j] += s.lbShift[j]
	}
	return x
}
