package lp

import "math"

// Variable states of the bounded revised simplex.
const (
	atLower int8 = iota
	atUpper
	isBasic
)

// etaFile is a product-form representation of the basis inverse:
// B⁻¹ = E_K ··· E_1, each eta an elementary column transformation recorded
// at a pivot. FTRAN applies etas forward, BTRAN backward. The file is reset
// at each refactorization. Its first nFactor etas are the factor segment
// refactorize emits, each pivoting on a distinct row; the update etas the
// simplex pivots append after it (at most refactorEvery) may pivot on any
// row.
type etaFile struct {
	pivRow  []int32
	pivVal  []float64
	start   []int32 // eta k owns entries [start[k], start[k+1])
	rows    []int32
	vals    []float64
	nFactor int
}

func (e *etaFile) reset() {
	e.pivRow = e.pivRow[:0]
	e.pivVal = e.pivVal[:0]
	e.rows = e.rows[:0]
	e.vals = e.vals[:0]
	if len(e.start) == 0 {
		e.start = append(e.start, 0)
	}
	e.start = e.start[:1]
	e.nFactor = 0
}

func (e *etaFile) count() int { return len(e.pivRow) }

// push records an eta from the FTRAN'd entering column v (dense, support in
// touched) pivoting at row r. v is left unchanged.
func (e *etaFile) push(v []float64, touched []int32, r int32) {
	const dropTol = 1e-12
	for _, i := range touched {
		if i != r && math.Abs(v[i]) > dropTol {
			e.rows = append(e.rows, i)
			e.vals = append(e.vals, v[i])
		}
	}
	e.pivRow = append(e.pivRow, r)
	e.pivVal = append(e.pivVal, v[r])
	e.start = append(e.start, int32(len(e.rows)))
}

// sparseSolver is one revised-simplex workspace bound to an immutable prob.
// Branch-and-bound workers each own one and reuse it across nodes; lo/up
// are per-solver copies so node bound changes never touch the shared prob.
type sparseSolver struct {
	p      *prob
	lo, up []float64 // working bounds, length n+m

	basic []int32 // basic[r] = column occupying row r
	state []int8  // per column
	pos   []int32 // column → row when basic, -1 otherwise
	xB    []float64
	d     []float64 // reduced costs, maintained; refreshed at refactorization

	etas etaFile

	// Hypersparse FTRAN/BTRAN over the factor segment (see ftranFactor).
	ofRow   []int32 // row → factor eta pivoting on it, -1 if none
	readPtr []int32 // row r's readers are readEta[readPtr[r]:readPtr[r+1]]
	readEta []int32 // factor etas with an entry in the row, ascending
	queued  []bool  // per factor eta: activated and waiting on etaQ
	etaQ    etaHeap
	solves  solveCounts

	// Dense scratch with explicit support tracking.
	colV      []float64 // length m: FTRAN column
	colMark   []bool
	colTch    []int32
	rhoV      []float64 // length m: BTRAN row
	rhoMark   []bool
	rhoTch    []int32
	alpha     []float64 // length n+m: pivot row over columns
	alphaMark []bool
	alphaTch  []int32

	infeas   []int32 // candidate primal-infeasible rows (lazily validated)
	inInfeas []bool

	priceList   []int32   // partial-pricing shortlist of attractive columns
	priceScores []float64 // scratch: scores aligned with priceList at refresh

	refactOrder []int32 // scratch: structural basics in sparsity order
	nnzAt       []int32 // scratch: counting-sort offsets by column nonzeros
	basicCols   []int32 // scratch: snapshot of the basic set
	pendingCol  []bool  // scratch: structural columns awaiting a pivot row
	rowCnt      []int32 // scratch: pending-column count per unclaimed row
	peelQ       []int32 // scratch: singleton-row worklist

	iters       int
	refacts     int
	boundFlips  int
	sinceRefact int
	stall       int
	bland       bool

	feasTol float64
	dualTol float64
}

const (
	pivTol        = 1e-8
	degenTol      = 1e-10
	refactorEvery = 100
	stallLimit    = 100
)

func newSparseSolver(p *prob) *sparseSolver {
	N := p.n + p.m
	maxColNNZ := int32(0)
	for j := int32(0); int(j) < p.n; j++ {
		maxColNNZ = max(maxColNNZ, p.colNNZ(j))
	}
	return &sparseSolver{
		p:           p,
		lo:          make([]float64, N),
		up:          make([]float64, N),
		basic:       make([]int32, p.m),
		state:       make([]int8, N),
		pos:         make([]int32, N),
		xB:          make([]float64, p.m),
		d:           make([]float64, N),
		colV:        make([]float64, p.m),
		colMark:     make([]bool, p.m),
		rhoV:        make([]float64, p.m),
		rhoMark:     make([]bool, p.m),
		alpha:       make([]float64, N),
		alphaMark:   make([]bool, N),
		inInfeas:    make([]bool, p.m),
		pendingCol:  make([]bool, p.n),
		refactOrder: make([]int32, 0, p.m),
		nnzAt:       make([]int32, maxColNNZ+2),
		rowCnt:      make([]int32, p.m),
		ofRow:       make([]int32, p.m),
		readPtr:     make([]int32, p.m+1),
		queued:      make([]bool, p.m),
		feasTol:     1e-7,
		dualTol:     1e-7 * p.cScale,
	}
}

// boundFix overrides one structural variable's bounds (branch-and-bound
// tightening: for 0/1 variables, [0,0] or [1,1]).
type boundFix struct {
	v      int32
	lo, hi float64
}

// basisSnapshot is a restartable basis: which column occupies each row plus
// which nonbasic columns rest at their upper bound. It is immutable once
// taken; sibling nodes share their parent's snapshot.
type basisSnapshot struct {
	basic   []int32
	atUpper []uint64 // bitset over columns
}

func (s *sparseSolver) snapshot() *basisSnapshot {
	N := s.p.n + s.p.m
	snap := &basisSnapshot{
		basic:   append([]int32(nil), s.basic...),
		atUpper: make([]uint64, (N+63)/64),
	}
	for j := 0; j < N; j++ {
		if s.state[j] == atUpper {
			snap.atUpper[j>>6] |= 1 << (uint(j) & 63)
		}
	}
	return snap
}

// crashBasis builds the all-logical (slack) basis with the hinted structural
// columns resting at their upper bounds instead of their lowers. The basis
// matrix is still the identity, so installation cannot be singular; only the
// starting vertex changes. Hints out of range or on columns without a finite
// upper bound are ignored.
func crashBasis(p *prob, atUp []int) *basisSnapshot {
	N := p.n + p.m
	snap := &basisSnapshot{
		basic:   make([]int32, p.m),
		atUpper: make([]uint64, (N+63)/64),
	}
	for i := 0; i < p.m; i++ {
		snap.basic[i] = int32(p.n + i)
	}
	for _, j := range atUp {
		if j >= 0 && j < p.n && !math.IsInf(p.up[j], 1) {
			snap.atUpper[j>>6] |= 1 << (uint(j) & 63)
		}
	}
	return snap
}

// reset prepares the workspace for a fresh solve: base bounds plus fixes,
// and either the warm-start basis or the all-logical (slack) basis.
func (s *sparseSolver) reset(fixes []boundFix, warm *basisSnapshot) {
	p := s.p
	copy(s.lo, p.lo)
	copy(s.up, p.up)
	for _, f := range fixes {
		s.lo[f.v], s.up[f.v] = f.lo, f.hi
	}
	s.iters = 0
	s.stall = 0
	s.bland = false
	s.priceList = s.priceList[:0]
	s.installBasis(warm)
}

// installBasis loads warm (or the slack basis when nil) and refactorizes.
// A numerically singular warm basis falls back to the slack basis.
func (s *sparseSolver) installBasis(warm *basisSnapshot) {
	p := s.p
	if warm != nil {
		copy(s.basic, warm.basic)
		for j := 0; j < p.n+p.m; j++ {
			if warm.atUpper[j>>6]&(1<<(uint(j)&63)) != 0 {
				s.state[j] = atUpper
			} else {
				s.state[j] = atLower
			}
		}
		for _, col := range s.basic {
			s.state[col] = isBasic
		}
		if s.refactorize() {
			return
		}
		// Singular warm basis: degrade to cold start.
	}
	for j := 0; j < p.n; j++ {
		s.state[j] = atLower
		// A branching fix may pin a variable at a nonzero lower bound; with
		// upper infinite the lower is the only finite bound anyway.
	}
	for i := 0; i < p.m; i++ {
		col := int32(p.n + i)
		s.basic[i] = col
		s.state[col] = isBasic
	}
	if !s.refactorize() {
		// The slack basis is the identity; refactorization cannot fail.
		panic("lp: slack basis refactorization failed")
	}
}

// nonbasicValue returns the current value of nonbasic column j.
func (s *sparseSolver) nonbasicValue(j int32) float64 {
	if s.state[j] == atUpper {
		return s.up[j]
	}
	lo := s.lo[j]
	if math.IsInf(lo, -1) {
		// Free-at-lower cannot happen for structural columns (lower is
		// always finite); GE logicals rest at their upper bound 0.
		return 0
	}
	return lo
}

// scatterColumn loads structural column j (or the logical unit column) into
// colV, returning the touched support.
func (s *sparseSolver) scatterColumn(j int32) {
	p := s.p
	s.colTch = s.colTch[:0]
	if int(j) >= p.n {
		r := j - int32(p.n)
		s.colV[r] = 1
		s.colMark[r] = true
		s.colTch = append(s.colTch, r)
		return
	}
	for idx := p.colPtr[j]; idx < p.colPtr[j+1]; idx++ {
		r := p.colRow[idx]
		if !s.colMark[r] {
			s.colMark[r] = true
			s.colTch = append(s.colTch, r)
		}
		s.colV[r] += p.colVal[idx]
	}
}

// clearColumn zeroes colV's support.
func (s *sparseSolver) clearColumn() {
	for _, r := range s.colTch {
		s.colV[r] = 0
		s.colMark[r] = false
	}
	s.colTch = s.colTch[:0]
}

// denseShare is the hypersparsity switch: a factor-segment solve that has
// activated more than 1/denseShare of the factor etas is no longer sparse
// enough for the heap to pay, and finishes with the linear pass.
const denseShare = 10

// solveCounts tallies how the factor segment was traversed: hyper solves
// visited only the etas the vector reaches, dense ones fell back to the
// linear pass part way.
type solveCounts struct {
	ftranHyper, ftranDense int
	btranHyper, btranDense int
}

func (c solveCounts) add(o solveCounts) solveCounts {
	return solveCounts{
		c.ftranHyper + o.ftranHyper, c.ftranDense + o.ftranDense,
		c.btranHyper + o.btranHyper, c.btranDense + o.btranDense,
	}
}

// etaHeap is a binary min-heap of eta indices. BTRAN pushes ^k, so it pops
// in descending k.
type etaHeap []int32

func (h *etaHeap) push(k int32) {
	q := append(*h, k)
	i := len(q) - 1
	for i > 0 {
		up := (i - 1) / 2
		if q[up] <= k {
			break
		}
		q[i] = q[up]
		i = up
	}
	q[i] = k
	*h = q
}

func (h *etaHeap) pop() int32 {
	q := *h
	top := q[0]
	n := len(q) - 1
	last := q[n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && q[c+1] < q[c] {
			c++
		}
		if last <= q[c] {
			break
		}
		q[i] = q[c]
		i = c
	}
	if n > 0 {
		q[i] = last
	}
	*h = q[:n]
	return top
}

// abandonQueue clears the activation marks of the etas still queued when a
// solve falls back to the linear pass. BTRAN's entries are complemented.
func (s *sparseSolver) abandonQueue() {
	for _, k := range s.etaQ {
		if k < 0 {
			k = ^k
		}
		s.queued[k] = false
	}
	s.etaQ = s.etaQ[:0]
}

// ftranEta applies eta k to colV, reporting false when it is skipped
// because its pivot entry is zero.
func (s *sparseSolver) ftranEta(k int) bool {
	e := &s.etas
	r := e.pivRow[k]
	vr := s.colV[r]
	if vr == 0 {
		return false
	}
	vr /= e.pivVal[k]
	s.colV[r] = vr
	for idx := e.start[k]; idx < e.start[k+1]; idx++ {
		i := e.rows[idx]
		if !s.colMark[i] {
			s.colMark[i] = true
			s.colTch = append(s.colTch, i)
		}
		s.colV[i] -= e.vals[idx] * vr
	}
	return true
}

// ftranCol applies the eta file to colV in place (v ← B⁻¹ v), maintaining
// the touched support. Etas whose pivot entry is zero are skipped, which is
// the dominant case for the short columns of VUB-structured models; the
// factor segment is traversed hypersparsely (ftranFactor), the update
// segment linearly.
func (s *sparseSolver) ftranCol() {
	for k := s.ftranFactor(); k < s.etas.count(); k++ {
		s.ftranEta(k)
	}
}

// ftranFactor applies the factor segment to colV, visiting only the etas
// the vector can reach (Gilbert–Peierls; Hall and McKinnon's hypersparse
// FTRAN). Factor eta ofRow[r] is reachable once row r is nonzero, which
// happens only through the initial support or an earlier eta's entries, so
// popping reachable etas in ascending order applies exactly the etas the
// linear pass would not skip, in the same order: every value and the order
// of colTch match it bit for bit. It returns the eta the linear pass
// resumes from: nFactor, or the eta after the one that tripped the dense
// fallback.
func (s *sparseSolver) ftranFactor() int {
	e := &s.etas
	limit := e.nFactor / denseShare
	activated := 0
	for _, r := range s.colTch {
		if k := s.ofRow[r]; k >= 0 && !s.queued[k] {
			s.queued[k] = true
			s.etaQ.push(k)
			activated++
		}
	}
	if activated > limit {
		s.abandonQueue()
		s.solves.ftranDense++
		return 0
	}
	for len(s.etaQ) > 0 {
		k := s.etaQ.pop()
		s.queued[k] = false
		if !s.ftranEta(int(k)) {
			continue
		}
		for idx := e.start[k]; idx < e.start[k+1]; idx++ {
			if j := s.ofRow[e.rows[idx]]; j > k && !s.queued[j] {
				s.queued[j] = true
				s.etaQ.push(j)
				activated++
			}
		}
		if activated > limit {
			s.abandonQueue()
			s.solves.ftranDense++
			return int(k) + 1
		}
	}
	s.solves.ftranHyper++
	return e.nFactor
}

// btranEta applies transposed eta k to rhoV and reports the new value of
// its pivot row.
func (s *sparseSolver) btranEta(k int) float64 {
	e := &s.etas
	pr := e.pivRow[k]
	acc := s.rhoV[pr]
	for idx := e.start[k]; idx < e.start[k+1]; idx++ {
		acc -= e.vals[idx] * s.rhoV[e.rows[idx]]
	}
	acc /= e.pivVal[k]
	if acc != 0 && !s.rhoMark[pr] {
		s.rhoMark[pr] = true
		s.rhoTch = append(s.rhoTch, pr)
	}
	s.rhoV[pr] = acc
	return acc
}

// btranRow computes rhoV ← (eᵣ)ᵀ B⁻¹ with support tracking: the update
// segment linearly, then the factor segment hypersparsely (btranFactor).
func (s *sparseSolver) btranRow(r int32) {
	s.rhoTch = s.rhoTch[:0]
	s.rhoV[r] = 1
	s.rhoMark[r] = true
	s.rhoTch = append(s.rhoTch, r)
	for k := s.etas.count() - 1; k >= s.etas.nFactor; k-- {
		s.btranEta(k)
	}
	for k := s.btranFactor(); k >= 0; k-- {
		s.btranEta(k)
	}
}

// activateReaders queues, among the factor etas before eta below, the one
// pivoting on row i and every one with an entry in row i. It returns how
// many it newly queued.
func (s *sparseSolver) activateReaders(i, below int32) int {
	n := 0
	if k := s.ofRow[i]; k >= 0 && k < below && !s.queued[k] {
		s.queued[k] = true
		s.etaQ.push(^k)
		n++
	}
	for _, k := range s.readEta[s.readPtr[i]:s.readPtr[i+1]] {
		if k >= below {
			break
		}
		if !s.queued[k] {
			s.queued[k] = true
			s.etaQ.push(^k)
			n++
		}
	}
	return n
}

// btranFactor applies the transposed factor segment to rhoV, visiting only
// the etas whose result can be nonzero, in descending order. Eta k reads
// its pivot row and its entry rows; each row is written by no factor eta
// but ofRow[row], so k can be nonzero only if one of those rows is in the
// support after the update segment, or was turned nonzero by a later
// factor eta. Skipped etas would have written a zero, so every nonzero
// value and the order of rhoTch match the linear pass bit for bit (a
// skipped eta leaves a zero's sign unwritten). It returns the eta the
// linear pass resumes from, descending: -1, or the eta below the one that
// tripped the dense fallback.
func (s *sparseSolver) btranFactor() int {
	e := &s.etas
	F := int32(e.nFactor)
	limit := e.nFactor / denseShare
	activated := 0
	for _, i := range s.rhoTch {
		activated += s.activateReaders(i, F)
	}
	if activated > limit {
		s.abandonQueue()
		s.solves.btranDense++
		return e.nFactor - 1
	}
	for len(s.etaQ) > 0 {
		k := ^s.etaQ.pop()
		s.queued[k] = false
		if s.btranEta(int(k)) != 0 {
			activated += s.activateReaders(e.pivRow[k], k)
		}
		if activated > limit {
			s.abandonQueue()
			s.solves.btranDense++
			return int(k) - 1
		}
	}
	s.solves.btranHyper++
	return -1
}

func (s *sparseSolver) clearRho() {
	for _, r := range s.rhoTch {
		s.rhoV[r] = 0
		s.rhoMark[r] = false
	}
	s.rhoTch = s.rhoTch[:0]
}

// ftranDense applies the eta file to a full-length vector without support
// tracking (used when recomputing xB at refactorization).
func (s *sparseSolver) ftranDense(v []float64) {
	e := &s.etas
	for k := 0; k < len(e.pivRow); k++ {
		r := e.pivRow[k]
		vr := v[r]
		if vr == 0 {
			continue
		}
		vr /= e.pivVal[k]
		v[r] = vr
		for idx := e.start[k]; idx < e.start[k+1]; idx++ {
			v[e.rows[idx]] -= e.vals[idx] * vr
		}
	}
}

// btranDense applies the transposed eta file to a full-length vector (used
// when recomputing duals at refactorization).
func (s *sparseSolver) btranDense(y []float64) {
	e := &s.etas
	for k := len(e.pivRow) - 1; k >= 0; k-- {
		r := e.pivRow[k]
		acc := y[r]
		for idx := e.start[k]; idx < e.start[k+1]; idx++ {
			acc -= e.vals[idx] * y[e.rows[idx]]
		}
		y[r] = acc / e.pivVal[k]
	}
}

// refactorize rebuilds the eta file from scratch. Basic logical columns
// claim their own rows for free (they are unit vectors of the identity the
// product form starts from). Structural columns are placed in two stages:
//
//  1. Triangular peel. A row touched by exactly one still-unplaced column
//     admits a fill-free pivot: no earlier peeled pivot row can appear in
//     that column (its row count would have been ≥ 2), so the FTRAN through
//     the existing file is the identity and the eta is the original column
//     verbatim. Peeling one column creates new singleton rows, which are
//     processed worklist-style — total cost O(nnz). VUB-structured bases
//     are near-triangular, so this stage places almost everything.
//  2. Bump. Whatever remains — shortest columns first — is FTRAN'd through
//     the partial file and pivoted onto its largest-magnitude unclaimed
//     row, as a general product-form build.
//
// It then recomputes xB and the reduced costs, wiping accumulated
// floating-point drift. Returns false if the basis is numerically singular.
func (s *sparseSolver) refactorize() bool {
	p := s.p
	s.etas.reset()
	s.refacts++
	s.sinceRefact = 0

	for j := range s.pos {
		s.pos[j] = -1
	}
	for i := range s.ofRow {
		s.ofRow[i] = -1
	}
	claimed := s.rhoMark // reuse as row-claim flags; cleared below
	for i := range claimed {
		claimed[i] = false
	}
	// Snapshot the basic set first: reassigning rows below rewrites s.basic
	// in place, and a logical column claiming its own row may overwrite an
	// entry that has not been visited yet.
	s.basicCols = append(s.basicCols[:0], s.basic...)
	for _, col := range s.basicCols {
		if int(col) >= p.n {
			row := col - int32(p.n)
			claimed[row] = true
			s.basic[row] = col // logical owns its row
			s.pos[col] = row
		} else {
			s.pendingCol[col] = true
		}
	}
	s.sparsityOrder()

	// Stage 1: peel singleton rows.
	for i := range s.rowCnt {
		s.rowCnt[i] = 0
	}
	for _, col := range s.refactOrder {
		for idx := p.colPtr[col]; idx < p.colPtr[col+1]; idx++ {
			if r := p.colRow[idx]; !claimed[r] {
				s.rowCnt[r]++
			}
		}
	}
	s.peelQ = s.peelQ[:0]
	for i := int32(0); int(i) < p.m; i++ {
		if !claimed[i] && s.rowCnt[i] == 1 {
			s.peelQ = append(s.peelQ, i)
		}
	}
	for qi := 0; qi < len(s.peelQ); qi++ {
		r := s.peelQ[qi]
		if claimed[r] || s.rowCnt[r] != 1 {
			continue
		}
		col := int32(-1)
		var pv float64
		for idx := p.rowPtr[r]; idx < p.rowPtr[r+1]; idx++ {
			if c := p.rowCol[idx]; s.pendingCol[c] {
				col, pv = c, p.rowVal[idx]
				break
			}
		}
		if col < 0 {
			continue
		}
		// Threshold pivoting: a singleton row whose entry is tiny relative
		// to its column is numerically unsafe; leave it to the bump stage.
		colMax := 0.0
		for idx := p.colPtr[col]; idx < p.colPtr[col+1]; idx++ {
			if a := math.Abs(p.colVal[idx]); a > colMax {
				colMax = a
			}
		}
		if a := math.Abs(pv); a <= pivTol || a < 0.01*colMax {
			continue
		}
		e := &s.etas
		for idx := p.colPtr[col]; idx < p.colPtr[col+1]; idx++ {
			if rr := p.colRow[idx]; rr != r && math.Abs(p.colVal[idx]) > 1e-12 {
				e.rows = append(e.rows, rr)
				e.vals = append(e.vals, p.colVal[idx])
			}
		}
		e.pivRow = append(e.pivRow, r)
		e.pivVal = append(e.pivVal, pv)
		e.start = append(e.start, int32(len(e.rows)))
		s.noteFactorEta()
		claimed[r] = true
		s.basic[r] = col
		s.pos[col] = r
		s.pendingCol[col] = false
		for idx := p.colPtr[col]; idx < p.colPtr[col+1]; idx++ {
			if rr := p.colRow[idx]; !claimed[rr] {
				s.rowCnt[rr]--
				if s.rowCnt[rr] == 1 {
					s.peelQ = append(s.peelQ, rr)
				}
			}
		}
	}

	// Stage 2: general product-form build for the bump.
	ok := true
	for _, col := range s.refactOrder {
		if !s.pendingCol[col] {
			continue
		}
		s.scatterColumn(col)
		s.ftranCol()
		best := int32(-1)
		bestAbs := pivTol
		for _, r := range s.colTch {
			if claimed[r] {
				continue
			}
			if a := math.Abs(s.colV[r]); a > bestAbs || (a == bestAbs && (best == -1 || r < best)) {
				bestAbs, best = a, r
			}
		}
		if best == -1 {
			ok = false
			s.clearColumn()
			break
		}
		s.etas.push(s.colV, s.colTch, best)
		s.noteFactorEta()
		claimed[best] = true
		s.basic[best] = col
		s.pos[col] = best
		s.pendingCol[col] = false
		s.clearColumn()
	}
	for i := range claimed {
		claimed[i] = false
	}
	for _, col := range s.refactOrder {
		s.pendingCol[col] = false
	}
	if !ok {
		return false
	}
	s.buildReaders()

	s.recomputePrimal()
	s.recomputeDuals(p.c)
	return true
}

// sparsityOrder lists the pending structural columns in refactOrder by
// (nonzeros, index) ascending: a counting sort by nonzeros over a scan of
// the columns in index order.
func (s *sparseSolver) sparsityOrder() {
	p := s.p
	at := s.nnzAt
	for i := range at {
		at[i] = 0
	}
	for j := int32(0); int(j) < p.n; j++ {
		if s.pendingCol[j] {
			at[p.colNNZ(j)+1]++
		}
	}
	for i := 1; i < len(at); i++ {
		at[i] += at[i-1]
	}
	s.refactOrder = s.refactOrder[:at[len(at)-1]]
	for j := int32(0); int(j) < p.n; j++ {
		if s.pendingCol[j] {
			n := p.colNNZ(j)
			s.refactOrder[at[n]] = j
			at[n]++
		}
	}
}

// noteFactorEta adds the eta just pushed to the factor segment.
func (s *sparseSolver) noteFactorEta() {
	e := &s.etas
	k := e.count() - 1
	s.ofRow[e.pivRow[k]] = int32(k)
	e.nFactor = k + 1
}

// buildReaders indexes the factor segment by row: readEta lists, per row,
// the factor etas holding an entry in it, ascending. The buffers are kept
// across refactorizations and grow amortized.
func (s *sparseSolver) buildReaders() {
	e := &s.etas
	ptr := s.readPtr
	for i := range ptr {
		ptr[i] = 0
	}
	nnz := e.start[e.nFactor]
	for _, i := range e.rows[:nnz] {
		ptr[i+1]++
	}
	for i := 1; i < len(ptr); i++ {
		ptr[i] += ptr[i-1]
	}
	if cap(s.readEta) < int(nnz) {
		s.readEta = make([]int32, nnz, nnz+nnz/2)
	}
	s.readEta = s.readEta[:nnz]
	next := s.rowCnt // scratch: per-row fill cursor
	copy(next, ptr[:len(next)])
	for k := 0; k < e.nFactor; k++ {
		for _, i := range e.rows[e.start[k]:e.start[k+1]] {
			s.readEta[next[i]] = int32(k)
			next[i]++
		}
	}
}

// recomputePrimal sets xB = B⁻¹(b − N x_N) from scratch.
func (s *sparseSolver) recomputePrimal() {
	p := s.p
	v := s.xB
	copy(v, p.b)
	for j := int32(0); int(j) < p.n+p.m; j++ {
		if s.state[j] == isBasic {
			continue
		}
		val := s.nonbasicValue(j)
		if val == 0 {
			continue
		}
		if int(j) >= p.n {
			v[j-int32(p.n)] -= val
			continue
		}
		for idx := p.colPtr[j]; idx < p.colPtr[j+1]; idx++ {
			v[p.colRow[idx]] -= p.colVal[idx] * val
		}
	}
	s.ftranDense(v)
	s.rebuildInfeasible()
}

// recomputeDuals sets d = c − cB B⁻¹ A from scratch for the given cost
// vector (structural costs; logicals cost zero).
func (s *sparseSolver) recomputeDuals(c []float64) {
	p := s.p
	y := s.rhoV // reuse as a dense work vector; cleared after use
	for i := 0; i < p.m; i++ {
		col := s.basic[i]
		if int(col) < p.n {
			y[i] = c[col]
		} else {
			y[i] = 0
		}
	}
	s.btranDense(y)
	for j := int32(0); int(j) < p.n; j++ {
		if s.state[j] == isBasic {
			s.d[j] = 0
			continue
		}
		dj := c[j]
		for idx := p.colPtr[j]; idx < p.colPtr[j+1]; idx++ {
			dj -= y[p.colRow[idx]] * p.colVal[idx]
		}
		s.d[j] = dj
	}
	for i := 0; i < p.m; i++ {
		col := int32(p.n + i)
		if s.state[col] == isBasic {
			s.d[col] = 0
		} else {
			s.d[col] = -y[i]
		}
	}
	for i := range y {
		y[i] = 0
	}
	s.rhoTch = s.rhoTch[:0]
}

// rebuildInfeasible rescans every row's basic value against its bounds.
func (s *sparseSolver) rebuildInfeasible() {
	s.infeas = s.infeas[:0]
	for i := range s.inInfeas {
		s.inInfeas[i] = false
	}
	for i := 0; i < s.p.m; i++ {
		if s.rowInfeasibility(int32(i)) > s.feasTol {
			s.infeas = append(s.infeas, int32(i))
			s.inInfeas[i] = true
		}
	}
}

// rowInfeasibility returns how far row i's basic value lies outside its
// variable's bounds (0 when feasible).
func (s *sparseSolver) rowInfeasibility(i int32) float64 {
	col := s.basic[i]
	if v := s.lo[col] - s.xB[i]; v > 0 {
		return v
	}
	if v := s.xB[i] - s.up[col]; v > 0 {
		return v
	}
	return 0
}

// markInfeasible queues row i for the dual pricing scan if out of bounds.
func (s *sparseSolver) markInfeasible(i int32) {
	if !s.inInfeas[i] && s.rowInfeasibility(i) > s.feasTol {
		s.infeas = append(s.infeas, i)
		s.inInfeas[i] = true
	}
}
