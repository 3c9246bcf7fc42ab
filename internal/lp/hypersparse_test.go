package lp

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// TestRootLPPivotSequence pins the sparse simplex on a CoPhy-shaped root
// LP: the iteration count and the objective's bits fingerprint the pivot
// sequence, which faster FTRAN/BTRAN must not move.
func TestRootLPPivotSequence(t *testing.T) {
	sol, err := SolveLP(benchCoPhyModel(1000, 500, 7))
	if err != nil {
		t.Fatal(err)
	}
	const wantObj = 50465.77433233281
	if sol.Status != Optimal || sol.Iterations != 3681 {
		t.Errorf("status %v after %d iterations, want optimal after 3681", sol.Status, sol.Iterations)
	}
	if math.Float64bits(sol.Objective) != math.Float64bits(wantObj) {
		t.Errorf("objective %.17g, want %.17g bit for bit", sol.Objective, wantObj)
	}
}

// linearFtran is the reference FTRAN: every eta of the file in order,
// skipping those whose pivot entry is zero.
func linearFtran(e *etaFile, v []float64, mark []bool, tch []int32) []int32 {
	for k := 0; k < e.count(); k++ {
		r := e.pivRow[k]
		vr := v[r]
		if vr == 0 {
			continue
		}
		vr /= e.pivVal[k]
		v[r] = vr
		for idx := e.start[k]; idx < e.start[k+1]; idx++ {
			i := e.rows[idx]
			if !mark[i] {
				mark[i] = true
				tch = append(tch, i)
			}
			v[i] -= e.vals[idx] * vr
		}
	}
	return tch
}

// linearBtran is the reference BTRAN of unit row r: every eta of the file
// in reverse.
func linearBtran(e *etaFile, r int32, rho []float64, mark []bool) []int32 {
	rho[r] = 1
	mark[r] = true
	tch := []int32{r}
	for k := e.count() - 1; k >= 0; k-- {
		pr := e.pivRow[k]
		acc := rho[pr]
		for idx := e.start[k]; idx < e.start[k+1]; idx++ {
			acc -= e.vals[idx] * rho[e.rows[idx]]
		}
		acc /= e.pivVal[k]
		if acc != 0 && !mark[pr] {
			mark[pr] = true
			tch = append(tch, pr)
		}
		rho[pr] = acc
	}
	return tch
}

// diagModel builds an m-row model whose first m structural columns have a
// dominant diagonal entry plus offDiag random off-diagonal entries (so any
// basis mixing them with logicals is nonsingular, and refactorization has
// both a peel and a bump), followed by extra random columns to enter.
func diagModel(rng *rand.Rand, m, offDiag, extra int) *Model {
	rowCols := make([][]int32, m)
	rowVals := make([][]float64, m)
	add := func(i int, j int32, v float64) {
		for _, c := range rowCols[i] {
			if c == j {
				return
			}
		}
		rowCols[i] = append(rowCols[i], j)
		rowVals[i] = append(rowVals[i], v)
	}
	mdl := NewModel()
	for j := 0; j < m+extra; j++ {
		col := int32(mdl.AddVar(rng.Float64(), fmt.Sprintf("x%d", j), 1, false))
		if j < m {
			add(j, col, 4+rng.Float64())
		}
		for d := 0; d < offDiag; d++ {
			add(rng.Intn(m), col, 2*rng.Float64()-1)
		}
	}
	for i := 0; i < m; i++ {
		mdl.AddConstraintCols(rowCols[i], rowVals[i], LE, 1)
	}
	return mdl
}

// sameValues reports whether two vectors agree bit for bit on every nonzero
// (a zero's sign is free: BTRAN may leave a skipped eta's zero unwritten).
func sameValues(a, b []float64) (int, bool) {
	for i := range a {
		if (a[i] != 0 || b[i] != 0) && math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i, false
		}
	}
	return -1, true
}

// TestHypersparseSolvesMatchLinear checks ftranCol and btranRow against the
// linear eta replay on random sparse bases, after a refactorization and k
// product-form updates: every value bit-equal and colTch/rhoTch in the same
// order. The sparse matrices keep most solves on the heap; the dense ones
// and the dense input vectors trip the fallback, and both regimes must be
// exercised.
func TestHypersparseSolvesMatchLinear(t *testing.T) {
	var total solveCounts
	for _, offDiag := range []int{1, 3} {
		for seed := int64(1); seed <= 3; seed++ {
			for _, updates := range []int{0, 3, 40} {
				name := fmt.Sprintf("offdiag%d/seed%d/updates%d", offDiag, seed, updates)
				c := checkHypersparse(t, name, offDiag, seed, updates)
				if offDiag == 1 && (c.ftranHyper == 0 || c.btranHyper == 0) {
					t.Errorf("%s: counts %+v, want hypersparse FTRAN and BTRAN", name, c)
				}
				total = total.add(c)
			}
		}
	}
	if total.ftranDense == 0 || total.btranDense == 0 {
		t.Errorf("counts %+v: the dense fallback never fired", total)
	}
	t.Logf("solve counts %+v", total)
}

func checkHypersparse(t *testing.T, name string, offDiag int, seed int64, updates int) solveCounts {
	t.Helper()
	const m = 200
	rng := rand.New(rand.NewSource(seed*1000 + int64(offDiag)))
	p := compile(diagModel(rng, m, offDiag, 60))
	s := newSparseSolver(p)

	// A basis of the diagonal columns with a tenth of them swapped for
	// their rows' logicals.
	snap := &basisSnapshot{basic: make([]int32, m), atUpper: make([]uint64, (p.n+p.m+63)/64)}
	for i := range snap.basic {
		snap.basic[i] = int32(i)
		if rng.Intn(10) == 0 {
			snap.basic[i] = int32(p.n + i)
		}
	}
	s.reset(nil, snap)
	if s.etas.nFactor < m/2 {
		t.Fatalf("%s: factor segment of %d etas, want the structural basis installed", name, s.etas.nFactor)
	}

	refV := make([]float64, m)
	refMark := make([]bool, m)
	// Product-form updates: each enters a random nonbasic column on the
	// largest entry of its FTRAN'd column, as a simplex pivot would.
	for u := 0; u < updates; u++ {
		q := int32(rng.Intn(p.n + p.m))
		if s.state[q] == isBasic {
			continue
		}
		s.scatterColumn(q)
		s.colTch = linearFtran(&s.etas, s.colV, s.colMark, s.colTch)
		leave := int32(-1)
		for _, r := range s.colTch {
			if leave == -1 || math.Abs(s.colV[r]) > math.Abs(s.colV[leave]) {
				leave = r
			}
		}
		if math.Abs(s.colV[leave]) < 1e-3 {
			s.clearColumn()
			continue
		}
		s.etas.push(s.colV, s.colTch, leave)
		lcol := s.basic[leave]
		s.state[lcol], s.pos[lcol] = atLower, -1
		s.basic[leave], s.state[q], s.pos[q] = q, isBasic, leave
		s.clearColumn()
	}

	s.solves = solveCounts{}
	// FTRAN: unit vectors, structural columns, and dense random vectors.
	for trial := 0; trial < 2*m; trial++ {
		var idx []int32
		var val []float64
		switch trial % 3 {
		case 0:
			idx, val = []int32{int32(rng.Intn(m))}, []float64{1}
		case 1:
			j := int32(rng.Intn(p.n))
			for k := p.colPtr[j]; k < p.colPtr[j+1]; k++ {
				idx, val = append(idx, p.colRow[k]), append(val, p.colVal[k])
			}
		default:
			for i := int32(0); i < m; i++ {
				if rng.Intn(3) == 0 {
					idx, val = append(idx, i), append(val, rng.NormFloat64())
				}
			}
		}
		var refTch []int32
		for k, i := range idx {
			s.colV[i], s.colMark[i] = val[k], true
			s.colTch = append(s.colTch, i)
			refV[i], refMark[i] = val[k], true
			refTch = append(refTch, i)
		}
		s.ftranCol()
		refTch = linearFtran(&s.etas, refV, refMark, refTch)
		if i, ok := sameValues(s.colV, refV); !ok {
			t.Fatalf("%s: FTRAN trial %d: row %d = %v, linear %v", name, trial, i, s.colV[i], refV[i])
		}
		if !slices.Equal(s.colTch, refTch) {
			t.Fatalf("%s: FTRAN trial %d: colTch %v, linear %v", name, trial, s.colTch, refTch)
		}
		s.clearColumn()
		for _, i := range refTch {
			refV[i], refMark[i] = 0, false
		}
	}

	// BTRAN of every unit row.
	for r := int32(0); r < m; r++ {
		s.btranRow(r)
		refTch := linearBtran(&s.etas, r, refV, refMark)
		if i, ok := sameValues(s.rhoV, refV); !ok {
			t.Fatalf("%s: BTRAN row %d: entry %d = %v, linear %v", name, r, i, s.rhoV[i], refV[i])
		}
		if !slices.Equal(s.rhoTch, refTch) {
			t.Fatalf("%s: BTRAN row %d: rhoTch %v, linear %v", name, r, s.rhoTch, refTch)
		}
		s.clearRho()
		for i := range refV {
			refV[i], refMark[i] = 0, false
		}
	}
	return s.solves
}

// TestRefreshPriceListMatchesFullSort checks the bounded-heap shortlist
// against sorting every attractive column: below priceCap the list stays in
// index order, above it the priceCap best in (score desc, index asc) order.
// Scores are drawn from a small set, so ties are common.
func TestRefreshPriceListMatchesFullSort(t *testing.T) {
	for _, n := range []int{50, priceCap, 3000} {
		rng := rand.New(rand.NewSource(int64(n)))
		p := compile(diagModel(rng, 20, 1, n-20))
		s := newSparseSolver(p)
		s.reset(nil, nil)
		N := int32(p.n + p.m)
		for j := int32(0); j < N; j++ {
			if s.state[j] != isBasic {
				s.d[j] = -float64(rng.Intn(40)) * s.dualTol
			}
		}
		var want priceSorter
		for j := int32(0); j < N; j++ {
			if sc := s.priceScore(j); sc > s.dualTol {
				want.list = append(want.list, j)
				want.score = append(want.score, sc)
			}
		}
		if len(want.list) > priceCap {
			sort.Sort(want)
			want.list = want.list[:priceCap]
		}
		s.refreshPriceList()
		if !slices.Equal(s.priceList, want.list) {
			t.Errorf("n=%d: shortlist %v, want %v", n, s.priceList, want.list)
		}
	}
}

// TestMIPSpanReportsSolveCounts checks that the lp.mip span carries the
// hypersparse and dense-fallback FTRAN/BTRAN counts next to simplex_iters.
func TestMIPSpanReportsSolveCounts(t *testing.T) {
	run := runMIP(t, benchCoPhyModel(30, 20, 8), 1)
	for _, rec := range run.trace {
		if rec.Name != "lp.mip" {
			continue
		}
		var ftrans, btrans int64
		for _, key := range []string{"ftran_hyper", "ftran_dense", "btran_hyper", "btran_dense"} {
			v, ok := rec.Attrs[key].(int64)
			if !ok || v < 0 {
				t.Fatalf("lp.mip %s = %v, want a count", key, rec.Attrs[key])
			}
			if key[0] == 'f' {
				ftrans += v
			} else {
				btrans += v
			}
		}
		if ftrans == 0 || btrans == 0 || rec.Attrs["simplex_iters"] == nil {
			t.Errorf("lp.mip attrs %v: want FTRAN and BTRAN counts beside simplex_iters", rec.Attrs)
		}
		return
	}
	t.Fatal("no lp.mip span recorded")
}
