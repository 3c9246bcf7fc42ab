package cophy

import (
	"math"
	"testing"
	"time"

	"repro/internal/candidates"
	"repro/internal/costmodel"
	"repro/internal/whatif"
	"repro/internal/workload"
)

// TestTableIPivotSequence pins the explicit-LP path on Table I's Q=500 row
// (the instance the cophy-lp benchmark times): the Appendix-C generator at
// its default seed with 50 templates per table, an H1-M candidate set of
// 1,000, budget share 0.2, gap 0.05, one worker. Iterations,
// refactorizations, nodes and the cost's bits fingerprint the simplex's
// pivot sequence, so a solver change that claims to leave arithmetic
// untouched (a faster FTRAN/BTRAN, a cheaper pricing shortlist) must keep
// all four.
func TestTableIPivotSequence(t *testing.T) {
	if testing.Short() {
		t.Skip("Table I Q=500 solve takes seconds")
	}
	gc := workload.DefaultGenConfig()
	gc.QueriesPerTable = 50
	w := workload.MustGenerate(gc)
	combos, err := candidates.Combos(w, 4)
	if err != nil {
		t.Fatal(err)
	}
	cands, err := candidates.Select(w, combos, candidates.H1M, 1000, 4)
	if err != nil {
		t.Fatal(err)
	}
	m := costmodel.New(w, costmodel.SingleIndex)
	res, err := Solve(w, whatif.New(m), cands, Options{
		Budget:      m.Budget(0.2),
		Gap:         0.05,
		TimeLimit:   5 * time.Minute,
		ForceLP:     true,
		Parallelism: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	const wantCost = 1544074972918.0496
	st := res.Stats
	if !st.UsedLP || st.DNF {
		t.Fatalf("UsedLP %v DNF %v, want the explicit LP to finish", st.UsedLP, st.DNF)
	}
	if st.SimplexIters != 12091 || st.Refactorizations != 116 || st.Nodes != 1 {
		t.Errorf("iters/refactorizations/nodes = %d/%d/%d, want 12091/116/1",
			st.SimplexIters, st.Refactorizations, st.Nodes)
	}
	if math.Float64bits(res.Cost) != math.Float64bits(wantCost) {
		t.Errorf("cost %.17g, want %.17g bit for bit", res.Cost, wantCost)
	}
}
