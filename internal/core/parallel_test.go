package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/whatif"
	"repro/internal/workload"
)

// traceEqual asserts two results carry bit-identical step traces: same
// kinds, keys, replaced indexes, ratios, costs, memory, and runner-ups.
func traceEqual(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if a.InitialCost != b.InitialCost {
		t.Errorf("%s: initial cost %v vs %v", label, a.InitialCost, b.InitialCost)
	}
	if a.Cost != b.Cost || a.Memory != b.Memory {
		t.Errorf("%s: final (%v, %d) vs (%v, %d)", label, a.Cost, a.Memory, b.Cost, b.Memory)
	}
	if len(a.Steps) != len(b.Steps) {
		t.Fatalf("%s: %d steps vs %d", label, len(a.Steps), len(b.Steps))
	}
	for i := range a.Steps {
		x, y := a.Steps[i], b.Steps[i]
		if x.Kind != y.Kind || x.Index.Key() != y.Index.Key() {
			t.Fatalf("%s: step %d is %v %v vs %v %v", label, i, x.Kind, x.Index, y.Kind, y.Index)
		}
		if (x.Replaced == nil) != (y.Replaced == nil) {
			t.Errorf("%s: step %d replaced mismatch", label, i)
		} else if x.Replaced != nil && x.Replaced.Key() != y.Replaced.Key() {
			t.Errorf("%s: step %d replaced %v vs %v", label, i, x.Replaced, y.Replaced)
		}
		if x.Ratio != y.Ratio || x.CostAfter != y.CostAfter || x.MemAfter != y.MemAfter {
			t.Errorf("%s: step %d numbers (%v, %v, %d) vs (%v, %v, %d)",
				label, i, x.Ratio, x.CostAfter, x.MemAfter, y.Ratio, y.CostAfter, y.MemAfter)
		}
		if (x.RunnerUp == nil) != (y.RunnerUp == nil) {
			t.Errorf("%s: step %d runner-up presence mismatch", label, i)
		} else if x.RunnerUp != nil &&
			(x.RunnerUp.Kind != y.RunnerUp.Kind ||
				x.RunnerUp.Index.Key() != y.RunnerUp.Index.Key() ||
				x.RunnerUp.Ratio != y.RunnerUp.Ratio) {
			t.Errorf("%s: step %d runner-up %+v vs %+v", label, i, *x.RunnerUp, *y.RunnerUp)
		}
	}
	if len(a.Selection) != len(b.Selection) {
		t.Errorf("%s: selections differ: %d vs %d indexes", label, len(a.Selection), len(b.Selection))
	}
	for key := range a.Selection {
		if !b.Selection.Has(a.Selection[key]) {
			t.Errorf("%s: %v missing from second selection", label, a.Selection[key])
		}
	}
}

// TestParallelTraceMatchesSerial: the lazy loop's worker pool must not
// change the trace. The serial lazy run must match the oracle (no gain
// cache, no bounds), and the lazy loop at P = 4 and 7 (a worker count not
// dividing the task count) must reproduce the serial run bit for bit under
// every feature set, ExactEvaluation included.
func TestParallelTraceMatchesSerial(t *testing.T) {
	for _, seed := range []int64{3, 11, 29, 47} {
		w := gen(t, 3, 14, 40, 100_000, seed)
		m, _ := setup(w)
		budget := m.Budget(0.5)
		features := []Options{
			{},
			{TrackSecondBest: true, DropUnused: true},
			{PairSteps: true, PairLimit: 60, TrackSecondBest: true},
			{TopNSingle: 6},
			{ExactEvaluation: true},
		}
		for fi, feat := range features {
			ref := feat
			ref.Budget, ref.Parallelism = budget, 1
			baseline, err := Select(w, whatif.New(m), ref)
			if err != nil {
				t.Fatal(err)
			}
			matchOracle(t, fmt.Sprintf("seed %d feature %d P1", seed, fi), runOracle(w, m, ref), baseline)
			for _, p := range []int{4, 7} {
				opts := feat
				opts.Budget, opts.Parallelism = budget, p
				got, err := Select(w, whatif.New(m), opts)
				if err != nil {
					t.Fatal(err)
				}
				traceEqual(t, fmt.Sprintf("seed %d feature %d P%d", seed, fi, p), baseline, got)
			}
		}
	}
}

// TestIncrementalMatchesFullRecomputation runs with TrackSecondBest so that
// the top-2 candidates of every construction step are exposed in the trace:
// if any cached or bounded gain of the lazy loop deviated from a from-scratch
// recomputation, the chosen step or its runner-up (or their ratios) would
// differ from the oracle somewhere along the trace. Write-heavy workloads
// exercise the maintenance terms too.
func TestIncrementalMatchesFullRecomputation(t *testing.T) {
	for _, writeShare := range []float64{0, 0.3} {
		for _, seed := range []int64{5, 19} {
			cfg := workload.DefaultGenConfig()
			cfg.Tables, cfg.AttrsPerTable, cfg.QueriesPerTable = 3, 15, 40
			cfg.RowsBase, cfg.Seed, cfg.WriteShare = 100_000, seed, writeShare
			w := workload.MustGenerate(cfg)
			m, _ := setup(w)
			opts := Options{
				Budget:          m.Budget(0.5),
				TrackSecondBest: true,
				DropUnused:      true,
				Parallelism:     1,
			}
			b, err := Select(w, whatif.New(m), opts)
			if err != nil {
				t.Fatal(err)
			}
			matchOracle(t, fmt.Sprintf("writeShare %v seed %d", writeShare, seed), runOracle(w, m, opts), b)
			// The incremental run's bookkeeping must still agree with a
			// from-scratch model evaluation of its final selection.
			if got, want := b.Cost, m.TotalCost(b.Selection); math.Abs(got-want) > 1e-6*want {
				t.Errorf("incremental cost %v != model %v", got, want)
			}
		}
	}
}

// TestIncrementalReducesReevaluations: the point of the lazy loop's cached
// evaluations is to spend construction steps on O(affected candidates). The
// first step evaluates every candidate; the second must reuse some of them
// (cache-served or pruned) while still re-evaluating the ones the first step
// made stale, and the whole run must serve evaluations from the cache.
func TestIncrementalReducesReevaluations(t *testing.T) {
	w := gen(t, 3, 14, 40, 100_000, 23)
	m, _ := setup(w)
	res, err := Select(w, whatif.New(m), Options{Budget: m.Budget(0.5), Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Steps) < 2 {
		t.Fatalf("run took %d steps, want at least 2", len(res.Steps))
	}
	if first := res.Steps[0]; first.Evaluated != first.Candidates {
		t.Errorf("first step evaluated %d of %d candidates, want all", first.Evaluated, first.Candidates)
	}
	second := res.Steps[1]
	if second.Evaluated >= second.Candidates {
		t.Errorf("second step re-evaluated all %d candidates; nothing was reused", second.Candidates)
	}
	if second.Evaluated == 0 {
		t.Error("second step re-evaluated nothing; the first step's mutation invalidated no entry")
	}
	if res.CacheServed == 0 {
		t.Error("run served zero evaluations from still-exact cache entries")
	}
}

// TestParallelWithWorkerPoolUnderRace exists to drag the actual goroutine
// pool through the race detector on every CI run, including the sharded
// cost/maintenance caches being filled concurrently.
func TestParallelWithWorkerPoolUnderRace(t *testing.T) {
	cfg := workload.DefaultGenConfig()
	cfg.Tables, cfg.AttrsPerTable, cfg.QueriesPerTable = 4, 20, 50
	cfg.RowsBase, cfg.Seed, cfg.WriteShare = 100_000, 71, 0.2
	w := workload.MustGenerate(cfg)
	m, _ := setup(w)
	res, err := Select(w, whatif.New(m), Options{
		Budget:      m.Budget(0.6),
		Parallelism: 8,
		PairSteps:   true,
		PairLimit:   40,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Steps) == 0 {
		t.Fatal("no steps under parallel evaluation")
	}
	if got, want := res.Cost, m.TotalCost(res.Selection); math.Abs(got-want) > 1e-6*want {
		t.Errorf("parallel run cost %v != model %v", got, want)
	}
}

// TestReconfigRunsLazyInParallel: a Reconfig cost is a per-index term with
// no user callback, so it keeps the requested worker count and the lazy
// step loop, and the run still matches the oracle.
func TestReconfigRunsLazyInParallel(t *testing.T) {
	w := gen(t, 2, 10, 20, 50_000, 13)
	m, _ := setup(w)
	opts := Options{Budget: m.Budget(0.5), Parallelism: 4}
	opts.Reconfig = perByteReconfig(m, 0.05, opts.Budget, deployedSet(t, w, m))
	s := newSelector(w, whatif.New(m), opts)
	if s.workers != 4 {
		t.Errorf("Reconfig run uses %d workers, want 4", s.workers)
	}
	if s.lazy == nil {
		t.Error("Reconfig run does not use the lazy step loop")
	}
	res, err := s.run()
	if err != nil {
		t.Fatal(err)
	}
	matchOracle(t, "reconfig/P4", runOracle(w, m, opts), res)
}
