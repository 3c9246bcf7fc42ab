package core

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/whatif"
	"repro/internal/workload"
)

// The production step loop is checked against the independent oracle of
// oracle_test.go at every parallelism level, with and without a
// reconfiguration cost.

func diffWorkloads(t *testing.T) map[string]*workload.Workload {
	t.Helper()
	erpCfg := workload.DefaultERPConfig()
	erpCfg.Tables, erpCfg.TotalAttrs, erpCfg.Queries = 40, 340, 180
	erpCfg.MinRows, erpCfg.MaxRows = 100_000, 5_000_000
	erpCfg.TotalExecutions = 1_000_000
	return map[string]*workload.Workload{
		"TPCC": workload.MustTPCC(20),
		"ERP":  workload.MustGenerateERP(erpCfg),
	}
}

// writeWorkload is a seeded-random three-table workload in which writeShare
// of the templates are inserts, updates or deletes.
func writeWorkload(seed int64, writeShare float64) *workload.Workload {
	cfg := workload.DefaultGenConfig()
	cfg.Tables, cfg.AttrsPerTable, cfg.QueriesPerTable = 3, 14, 40
	cfg.RowsBase, cfg.Seed, cfg.WriteShare = 100_000, seed, writeShare
	return workload.MustGenerate(cfg)
}

// perByteReconfig charges every byte created outside deployed at a rate at
// which building indexes that fill the whole budget costs share of the
// workload's unindexed cost.
func perByteReconfig(m *costmodel.Model, share float64, budget int64, deployed workload.Selection) Reconfig {
	return Reconfig{
		Deployed:      deployed,
		CreatePerByte: share * m.TotalCost(workload.NewSelection()) / float64(budget),
	}
}

// deployedSet is a non-empty deployed configuration for w: the churn-free
// selection at budget share 0.25 with every third index (in key order)
// swapped for its one-attribute extension by the first table attribute it
// lacks. Under a per-byte Reconfig, deployed singles are then free, morphs
// onto a deployed extension earn a credit, and morphs away from a deployed
// index pay for the whole new one.
func deployedSet(t *testing.T, w *workload.Workload, m *costmodel.Model) workload.Selection {
	t.Helper()
	res, err := Select(w, whatif.New(m), Options{Budget: m.Budget(0.25)})
	if err != nil {
		t.Fatal(err)
	}
	sorted := res.Selection.Sorted()
	if len(sorted) < 3 {
		t.Fatalf("churn-free selection has %d indexes; too few to swap", len(sorted))
	}
	dep := workload.NewSelection()
	for i, k := range sorted {
		if i%3 == 0 {
			for _, a := range w.Tables[k.Table].Attrs {
				if !k.Contains(a) {
					k = k.Append(a)
					break
				}
			}
		}
		dep.Add(k)
	}
	return dep
}

// TestDifferentialLazyVsOracle is the exactness contract of the production
// step loop. On TPC-C, the scaled ERP and seeded-random write workloads,
// for each Remark-1 feature set, the lazy loop at P = 1, 4 and NumCPU must
// reproduce the oracle's trace: same steps, ratios bit for bit, same
// candidate universe, same final selection and stop reason. It does so free
// of reconfiguration and under two per-byte Reconfig costs: from an empty
// deployed set, and from the non-empty one of deployedSet. Across the
// Reconfig runs the bounds must still prune.
func TestDifferentialLazyVsOracle(t *testing.T) {
	workloads := diffWorkloads(t)
	for _, seed := range []int64{5, 19, 47} {
		workloads[fmt.Sprintf("writes%d", seed)] = writeWorkload(seed, 0.3)
	}
	features := []Options{
		{},
		{TrackSecondBest: true, DropUnused: true},
		{PairSteps: true, PairLimit: 40, TrackSecondBest: true},
		{TopNSingle: 8},
	}
	parallelisms := []int{1, 4, runtime.NumCPU()}
	reconPruned := 0
	for name, w := range workloads {
		m := costmodel.New(w, costmodel.SingleIndex)
		budget := m.Budget(0.5)
		recons := []struct {
			name string
			r    Reconfig
		}{
			{"", Reconfig{}},
			{"/reconfig", perByteReconfig(m, 0.01, budget, nil)},
			{"/reconfig-deployed", perByteReconfig(m, 0.01, budget, deployedSet(t, w, m))},
		}
		for _, rc := range recons {
			rname, recon := rc.name, rc.r
			for fi, feat := range features {
				opts := feat
				opts.Budget, opts.Reconfig = budget, recon
				want := runOracle(w, m, opts)
				if len(want.Steps) == 0 {
					t.Fatalf("%s%s/feature%d: oracle took no step", name, rname, fi)
				}
				for _, p := range parallelisms {
					opts.Parallelism = p
					got, err := Select(w, whatif.New(m), opts)
					if err != nil {
						t.Fatalf("%s%s/feature%d/P%d: %v", name, rname, fi, p, err)
					}
					matchOracle(t, fmt.Sprintf("%s%s/feature%d/P%d", name, rname, fi, p), want, got)
					if rname != "" {
						reconPruned += got.Pruned
					}
				}
			}
		}
	}
	if reconPruned == 0 {
		t.Error("no Reconfig run pruned a candidate; the bounds are degenerate under reconfiguration")
	}
}

// countingSource counts the what-if entry points the optimizer reports as
// calls (base, single-index and whole-selection cost); maintenance and size
// lookups pass through uncounted. Safe for the parallel loop's workers.
type countingSource struct {
	whatif.Source
	calls atomic.Int64
}

func (c *countingSource) BaseCost(q workload.Query) float64 {
	c.calls.Add(1)
	return c.Source.BaseCost(q)
}

func (c *countingSource) CostWithIndex(q workload.Query, k workload.Index) float64 {
	c.calls.Add(1)
	return c.Source.CostWithIndex(q, k)
}

func (c *countingSource) QueryCost(q workload.Query, sel workload.Selection) float64 {
	c.calls.Add(1)
	return c.Source.QueryCost(q, sel)
}

// TestDifferentialFlatVsReference checks the flat what-if cache against the
// raw cost source it fronts. The reference is the oracle, which reads the
// Source directly with no cache; the lazy loop reads through whatif.New over
// a counting Source. For each feature set and P = 1, 4 and NumCPU the trace
// must match the reference, the frontier must be bit-identical to the serial
// run's, the optimizer's Calls must equal the source invocations it made,
// and Calls and CacheHits must not depend on the worker count.
func TestDifferentialFlatVsReference(t *testing.T) {
	parallelisms := []int{1, 4, runtime.NumCPU()}
	features := []Options{
		{},
		{TrackSecondBest: true, DropUnused: true},
		{PairSteps: true, PairLimit: 40, TrackSecondBest: true},
		{TopNSingle: 8},
	}
	for name, w := range diffWorkloads(t) {
		m := costmodel.New(w, costmodel.SingleIndex)
		budget := m.Budget(0.5)
		for fi, feat := range features {
			opts := feat
			opts.Budget = budget
			want := runOracle(w, m, opts)
			var serial *Result
			var serialStats whatif.Stats
			for _, p := range parallelisms {
				label := fmt.Sprintf("%s/feature%d/P%d", name, fi, p)
				opts.Parallelism = p
				src := &countingSource{Source: m}
				flatOpt := whatif.New(src)
				got, err := Select(w, flatOpt, opts)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				matchOracle(t, label, want, got)

				st := flatOpt.Stats()
				if st.Calls != src.calls.Load() {
					t.Errorf("%s: optimizer reports %d what-if calls, source served %d",
						label, st.Calls, src.calls.Load())
				}
				if serial == nil {
					serial, serialStats = got, st
					continue
				}
				wf, gf := serial.Frontier(), got.Frontier()
				if len(wf) != len(gf) {
					t.Fatalf("%s: frontier lengths %d (P1) vs %d", label, len(wf), len(gf))
				}
				for i := range wf {
					if wf[i] != gf[i] {
						t.Errorf("%s: frontier[%d] %+v (P1) vs %+v", label, i, wf[i], gf[i])
					}
				}
				if st.Calls != serialStats.Calls || st.CacheHits != serialStats.CacheHits {
					t.Errorf("%s: what-if calls/hits %d/%d vs %d/%d at P1",
						label, st.Calls, st.CacheHits, serialStats.Calls, serialStats.CacheHits)
				}
			}
		}
	}
}

// TestDifferentialWriteWorkload covers the maintenance terms on write-heavy
// workloads, where Remark 1.2 also evicts indexes whose read benefit no
// longer pays for their maintenance: the lazy loop must match the oracle,
// and across the seeds at least one drop step must actually occur.
func TestDifferentialWriteWorkload(t *testing.T) {
	drops := 0
	for _, seed := range []int64{9, 31} {
		w := writeWorkload(seed, 0.5)
		m := costmodel.New(w, costmodel.SingleIndex)
		opts := Options{
			Budget:          m.Budget(0.5),
			TrackSecondBest: true,
			DropUnused:      true,
			Parallelism:     4,
		}
		got, err := Select(w, whatif.New(m), opts)
		if err != nil {
			t.Fatal(err)
		}
		matchOracle(t, fmt.Sprintf("writes/seed%d", seed), runOracle(w, m, opts), got)
		for _, st := range got.Steps {
			if st.Kind == StepDrop {
				drops++
			}
		}
	}
	if drops == 0 {
		t.Error("no drop step on write-heavy workloads; Remark 1.2's maintenance threshold is untested")
	}
}

// TestDifferentialExactEvaluation pins the ExactEvaluation path (a what-if
// call for every extension instead of derived costs) to the oracle as well:
// the call count grows, the trace must not change.
func TestDifferentialExactEvaluation(t *testing.T) {
	w := workload.MustTPCC(10)
	m := costmodel.New(w, costmodel.SingleIndex)
	opts := Options{Budget: m.Budget(0.5), Parallelism: 4}
	want := runOracle(w, m, opts)

	derivedOpt := whatif.New(m)
	derived, err := Select(w, derivedOpt, opts)
	if err != nil {
		t.Fatal(err)
	}
	matchOracle(t, "derived", want, derived)

	opts.ExactEvaluation = true
	exactOpt := whatif.New(m)
	exact, err := Select(w, exactOpt, opts)
	if err != nil {
		t.Fatal(err)
	}
	matchOracle(t, "exact", want, exact)
	if e, d := exactOpt.Stats().Calls, derivedOpt.Stats().Calls; e < d {
		t.Errorf("exact evaluation made %d what-if calls, fewer than derived evaluation's %d", e, d)
	}
}

// TestReconfigEvaluationsWithinTwiceChurnFree is the deterministic scale
// guard for churn-aware selection: on the scaled ERP at budget share 0.5, a
// run under a per-byte Reconfig from the non-empty deployed set of
// deployedSet must evaluate at most twice the candidates of the churn-free
// run. It counts evaluations, not wall time, so it is immune to machine
// noise.
func TestReconfigEvaluationsWithinTwiceChurnFree(t *testing.T) {
	w := diffWorkloads(t)["ERP"]
	m := costmodel.New(w, costmodel.SingleIndex)
	budget := m.Budget(0.5)
	free, err := Select(w, whatif.New(m), Options{Budget: budget})
	if err != nil {
		t.Fatal(err)
	}
	aware, err := Select(w, whatif.New(m), Options{
		Budget:   budget,
		Reconfig: perByteReconfig(m, 0.01, budget, deployedSet(t, w, m)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(aware.Steps) == 0 {
		t.Fatal("churn-aware run took no step")
	}
	if aware.Evaluated > 2*free.Evaluated {
		t.Errorf("churn-aware run evaluated %d candidates, more than twice the churn-free run's %d",
			aware.Evaluated, free.Evaluated)
	}
}
