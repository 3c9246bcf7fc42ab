package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/whatif"
	"repro/internal/workload"
)

// TestDifferentialLazyVsEager pins the lazy (CELF) loop to the eager
// evaluation it prunes: the from-scratch sweep, which a zero-cost Reconfig
// selects and which evaluates every candidate on every step. At P = 1, 4 and
// NumCPU the lazy trace and frontier must be bit-identical to the sweep's,
// each step must enumerate the same candidate universe, and the bounds may
// only save evaluations, never add them. It runs on TPC-C and the seeded
// write workloads; on the scaled ERP one sweep takes seconds, and the ERP's
// lazy trace is pinned to the oracle by TestDifferentialLazyVsOracle.
func TestDifferentialLazyVsEager(t *testing.T) {
	parallelisms := []int{1, 4, runtime.NumCPU()}
	features := []Options{
		{},
		{TrackSecondBest: true, DropUnused: true},
		{PairSteps: true, PairLimit: 40, TrackSecondBest: true},
		{TopNSingle: 8},
	}
	workloads := map[string]*workload.Workload{"TPCC": workload.MustTPCC(20)}
	for _, seed := range []int64{5, 19, 47} {
		workloads[fmt.Sprintf("writes%d", seed)] = writeWorkload(seed, 0.3)
	}
	for name, w := range workloads {
		m := costmodel.New(w, costmodel.SingleIndex)
		budget := m.Budget(0.5)
		for fi, feat := range features {
			eagerOpts := feat
			eagerOpts.Budget = budget
			eagerOpts.Reconfig = func(workload.Selection) float64 { return 0 }
			want, err := Select(w, whatif.New(m), eagerOpts)
			if err != nil {
				t.Fatalf("%s/feature%d: eager: %v", name, fi, err)
			}
			for _, p := range parallelisms {
				label := fmt.Sprintf("%s/feature%d/P%d", name, fi, p)
				opts := feat
				opts.Budget, opts.Parallelism = budget, p
				got, err := Select(w, whatif.New(m), opts)
				if err != nil {
					t.Fatalf("%s: lazy: %v", label, err)
				}

				traceEqual(t, label, want, got)
				if want.StopReason != got.StopReason {
					t.Errorf("%s: stop reason %v (eager) vs %v (lazy)", label, want.StopReason, got.StopReason)
				}
				wf, gf := want.Frontier(), got.Frontier()
				if len(wf) != len(gf) {
					t.Fatalf("%s: frontier lengths %d vs %d", label, len(wf), len(gf))
				}
				for i := range wf {
					if wf[i] != gf[i] {
						t.Errorf("%s: frontier[%d] %+v vs %+v", label, i, wf[i], gf[i])
					}
				}
				for i := range got.Steps {
					ws, gs := want.Steps[i], got.Steps[i]
					if ws.Candidates != gs.Candidates {
						t.Errorf("%s: step %d candidates %d (eager) vs %d (lazy)",
							label, i, ws.Candidates, gs.Candidates)
					}
					if gs.Candidates != gs.Evaluated+gs.CacheServed+gs.Pruned {
						t.Errorf("%s: step %d lazy accounting %d != %d+%d+%d",
							label, i, gs.Candidates, gs.Evaluated, gs.CacheServed, gs.Pruned)
					}
					if ws.Pruned != 0 {
						t.Errorf("%s: step %d eager sweep reports Pruned=%d", label, i, ws.Pruned)
					}
				}
				if got.Evaluated > want.Evaluated {
					t.Errorf("%s: lazy evaluated %d candidates, eager only %d",
						label, got.Evaluated, want.Evaluated)
				}
			}
		}
	}
}

// TestLazyPrunesERP is the CI guard wired into the robustness job: on the
// ERP smoke workload the lazy loop must actually prune, and must evaluate at
// most a fifteenth of the candidates its steps enumerate. The per-step
// reduction is tracked in results/BENCH_core.json; this guard catches the
// regression class (bounds degenerating to full sweeps) without benchmark
// noise.
func TestLazyPrunesERP(t *testing.T) {
	cfg := workload.DefaultERPConfig()
	cfg.Tables, cfg.TotalAttrs, cfg.Queries = 20, 170, 90
	cfg.MinRows, cfg.MaxRows = 100_000, 5_000_000
	cfg.TotalExecutions = 1_000_000
	w := workload.MustGenerateERP(cfg)
	m := costmodel.New(w, costmodel.SingleIndex)
	lazy, err := Select(w, whatif.New(m), Options{Budget: m.Budget(0.5), Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if lazy.Pruned == 0 {
		t.Error("lazy pruned zero candidates on ERP smoke; bounds are degenerate")
	}
	enumerated := 0
	for _, st := range lazy.Steps {
		enumerated += st.Candidates
	}
	if 15*lazy.Evaluated > enumerated {
		t.Errorf("lazy evaluated %d candidates on ERP smoke, more than 1/15 of the %d enumerated",
			lazy.Evaluated, enumerated)
	}
}

// TestLazyBoundsDominateFreshGains is the bound-soundness property, fuzzed
// over workload shapes, write shares, and feature combinations: after every
// step decision, every candidate's stale upper bound must be >= its freshly
// evaluated ratio against the same frozen state, and every epoch-exact cache
// entry must equal a from-scratch recomputation bit for bit. Violations name
// the offending candidate key.
func TestLazyBoundsDominateFreshGains(t *testing.T) {
	type shape struct {
		tables, attrs, queries int
		writeShare             float64
		feat                   Options
	}
	shapes := []shape{
		{3, 14, 40, 0, Options{}},
		{3, 14, 40, 0.3, Options{TrackSecondBest: true, DropUnused: true}},
		{4, 12, 50, 0.2, Options{PairSteps: true, PairLimit: 30}},
		{2, 18, 35, 0.1, Options{TopNSingle: 5}},
	}
	for _, seed := range []int64{1, 7, 23, 61, 104} {
		for si, sh := range shapes {
			label := fmt.Sprintf("seed%d/shape%d", seed, si)
			cfg := workload.DefaultGenConfig()
			cfg.Tables, cfg.AttrsPerTable, cfg.QueriesPerTable = sh.tables, sh.attrs, sh.queries
			cfg.RowsBase, cfg.Seed, cfg.WriteShare = 80_000, seed, sh.writeShare
			w := workload.MustGenerate(cfg)
			m, _ := setup(w)

			audited, violations := 0, 0
			lazyAuditHook = func(a lazyAuditInfo) {
				audited++
				if violations >= 5 {
					return // enough diagnostics
				}
				key := fmt.Sprintf("%v %s", a.task.kind, a.task.index.Key())
				if a.fresh.ok && a.bound < a.fresh.c.ratio {
					violations++
					t.Errorf("%s: candidate %s: stale bound %v < fresh ratio %v",
						label, key, a.bound, a.fresh.c.ratio)
				}
				if a.exact {
					if a.cached.ok != a.fresh.ok {
						violations++
						t.Errorf("%s: candidate %s: exact entry viability %v, fresh %v",
							label, key, a.cached.ok, a.fresh.ok)
					} else if a.cached.ok &&
						(a.cached.c.gain != a.fresh.c.gain || a.cached.c.ratio != a.fresh.c.ratio) {
						violations++
						t.Errorf("%s: candidate %s: exact entry (gain %v, ratio %v) != fresh (%v, %v)",
							label, key, a.cached.c.gain, a.cached.c.ratio, a.fresh.c.gain, a.fresh.c.ratio)
					}
				}
			}
			opts := sh.feat
			opts.Budget, opts.Parallelism = m.Budget(0.5), 2
			_, err := Select(w, whatif.New(m), opts)
			lazyAuditHook = nil
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if audited == 0 {
				t.Fatalf("%s: audit hook never fired", label)
			}
		}
	}
}

// TestLazyNarrowedInvalidation pins the kind split of the lazy loop's
// invalidation: applying an index rewrites served[] for every query sharing
// its leading attribute, so every co-occurring bucket's extension epoch must
// move; but new-index evaluations are pure functions of query costs, so a
// co-occurring bucket whose queries' costs did not net-change must keep its
// new-index epoch. Early steps tend to change every co-occurring cost at
// once, so survival is asserted cumulatively along the run.
func TestLazyNarrowedInvalidation(t *testing.T) {
	w := gen(t, 3, 14, 40, 100_000, 23)
	m, _ := setup(w)
	s := newSelector(w, whatif.New(m), Options{Budget: m.Budget(0.5), Parallelism: 1})
	s.initTopNSingle()
	lz := s.lazy
	survivors := 0
	for step := 0; step < 30; step++ {
		best, second, haveSecond, ok, err := s.collectLazy()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		coOccur := map[int]bool{}
		for _, qid := range s.queriesWith[best.index.Leading()] {
			for _, a := range s.w.Queries[qid].Attrs {
				coOccur[a] = true
			}
		}
		extBefore := append([]uint64(nil), lz.extEpoch...)
		newBefore := append([]uint64(nil), lz.newEpoch...)
		s.apply(best, second, haveSecond)
		for a := range coOccur {
			if lz.extEpoch[a] == extBefore[a] {
				t.Errorf("step %d: co-occurring bucket %d kept its extension epoch; served[] was rewritten there", step, a)
			}
			if lz.newEpoch[a] == newBefore[a] {
				survivors++
			}
		}
	}
	if len(s.steps) == 0 {
		t.Fatal("no steps applied")
	}
	if survivors == 0 {
		t.Error("no co-occurring bucket ever kept its new-index epoch; invalidation regressed to whole-bucket drops")
	}
}

// TestLazyApproximateTier pins the Options.Approximate contract: runs stay
// deterministic across parallelism, never evaluate more than exact mode, echo
// the eps in the result, and the first step's ratio — decided from the same
// initial state as exact mode — is within the documented (1+eps) factor.
func TestLazyApproximateTier(t *testing.T) {
	w := diffWorkloads(t)["TPCC"]
	m := costmodel.New(w, costmodel.SingleIndex)
	budget := m.Budget(0.5)
	const eps = 0.2

	exact, err := Select(w, whatif.New(m), Options{Budget: budget, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	approx := func(p int) *Result {
		t.Helper()
		r, err := Select(w, whatif.New(m), Options{Budget: budget, Parallelism: p, Approximate: eps})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a1, a4 := approx(1), approx(4)
	traceEqual(t, "approx P1 vs P4", a1, a4)

	if a4.Approximate != eps {
		t.Errorf("Result.Approximate = %v, want %v", a4.Approximate, eps)
	}
	if exact.Approximate != 0 {
		t.Errorf("exact run echoes Approximate = %v", exact.Approximate)
	}
	if a4.Evaluated > exact.Evaluated {
		t.Errorf("approximate mode evaluated %d candidates, exact only %d", a4.Evaluated, exact.Evaluated)
	}
	if len(a4.Steps) == 0 || len(exact.Steps) == 0 {
		t.Fatal("empty trace")
	}
	if got, want := a4.Steps[0].Ratio, exact.Steps[0].Ratio; got < want/(1+eps) || got > want {
		t.Errorf("first approximate step ratio %v outside [%v/(1+eps), %v]", got, want, want)
	}
	if math.IsNaN(a4.Cost) || math.IsInf(a4.Cost, 0) || a4.Cost < 0 {
		t.Errorf("approximate run cost %v is not sane", a4.Cost)
	}
	if a4.Memory > budget {
		t.Errorf("approximate run memory %d exceeds budget %d", a4.Memory, budget)
	}
}

// TestLazyAccountingDeterministicAcrossParallelism: the evaluated set — not
// just the decided trace — must be identical at every worker count, or the
// "deterministic batches" claim is hollow and Step accounting becomes flaky.
func TestLazyAccountingDeterministicAcrossParallelism(t *testing.T) {
	w := gen(t, 4, 12, 50, 100_000, 17)
	m, _ := setup(w)
	budget := m.Budget(0.5)
	run := func(p int) *Result {
		t.Helper()
		r, err := Select(w, whatif.New(m), Options{
			Budget: budget, Parallelism: p, TrackSecondBest: true, DropUnused: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	base := run(1)
	for _, p := range []int{2, 4, 7} {
		got := run(p)
		traceEqual(t, fmt.Sprintf("P%d", p), base, got)
		if len(base.Steps) != len(got.Steps) {
			t.Fatal("step counts diverged")
		}
		for i := range base.Steps {
			b, g := base.Steps[i], got.Steps[i]
			if b.Evaluated != g.Evaluated || b.CacheServed != g.CacheServed || b.Pruned != g.Pruned {
				t.Errorf("P%d step %d accounting (%d,%d,%d) vs serial (%d,%d,%d)",
					p, i, g.Evaluated, g.CacheServed, g.Pruned, b.Evaluated, b.CacheServed, b.Pruned)
			}
		}
		if base.Evaluated != got.Evaluated || base.Pruned != got.Pruned {
			t.Errorf("P%d run totals (%d,%d) vs serial (%d,%d)",
				p, got.Evaluated, got.Pruned, base.Evaluated, base.Pruned)
		}
	}
}

// byLeadMismatch reports the first lead whose byLead list differs from the
// lead's subsequence of the canonically sorted selection ("" if none).
func byLeadMismatch(s *selector) string {
	want := make([][]selEntry, len(s.byLead))
	for _, e := range s.sortedSel() {
		want[e.k.Leading()] = append(want[e.k.Leading()], e)
	}
	for b, got := range s.byLead {
		if len(got) != len(want[b]) {
			return fmt.Sprintf("byLead[%d] holds %d indexes, selection %d", b, len(got), len(want[b]))
		}
		for i := range got {
			if got[i].id != want[b][i].id || got[i].k.Key() != want[b][i].k.Key() {
				return fmt.Sprintf("byLead[%d][%d] = %s, sorted selection has %s",
					b, i, got[i].k.Key(), want[b][i].k.Key())
			}
		}
	}
	return ""
}

// TestByLeadMatchesSortedSel pins the per-lead selected lists the bucket
// rebuild reads: byLead[b] must always be exactly the lead-b subsequence of
// the canonically sorted selection. It checks after every applied and
// dropped step of the lazy loop with pair steps on seeded workloads, of a
// write-heavy workload that produces drop steps, and of the Reconfig sweep;
// and after every add and remove of a seeded random sequence that stacks
// many indexes on few leads in arbitrary order, which selection runs rarely
// do.
func TestByLeadMatchesSortedSel(t *testing.T) {
	type tcase struct {
		name     string
		w        *workload.Workload
		opts     Options
		drop     bool // the run must record at least one drop step
		reconfig bool // run the from-scratch sweep under a per-byte Reconfig
	}
	var cases []tcase
	for _, seed := range []int64{3, 11, 29} {
		cases = append(cases, tcase{
			name: fmt.Sprintf("pairs%d", seed),
			w:    gen(t, 4, 12, 50, 80_000, seed),
			opts: Options{PairSteps: true, PairLimit: 30, TrackSecondBest: true},
		})
	}
	for _, seed := range []int64{15, 22} {
		cases = append(cases, tcase{
			name: fmt.Sprintf("writes%d", seed),
			w:    writeGen(t, 0.3, seed),
			opts: Options{DropUnused: true},
			drop: true,
		})
	}
	cases = append(cases, tcase{
		name:     "reconfig",
		w:        writeWorkload(19, 0.3),
		opts:     Options{PairSteps: true, PairLimit: 30, DropUnused: true},
		reconfig: true,
	})

	for _, tc := range cases {
		m := costmodel.New(tc.w, costmodel.SingleIndex)
		opts := tc.opts
		opts.Budget = m.Budget(0.5)
		if tc.reconfig {
			opts.Reconfig = perByteReconfig(tc.w, m, 0.05, opts.Budget)
		}
		// A broken list can make the run extend stale indexes forever, so the
		// first mismatch also stops the run at the next step boundary.
		ctx, cancel := context.WithCancel(context.Background())
		opts.Context = ctx
		mutations, failed := 0, false
		mutateHook = func(s *selector) {
			mutations++
			if msg := byLeadMismatch(s); msg != "" && !failed {
				failed = true
				t.Errorf("%s: mutation %d: %s", tc.name, mutations, msg)
				cancel()
			}
		}
		res, err := Select(tc.w, whatif.New(m), opts)
		mutateHook = nil
		cancel()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if failed {
			t.FailNow()
		}
		if mutations != len(res.Steps) || mutations == 0 {
			t.Fatalf("%s: hook saw %d mutations for %d steps", tc.name, mutations, len(res.Steps))
		}
		drops := 0
		for _, st := range res.Steps {
			if st.Kind == StepDrop {
				drops++
			}
		}
		if tc.drop && drops == 0 {
			t.Fatalf("%s: no drop step recorded; the case no longer covers removals", tc.name)
		}
	}

	// Direct: random composites on the first table's first three leads,
	// added and removed in seeded random order.
	w := gen(t, 2, 10, 30, 80_000, 5)
	m := costmodel.New(w, costmodel.SingleIndex)
	s := newSelector(w, whatif.New(m), Options{Budget: m.Budget(0.5)})
	attrs := w.Tables[0].Attrs
	rng := rand.New(rand.NewSource(13))
	var pool []workload.Index
	for _, lead := range attrs[:3] {
		for n := 0; n < 12; n++ {
			k := workload.Index{Table: 0, Attrs: []int{lead}}
			for _, a := range rng.Perm(len(attrs))[:rng.Intn(3)] {
				if !k.Contains(attrs[a]) {
					k = k.Append(attrs[a])
				}
			}
			pool = append(pool, k)
		}
	}
	for op := 0; op < 400; op++ {
		k := pool[rng.Intn(len(pool))]
		id := s.in.Intern(k)
		s.ensure()
		if s.sel.Has(id) {
			s.removeIndex(k, id)
		} else {
			s.addIndex(k, id)
		}
		if msg := byLeadMismatch(s); msg != "" {
			t.Fatalf("direct: op %d on %s: %s", op, k.Key(), msg)
		}
	}
}
