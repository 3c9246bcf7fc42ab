package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/whatif"
	"repro/internal/workload"
)

// TestDifferentialLazyVsEager pins the lazy (CELF) loop to the eager
// evaluation it prunes: the oracle, which evaluates every candidate on every
// step. At P = 1, 4 and NumCPU the lazy trace must match the oracle's and
// its frontier must be bit-identical to the serial run's, each step must
// enumerate the oracle's candidate universe, and the bounds may only save
// evaluations, never add them: the lazy run evaluates at most the oracle's
// candidate count. It runs on TPC-C and the seeded write workloads; the
// scaled ERP is covered by TestDifferentialLazyVsOracle.
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
			want := runOracle(w, m, eagerOpts)
			var serial *Result
			for _, p := range parallelisms {
				label := fmt.Sprintf("%s/feature%d/P%d", name, fi, p)
				opts := feat
				opts.Budget, opts.Parallelism = budget, p
				got, err := Select(w, whatif.New(m), opts)
				if err != nil {
					t.Fatalf("%s: lazy: %v", label, err)
				}

				matchOracle(t, label, want, got)
				if serial == nil {
					serial = got
				}
				wf, gf := serial.Frontier(), got.Frontier()
				if len(wf) != len(gf) {
					t.Fatalf("%s: frontier lengths %d vs %d", label, len(wf), len(gf))
				}
				for i := range wf {
					if wf[i] != gf[i] {
						t.Errorf("%s: frontier[%d] %+v (P1) vs %+v", label, i, wf[i], gf[i])
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
// the offending candidate key. Two shapes run under a Reconfig from the
// deployed set of deployedSet: one at 1e12 per created byte, where every
// reconfiguration delta dwarfs the base costs the bucket slack is sized
// from, and one at a per-byte rate of 5% of the unindexed cost per budget,
// where morphs onto deployed indexes earn credits.
func TestLazyBoundsDominateFreshGains(t *testing.T) {
	type shape struct {
		tables, attrs, queries int
		writeShare             float64
		feat                   Options
		rate                   float64 // Reconfig per-byte rate; <0: 5% share
	}
	shapes := []shape{
		{3, 14, 40, 0, Options{}, 0},
		{3, 14, 40, 0.3, Options{TrackSecondBest: true, DropUnused: true}, 0},
		{4, 12, 50, 0.2, Options{PairSteps: true, PairLimit: 30}, 0},
		{2, 18, 35, 0.1, Options{TopNSingle: 5}, 0},
		{3, 14, 40, 0.2, Options{TrackSecondBest: true, DropUnused: true}, 1e12},
		{4, 12, 50, 0.1, Options{PairSteps: true, PairLimit: 30, TrackSecondBest: true}, -1},
	}
	for _, seed := range []int64{1, 7, 23, 61, 104} {
		for si, sh := range shapes {
			label := fmt.Sprintf("seed%d/shape%d", seed, si)
			cfg := workload.DefaultGenConfig()
			cfg.Tables, cfg.AttrsPerTable, cfg.QueriesPerTable = sh.tables, sh.attrs, sh.queries
			cfg.RowsBase, cfg.Seed, cfg.WriteShare = 80_000, seed, sh.writeShare
			w := workload.MustGenerate(cfg)
			m, _ := setup(w)
			opts := sh.feat
			opts.Budget, opts.Parallelism = m.Budget(0.5), 2
			switch {
			case sh.rate > 0:
				opts.Reconfig = Reconfig{Deployed: deployedSet(t, w, m), CreatePerByte: sh.rate}
			case sh.rate < 0:
				opts.Reconfig = perByteReconfig(m, 0.05, opts.Budget, deployedSet(t, w, m))
			}

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

// bookkeepingCase is one selection run the bookkeeping tests hook into.
type bookkeepingCase struct {
	name     string
	w        *workload.Workload
	opts     Options
	drop     bool // the run must record at least one drop step
	reconfig bool // run under a per-byte Reconfig
}

// bookkeepingCases are lazy runs with pair steps on seeded workloads, with
// drop steps on write-heavy workloads, under Approximate, under Explain and
// under a per-byte Reconfig.
func bookkeepingCases(t *testing.T) []bookkeepingCase {
	var cases []bookkeepingCase
	for _, seed := range []int64{3, 11, 29} {
		cases = append(cases, bookkeepingCase{
			name: fmt.Sprintf("pairs%d", seed),
			w:    gen(t, 4, 12, 50, 80_000, seed),
			opts: Options{PairSteps: true, PairLimit: 30, TrackSecondBest: true},
		})
	}
	for _, seed := range []int64{15, 22} {
		cases = append(cases, bookkeepingCase{
			name: fmt.Sprintf("writes%d", seed),
			w:    writeGen(t, 0.3, seed),
			opts: Options{DropUnused: true},
			drop: true,
		})
	}
	return append(cases,
		bookkeepingCase{
			name: "approximate",
			w:    gen(t, 4, 12, 50, 80_000, 7),
			opts: Options{Approximate: 0.2, TrackSecondBest: true},
		},
		bookkeepingCase{
			name: "explain",
			w:    writeGen(t, 0.3, 15),
			opts: Options{Explain: true, DropUnused: true, TrackSecondBest: true},
			drop: true,
		},
		bookkeepingCase{
			name:     "reconfig",
			w:        writeWorkload(19, 0.3),
			opts:     Options{PairSteps: true, PairLimit: 30, DropUnused: true},
			reconfig: true,
		})
}

// runHooked runs tc at half the index budget with check installed in hook.
// A broken invariant can make the run loop on stale state, so the first
// mismatch fails the test and also stops the run at the next step
// boundary. It returns the result and how often the hook fired.
func runHooked(t *testing.T, tc bookkeepingCase, hook *func(*selector), check func(*selector) string) (*Result, int) {
	t.Helper()
	m := costmodel.New(tc.w, costmodel.SingleIndex)
	opts := tc.opts
	opts.Budget = m.Budget(0.5)
	if tc.reconfig {
		opts.Reconfig = perByteReconfig(m, 0.05, opts.Budget, nil)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts.Context = ctx
	calls, failed := 0, false
	*hook = func(s *selector) {
		calls++
		if msg := check(s); msg != "" && !failed {
			failed = true
			t.Errorf("%s: call %d: %s", tc.name, calls, msg)
			cancel()
		}
	}
	res, err := Select(tc.w, whatif.New(m), opts)
	*hook = nil
	if err != nil {
		t.Fatalf("%s: %v", tc.name, err)
	}
	if failed {
		t.FailNow()
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
	return res, calls
}

// TestByLeadMatchesSortedSel pins the per-lead selected lists the bucket
// rebuild reads: byLead[b] must always be exactly the lead-b subsequence of
// the canonically sorted selection. It checks after every applied and
// dropped step of the bookkeeping cases; and after every add and remove of a seeded random sequence that
// stacks many indexes on few leads in arbitrary order, which selection runs
// rarely do.
func TestByLeadMatchesSortedSel(t *testing.T) {
	for _, tc := range bookkeepingCases(t) {
		res, mutations := runHooked(t, tc, &mutateHook, byLeadMismatch)
		if mutations != len(res.Steps) || mutations == 0 {
			t.Fatalf("%s: hook saw %d mutations for %d steps", tc.name, mutations, len(res.Steps))
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

// sentinelHeapMismatch reports the first broken invariant of h: every slot's
// pos entry points back at it, every absent bucket's pos is -1, and every
// node sorts no earlier than its parent under (prio desc, bucket asc).
func sentinelHeapMismatch(h *sentinelHeap) string {
	for i, it := range h.items {
		if got := h.pos[it.bucket]; int(got) != i {
			return fmt.Sprintf("bucket %d at slot %d has pos %d", it.bucket, i, got)
		}
		if i > 0 && h.before(i, (i-1)/2) {
			return fmt.Sprintf("slot %d (bucket %d, prio %v) sorts before its parent (bucket %d, prio %v)",
				i, it.bucket, it.prio, h.items[(i-1)/2].bucket, h.items[(i-1)/2].prio)
		}
	}
	present := 0
	for b, p := range h.pos {
		if p >= 0 {
			present++
			if int(p) >= len(h.items) || h.items[p].bucket != int32(b) {
				return fmt.Sprintf("bucket %d has dangling pos %d", b, p)
			}
		}
	}
	if present != len(h.items) {
		return fmt.Sprintf("%d buckets have a pos, the heap holds %d", present, len(h.items))
	}
	return ""
}

// TestSentinelHeapMatchesSortedReference drives the indexed sentinel heap
// through seeded random inserts, re-keys up and down, removes (of present
// and absent buckets) and pops over a priority pool with ties and ±Inf, and
// checks it against a map sorted by (prio desc, bucket asc): the invariants
// after every operation, each pop against the reference's first element,
// and at intervals the full drain order of a copy.
func TestSentinelHeapMatchesSortedReference(t *testing.T) {
	const buckets = 48
	pool := []float64{math.Inf(-1), -1, 0, 0.5, 1, 1, 2, 3.25, math.Inf(1), math.Inf(1)}
	for _, seed := range []int64{1, 2, 3, 4} {
		rng := rand.New(rand.NewSource(seed))
		h := newSentinelHeap(buckets)
		ref := map[int32]float64{}
		sorted := func() []int32 {
			out := make([]int32, 0, len(ref))
			for b := range ref {
				out = append(out, b)
			}
			sort.Slice(out, func(i, j int) bool {
				pi, pj := ref[out[i]], ref[out[j]]
				if pi != pj {
					return pi > pj
				}
				return out[i] < out[j]
			})
			return out
		}
		prio := func() float64 {
			if rng.Intn(4) == 0 {
				return rng.NormFloat64()
			}
			return pool[rng.Intn(len(pool))]
		}
		kinds := map[string]int{}
		for op := 0; op < 4000; op++ {
			b := int32(rng.Intn(buckets))
			var what string
			switch r := rng.Intn(10); {
			case r < 5:
				p := prio()
				old, had := ref[b]
				switch {
				case !had:
					what = "insert"
				case p > old:
					what = "rekey-up"
				case p < old:
					what = "rekey-down"
				default:
					what = "rekey-same"
				}
				h.set(b, p)
				ref[b] = p
			case r < 8:
				if _, had := ref[b]; had {
					what = "remove"
				} else {
					what = "remove-absent"
				}
				h.remove(b)
				delete(ref, b)
			default:
				if len(ref) == 0 {
					continue
				}
				what = "pop"
				want := sorted()[0]
				if gotPrio := h.peekPrio(); gotPrio != ref[want] {
					t.Fatalf("seed %d op %d: peek prio %v, want %v", seed, op, gotPrio, ref[want])
				}
				if got := h.pop(); got != want {
					t.Fatalf("seed %d op %d: pop gave bucket %d, want %d", seed, op, got, want)
				}
				delete(ref, want)
			}
			kinds[what]++
			if msg := sentinelHeapMismatch(&h); msg != "" {
				t.Fatalf("seed %d op %d (%s): %s", seed, op, what, msg)
			}
			if h.len() != len(ref) {
				t.Fatalf("seed %d op %d (%s): heap holds %d, reference %d", seed, op, what, h.len(), len(ref))
			}
			if op%97 == 0 {
				cp := sentinelHeap{
					items: append([]sentinel(nil), h.items...),
					pos:   append([]int32(nil), h.pos...),
				}
				for i, want := range sorted() {
					if got := cp.pop(); got != want {
						t.Fatalf("seed %d op %d: drain position %d gave bucket %d, want %d", seed, op, i, got, want)
					}
				}
			}
		}
		for _, k := range []string{"insert", "rekey-up", "rekey-down", "rekey-same", "remove", "remove-absent", "pop"} {
			if kinds[k] == 0 {
				t.Fatalf("seed %d: no %s operation exercised", seed, k)
			}
		}
	}
}

// TestSentinelHeapMatchesBuckets pins the persistent sentinel heap to a
// from-scratch recomputation: at the start of every lazy step, after the
// stale sentinels were re-keyed, the heap must hold exactly the non-empty
// buckets, each at the priority its current state gives, and the running
// candidate total must equal the entries over all buckets. It runs on the
// bookkeeping cases: seeded pair-step workloads, write workloads with drop
// steps, an Approximate run, an Explain run and a Reconfig run.
func TestSentinelHeapMatchesBuckets(t *testing.T) {
	for _, tc := range bookkeepingCases(t) {
		res, calls := runHooked(t, tc, &sentinelHook, func(s *selector) string { return sentinelMismatch(s.lazy) })
		if calls < 2 || len(res.Steps) == 0 {
			t.Fatalf("%s: hook saw %d steps for a %d-step trace", tc.name, calls, len(res.Steps))
		}
	}
}

// sentinelMismatch compares the sentinel heap with the buckets it stands
// for, returning "" when they agree.
func sentinelMismatch(lz *lazyState) string {
	if msg := sentinelHeapMismatch(&lz.sent); msg != "" {
		return msg
	}
	if len(lz.dirtyList) != 0 || len(lz.staleList) != 0 {
		return fmt.Sprintf("%d dirty and %d stale buckets left after the re-key", len(lz.dirtyList), len(lz.staleList))
	}
	nonEmpty, total := 0, 0
	for b := range lz.buckets {
		n := len(lz.buckets[b].entries)
		total += n
		p := lz.sent.pos[b]
		if n == 0 {
			if p >= 0 {
				return fmt.Sprintf("empty bucket %d has a sentinel", b)
			}
			continue
		}
		nonEmpty++
		if p < 0 {
			return fmt.Sprintf("bucket %d with %d entries has no sentinel", b, n)
		}
		if got, want := lz.sent.items[p].prio, lz.sentinelPrio(b); got != want {
			return fmt.Sprintf("bucket %d sentinel at %v, recomputed %v", b, got, want)
		}
	}
	if lz.sent.len() != nonEmpty {
		return fmt.Sprintf("heap holds %d sentinels for %d non-empty buckets", lz.sent.len(), nonEmpty)
	}
	if lz.candidates != total {
		return fmt.Sprintf("running candidate total %d, buckets hold %d", lz.candidates, total)
	}
	return ""
}
