package core

import (
	"math"
	"slices"
	"sort"
	"testing"

	"repro/internal/fault"
	"repro/internal/whatif"
	"repro/internal/workload"
)

// runOracle is the test-only specification of Algorithm 1 that the
// production step loops are checked against. It shares no state or code
// path with the selector: no gain cache, no heap, no interning, no what-if
// facade. Every step re-derives every candidate from scratch against the raw
// cost source:
//
//   - a query's current cost is min(base, source cost of each selected
//     index), recomputed at every step;
//   - a candidate's gain is the per-query sum freq·(cur − new) in query-ID
//     order, minus the maintenance delta of the write templates, minus the
//     reconfiguration delta R(next) − R(current) under Options.Reconfig,
//     priced from the per-index terms c(k) (see core.Reconfig);
//   - its ratio is gain / Δmemory, ties broken by kind, then canonical key.
//
// It implements TopNSingle, PairSteps (with its own pair universe),
// DropUnused and TrackSecondBest; Budget bounds every step. The
// sums are taken in the same order the selector takes them, so step ratios
// must agree bit for bit; running totals (CostAfter) are summed in a
// different order and agree only to rounding. Result.Evaluated counts every
// candidate scored, the final round that finds no step included.
func runOracle(w *workload.Workload, src whatif.Source, opts Options) *Result {
	o := &oracle{w: w, src: src, opts: opts}
	for _, q := range w.Queries {
		if q.IsWrite() {
			o.writes = append(o.writes, q)
		}
	}
	o.initSingles()
	o.initPairs()
	res := &Result{InitialCost: o.total(nil)}
	for {
		o.refresh()
		cands := o.candidates()
		res.Evaluated += len(cands)
		var fit []oracleCand
		budgetExcluded := false
		for _, c := range cands {
			if c.gain <= 0 || c.dm <= 0 {
				continue
			}
			if o.mem+c.dm > opts.Budget {
				budgetExcluded = true
				continue
			}
			fit = append(fit, c)
		}
		if len(fit) == 0 {
			res.StopReason = fault.StopConverged
			if budgetExcluded {
				res.StopReason = fault.StopBudget
			}
			break
		}
		sort.Slice(fit, func(i, j int) bool { return fit[i].before(fit[j]) })
		best := fit[0]
		st := Step{
			Kind: best.kind, Index: best.index, Replaced: best.replaced,
			CostBefore: o.total(o.sel), MemBefore: o.mem,
			Ratio: best.ratio, Candidates: len(cands),
		}
		if opts.TrackSecondBest && len(fit) > 1 {
			st.RunnerUp = &Alternative{Kind: fit[1].kind, Index: fit[1].index, Ratio: fit[1].ratio}
		}
		o.sel = replace(o.sel, best.replaced, &best.index)
		o.refresh()
		st.CostAfter, st.MemAfter = o.total(o.sel), o.mem
		res.Steps = append(res.Steps, st)
		if opts.DropUnused {
			res.Steps = o.dropUnused(res.Steps)
		}
	}
	res.Selection = workload.NewSelection(o.sel...)
	res.Cost, res.Memory = o.total(o.sel), o.mem
	return res
}

type oracle struct {
	w       *workload.Workload
	src     whatif.Source
	opts    Options
	allowed map[int]bool // TopNSingle restriction; nil allows every attribute
	pairs   [][2]int
	writes  []workload.Query // the write templates in query-ID order

	sel []workload.Index // the current selection
	// refresh re-derives these from sel at every step.
	inSel workload.Selection
	cur   []float64 // per query: read cost under sel
	mem   int64
}

type oracleCand struct {
	kind     StepKind
	index    workload.Index
	replaced *workload.Index
	gain     float64
	dm       int64
	ratio    float64
}

// before is the step order: higher ratio, then lower kind, then lower key.
func (a oracleCand) before(b oracleCand) bool {
	if a.ratio != b.ratio {
		return a.ratio > b.ratio
	}
	if a.kind != b.kind {
		return a.kind < b.kind
	}
	return workload.CompareIndexKeys(a.index, b.index) < 0
}

// refresh recomputes every query's current cost and the selection's memory
// from the source.
func (o *oracle) refresh() {
	o.inSel = workload.NewSelection(o.sel...)
	o.cur = make([]float64, len(o.w.Queries))
	for _, q := range o.w.Queries {
		o.cur[q.ID] = o.readCost(q, o.sel)
	}
	o.mem = 0
	for _, k := range o.sel {
		o.mem += o.src.IndexSize(k)
	}
}

// readCost is f_j under sel: the cheapest of the base cost and the
// single-index cost of every selected index that can serve q.
func (o *oracle) readCost(q workload.Query, sel []workload.Index) float64 {
	return o.readCostAfter(q, sel, nil, nil)
}

// readCostAfter is readCost under sel with drop removed and add added
// (either may be nil), without materializing that selection.
func (o *oracle) readCostAfter(q workload.Query, sel []workload.Index, drop, add *workload.Index) float64 {
	c := o.src.BaseCost(q)
	try := func(k workload.Index) {
		if workload.Applicable(q, k) {
			if v := o.src.CostWithIndex(q, k); v < c {
				c = v
			}
		}
	}
	for _, k := range sel {
		if drop == nil || !sameIndex(k, *drop) {
			try(k)
		}
	}
	if add != nil {
		try(*add)
	}
	return c
}

// maint is the frequency-weighted maintenance every write template imposes
// on k, summed in query-ID order.
func (o *oracle) maint(k workload.Index) float64 {
	var m float64
	for _, q := range o.writes {
		m += float64(q.Freq) * o.src.MaintenanceCost(q, k)
	}
	return m
}

// create is k's term c(k) of R: the per-byte rate times k's size, 0 when k
// is deployed.
func (o *oracle) create(k workload.Index) float64 {
	if o.opts.Reconfig.Deployed.Has(k) {
		return 0
	}
	return o.opts.Reconfig.CreatePerByte * float64(o.src.IndexSize(k))
}

// reconfig is R(sel): the per-byte rate times the bytes of sel outside the
// deployed set.
func (o *oracle) reconfig(sel []workload.Index) float64 {
	var created int64
	for _, k := range sel {
		if !o.opts.Reconfig.Deployed.Has(k) {
			created += o.src.IndexSize(k)
		}
	}
	return o.opts.Reconfig.CreatePerByte * float64(created)
}

// total is F(I) + maintenance + R(I) of selection sel.
func (o *oracle) total(sel []workload.Index) float64 {
	var f float64
	for _, q := range o.w.Queries {
		f += float64(q.Freq) * o.readCost(q, sel)
	}
	for _, k := range sel {
		f += o.maint(k)
	}
	return f + o.reconfig(sel)
}

// replace returns sel without drop (if non-nil) and with add (if non-nil).
func replace(sel []workload.Index, drop, add *workload.Index) []workload.Index {
	out := make([]workload.Index, 0, len(sel)+1)
	for _, k := range sel {
		if drop == nil || !sameIndex(k, *drop) {
			out = append(out, k)
		}
	}
	if add != nil {
		out = append(out, *add)
	}
	return out
}

func sameIndex(a, b workload.Index) bool {
	return a.Table == b.Table && slices.Equal(a.Attrs, b.Attrs)
}

// readers reports whether some read template accesses attribute a.
func (o *oracle) readers(a int) bool {
	for i := range o.w.Queries {
		if q := &o.w.Queries[i]; q.Kind != workload.Insert && q.Accesses(a) {
			return true
		}
	}
	return false
}

// initSingles applies Remark 1.1: rank single-attribute indexes by their
// read gain over the empty selection per byte, keep the best TopNSingle.
func (o *oracle) initSingles() {
	if o.opts.TopNSingle <= 0 {
		return
	}
	type ranked struct {
		attr  int
		ratio float64
	}
	var all []ranked
	for _, a := range o.w.Attrs() {
		k := workload.Index{Table: a.Table, Attrs: []int{a.ID}}
		var gain float64
		for _, q := range o.w.Queries {
			if !workload.Applicable(q, k) {
				continue
			}
			if base, c := o.src.BaseCost(q), o.src.CostWithIndex(q, k); c < base {
				gain += float64(q.Freq) * (base - c)
			}
		}
		if sz := o.src.IndexSize(k); sz > 0 && gain > 0 {
			all = append(all, ranked{a.ID, gain / float64(sz)})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].ratio != all[j].ratio {
			return all[i].ratio > all[j].ratio
		}
		return all[i].attr < all[j].attr
	})
	o.allowed = map[int]bool{}
	for i := 0; i < len(all) && i < o.opts.TopNSingle; i++ {
		o.allowed[all[i].attr] = true
	}
}

// initPairs builds Remark 1.4's pair universe: the PairLimit heaviest
// co-occurring attribute pairs (by template frequency), in both orders.
func (o *oracle) initPairs() {
	if !o.opts.PairSteps {
		return
	}
	limit := o.opts.PairLimit
	if limit <= 0 {
		limit = 200
	}
	weight := map[[2]int]int64{}
	for _, q := range o.w.Queries {
		for i := range q.Attrs {
			for j := i + 1; j < len(q.Attrs); j++ {
				weight[[2]int{q.Attrs[i], q.Attrs[j]}] += q.Freq
			}
		}
	}
	var ps [][2]int
	for p := range weight {
		ps = append(ps, p)
	}
	sort.Slice(ps, func(i, j int) bool {
		if wi, wj := weight[ps[i]], weight[ps[j]]; wi != wj {
			return wi > wj
		}
		if ps[i][0] != ps[j][0] {
			return ps[i][0] < ps[j][0]
		}
		return ps[i][1] < ps[j][1]
	})
	if len(ps) > limit {
		ps = ps[:limit]
	}
	for _, p := range ps {
		o.pairs = append(o.pairs, p, [2]int{p[1], p[0]})
	}
}

// candidates enumerates and scores every construction step from the current
// selection: new single-attribute indexes (3a), one-attribute extensions
// (3b), and under PairSteps new pairs and pair extensions.
func (o *oracle) candidates() []oracleCand {
	var out []oracleCand
	seen := map[string]bool{}
	add := func(kind StepKind, idx workload.Index, replaced *workload.Index) {
		if o.inSel.Has(idx) {
			return
		}
		id := kind.String() + "/" + idx.Key()
		if seen[id] {
			return
		}
		seen[id] = true
		out = append(out, o.score(kind, idx, replaced))
	}
	for _, a := range o.w.Attrs() {
		if (o.allowed == nil || o.allowed[a.ID]) && o.readers(a.ID) {
			add(StepNewIndex, workload.Index{Table: a.Table, Attrs: []int{a.ID}}, nil)
		}
	}
	for _, k := range o.sel {
		for _, a := range o.w.Tables[k.Table].Attrs {
			if !k.Contains(a) {
				add(StepExtend, k.Append(a), &k)
			}
		}
	}
	for _, p := range o.pairs {
		table := o.w.TableOf(p[0])
		add(StepNewPair, workload.Index{Table: table, Attrs: []int{p[0], p[1]}}, nil)
		for _, k := range o.sel {
			if k.Table == table && !k.Contains(p[0]) && !k.Contains(p[1]) {
				add(StepExtendPair, k.Append(p[0]).Append(p[1]), &k)
			}
		}
	}
	return out
}

// score evaluates one candidate step against the whole next selection.
// Queries the candidate cannot serve keep their cost under both selections
// (the replaced index shares the candidate's leading attribute), so their
// zero terms are skipped.
func (o *oracle) score(kind StepKind, idx workload.Index, replaced *workload.Index) oracleCand {
	var gain float64
	for i := range o.w.Queries {
		if q := &o.w.Queries[i]; workload.Applicable(*q, idx) {
			gain += float64(q.Freq) * (o.cur[q.ID] - o.readCostAfter(*q, o.sel, replaced, &idx))
		}
	}
	dMaint := o.maint(idx)
	dm := o.src.IndexSize(idx)
	if replaced != nil {
		dMaint -= o.maint(*replaced)
		dm -= o.src.IndexSize(*replaced)
	}
	gain -= dMaint
	if o.opts.Reconfig.CreatePerByte != 0 {
		dR := o.create(idx)
		if replaced != nil {
			dR -= o.create(*replaced)
		}
		gain -= dR
	}
	return oracleCand{kind: kind, index: idx, replaced: replaced, gain: gain, dm: dm, ratio: gain / float64(dm)}
}

// dropUnused applies Remark 1.2 until nothing changes: in canonical key
// order, evict every index whose removal raises the read cost by no more
// than the maintenance it saves.
func (o *oracle) dropUnused(steps []Step) []Step {
	for changed := true; changed; {
		changed = false
		sorted := append([]workload.Index(nil), o.sel...)
		sort.Slice(sorted, func(i, j int) bool { return workload.CompareIndexKeys(sorted[i], sorted[j]) < 0 })
		for _, k := range sorted {
			var readDelta float64
			for i := range o.w.Queries {
				if q := &o.w.Queries[i]; workload.Applicable(*q, k) {
					readDelta += float64(q.Freq) * (o.readCostAfter(*q, o.sel, &k, nil) - o.cur[q.ID])
				}
			}
			if readDelta > o.maint(k)+1e-9 {
				continue
			}
			st := Step{Kind: StepDrop, Index: k, CostBefore: o.total(o.sel), MemBefore: o.mem}
			o.sel = replace(o.sel, &k, nil)
			o.refresh()
			st.CostAfter, st.MemAfter = o.total(o.sel), o.mem
			steps = append(steps, st)
			changed = true
		}
	}
	return steps
}

// matchOracle asserts that a production run reproduces the oracle's trace:
// per step the same kind, index, replaced index, MemAfter, Candidates,
// runner-up and Ratio bits, CostAfter to 1e-9 relative; then the same final
// selection and StopReason. It also checks the production run's candidate
// accounting adds up.
func matchOracle(t *testing.T, label string, want, got *Result) {
	t.Helper()
	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b)) }
	if !near(want.InitialCost, got.InitialCost) {
		t.Errorf("%s: initial cost %v (oracle) vs %v", label, want.InitialCost, got.InitialCost)
	}
	n := len(want.Steps)
	if len(got.Steps) != n {
		t.Errorf("%s: %d steps (oracle) vs %d", label, n, len(got.Steps))
		if len(got.Steps) < n {
			n = len(got.Steps)
		}
	}
	for i := 0; i < n; i++ {
		x, y := want.Steps[i], got.Steps[i]
		if x.Kind != y.Kind || x.Index.Key() != y.Index.Key() {
			t.Fatalf("%s: step %d is %v %v (oracle) vs %v %v", label, i, x.Kind, x.Index, y.Kind, y.Index)
		}
		if (x.Replaced == nil) != (y.Replaced == nil) || (x.Replaced != nil && x.Replaced.Key() != y.Replaced.Key()) {
			t.Errorf("%s: step %d replaced %v (oracle) vs %v", label, i, x.Replaced, y.Replaced)
		}
		if math.Float64bits(x.Ratio) != math.Float64bits(y.Ratio) {
			t.Errorf("%s: step %d ratio %v (oracle) vs %v", label, i, x.Ratio, y.Ratio)
		}
		if x.MemAfter != y.MemAfter || x.Candidates != y.Candidates {
			t.Errorf("%s: step %d mem/candidates %d/%d (oracle) vs %d/%d",
				label, i, x.MemAfter, x.Candidates, y.MemAfter, y.Candidates)
		}
		if !near(x.CostAfter, y.CostAfter) {
			t.Errorf("%s: step %d cost after %v (oracle) vs %v", label, i, x.CostAfter, y.CostAfter)
		}
		if (x.RunnerUp == nil) != (y.RunnerUp == nil) {
			t.Errorf("%s: step %d runner-up %+v (oracle) vs %+v", label, i, x.RunnerUp, y.RunnerUp)
		} else if x.RunnerUp != nil && (x.RunnerUp.Kind != y.RunnerUp.Kind ||
			x.RunnerUp.Index.Key() != y.RunnerUp.Index.Key() ||
			math.Float64bits(x.RunnerUp.Ratio) != math.Float64bits(y.RunnerUp.Ratio)) {
			t.Errorf("%s: step %d runner-up %+v (oracle) vs %+v", label, i, *x.RunnerUp, *y.RunnerUp)
		}
		if y.Candidates != y.Evaluated+y.CacheServed+y.Pruned {
			t.Errorf("%s: step %d accounting %d != %d+%d+%d",
				label, i, y.Candidates, y.Evaluated, y.CacheServed, y.Pruned)
		}
	}
	if want.StopReason != got.StopReason {
		t.Errorf("%s: stop reason %v (oracle) vs %v", label, want.StopReason, got.StopReason)
	}
	if want.Memory != got.Memory || !near(want.Cost, got.Cost) {
		t.Errorf("%s: final (%v, %d) (oracle) vs (%v, %d)", label, want.Cost, want.Memory, got.Cost, got.Memory)
	}
	if len(want.Selection) != len(got.Selection) {
		t.Errorf("%s: final selection has %d indexes (oracle) vs %d", label, len(want.Selection), len(got.Selection))
	}
	for key := range want.Selection {
		if _, ok := got.Selection[key]; !ok {
			t.Errorf("%s: oracle selects %s, production does not", label, key)
		}
	}
}
