// Lazy-greedy (CELF) step loop. Instead of re-evaluating every candidate
// each construction step, the selector keeps one persistent entry per candidate carrying the outcome of
// its last evaluation plus enough bookkeeping to derive a SOUND upper bound
// on its current benefit/memory ratio, and each step pops candidates from a
// max-heap of those bounds, re-evaluating only until the best remaining
// bound cannot beat the decided winner.
//
// Plain CELF assumes submodularity: a stale gain is itself an upper bound.
// That does NOT hold here — two effects can RAISE a candidate's gain after
// other steps: (a) applying or dropping an index can increase a query's
// current cost (extensions can degrade short queries, removals always can),
// which increases what any candidate covering that query has left to win;
// (b) an extension candidate's gain includes the loss of removing its base
// index, and that loss shrinks when another index starts serving the same
// queries. The loop therefore bounds with two sound ingredients instead of
// the raw stale gain:
//
//   - optGain, the optimistic surrogate recorded at evaluation time:
//     sum_q freq * (cost[q] - cand_q)^+ - maintDelta. For new-index kinds it
//     equals the gain; for extension kinds it dominates the gain because the
//     per-query gain is old - min(alt, ext) with alt >= old (effect (b) can
//     only close the gap between gain and optGain, never push the gain above
//     it).
//   - rise[b], a per-lead-attribute accumulator of freq-weighted NET cost
//     increases of co-occurring queries. optGain is 1-Lipschitz in each
//     query cost, so optGain(now) <= optGain(then) + (rise_now - rise_then)
//     covers effect (a).
//
// The memory delta of a candidate is constant while its base stays selected
// (sizes, maintenance and the reconfiguration delta of Options.Reconfig are
// selection-independent), and candidates whose
// base was unselected or that entered the selection die in the per-step
// universe rebuild, so
//
//	bound(e) = (optGain_e + rise[b] - riseAt_e + slack[b]) / deltaMem_e
//
// is an upper bound on e's current ratio. slack[b] is an absolute numerator
// cushion of 1e-9 times the bucket's total freq-weighted base cost — about
// four orders of magnitude above the worst-case accumulated float64 rounding
// of the sums involved, and harmless for pruning because gains that small are
// noise — which keeps the bound sound under floating-point arithmetic, not
// just on paper. That is what makes exact mode EXACT: the loop only ever
// skips candidates whose true ratio provably cannot beat (or tie) the
// winner, so the decided step, runner-up, and stop reason are bit-identical
// to those of evaluating every candidate.
//
// Reconfiguration (Options.Reconfig) enters as a per-candidate constant dr,
// the change in R the step would cause; evaluation subtracts it from gain
// and optGain alike, so it never needs a per-bucket credit. A large dr (a
// steep per-byte rate) makes those sums round at dr's magnitude, which the
// base-cost slack does not cover, so optGain also carries reconSlack(dr), the
// same 1e-9 relative cushion taken of |dr|.
//
// On top of the entry heap sits one sentinel per lead-attribute bucket:
// buckets keep an aggregate bound (max entry bound at a recorded rise level,
// plus the bucket's minimum memory delta to convert future rise into ratio),
// so a bucket whose aggregate cannot beat the winner costs one heap node per
// step — its entries are never touched, no evalTask is rebuilt. The
// sentinels live in a persistent indexed heap; a step re-keys only the
// buckets on its stale list (rebuilt, opened, or whose rise grew), so the
// bookkeeping per step scales with what the step touched, not with the
// number of buckets.
//
// Universe maintenance exploits that a step's candidate-set changes are
// confined to the applied (or dropped) index's lead bucket: extensions of
// the new index appear, extensions of the replaced one die, replaced singles
// resurface. Only that bucket is re-enumerated ("dirty"); every other
// bucket's entry list is reused as-is. Exactness of surviving entries is
// tracked by two per-bucket epochs, split by step kind: extEpoch (served[]
// changed in a co-occurring query) governs extension entries, which read
// served[]; newEpoch (a co-occurring query's cost net-changed) governs
// new-index entries, which are pure functions of cost[]. An entry whose epoch
// still matches is served from cache without re-evaluation.
//
// Determinism: the heaps are built and consumed serially with fixed
// tie-breaks (sentinels by bucket, entries by push order, a sentinel before
// an entry of equal priority), and stale candidates are re-evaluated in
// constant-size batches (lazyBatchSize, independent of the worker count) on
// the PR-1 worker pool, so the set of evaluated candidates — and with it the
// whole trace and the Step accounting — is identical at every Parallelism.
// The stop rule is strict (top bound < threshold): candidates whose bound
// ties the winner are still evaluated so tie-breaks match an evaluation of
// every candidate. Options.Approximate relaxes only this cut to threshold*(1+eps),
// trading exactness of the step choice (within a (1+eps) ratio factor) for
// fewer evaluations.
package core

import (
	"math"
	"slices"
	"sort"

	"repro/internal/explain"
	"repro/internal/fault"
	"repro/internal/workload"
)

// lazyBatchSize is the number of stale candidates re-evaluated per worker-pool
// dispatch. A constant — never derived from the worker count — so the set of
// candidates evaluated before the stop threshold is reached is identical at
// every Parallelism.
const lazyBatchSize = 64

// lazyBoundSlackRel scales each bucket's total freq-weighted base cost into
// the absolute numerator slack added to every stale bound. See the package
// comment for the sizing argument.
const lazyBoundSlackRel = 1e-9

// lazyEntry is the persistent per-candidate record.
type lazyEntry struct {
	key  gainKey
	task evalTask
	lead int32

	evaluated bool // the fields below hold a recorded evaluation
	dead      bool // deltaMem <= 0 at evaluation: can never become viable
	viable    bool // gain > 0 && deltaMem > 0 at last evaluation
	cand      candidate
	optGain   float64 // optimistic surrogate gain at evaluation time
	dmf       float64 // deltaMem (constant while the candidate stays valid)
	riseAt    float64 // rise[lead] at evaluation time
	epochAt   uint64  // kind-appropriate bucket epoch at evaluation time
}

// lazyBucket holds one lead attribute's candidates and aggregate bound.
type lazyBucket struct {
	entries  []*lazyEntry // deterministic rebuild order
	byKey    map[gainKey]*lazyEntry
	unevaled int // entries never evaluated (bound +Inf: bucket must open)

	// Aggregate bound: max entry bound recorded at rise level aggRiseAt,
	// with minDM converting rise growth since then into ratio growth. Sound
	// for any later rise because every live entry satisfied
	// bound(e) <= agg at aggRiseAt and has dmf >= minDM.
	agg       float64
	aggRiseAt float64
	minDM     float64
	hasAgg    bool
}

// lazyState is the selector's CELF machinery, indexed by lead attribute.
type lazyState struct {
	extEpoch []uint64  // bumped when served[]/cost of a co-occurring query changed
	newEpoch []uint64  // bumped when a co-occurring query's cost net-changed
	rise     []float64 // accumulated freq-weighted net cost increases
	slack    []float64 // absolute numerator slack per bucket
	buckets  []lazyBucket

	// dirty marks buckets whose universe must be re-enumerated before the
	// next step, listed once each in dirtyList; stale and staleList do the
	// same for buckets whose sentinel must be re-keyed.
	dirty     []bool
	dirtyList []int32
	stale     []bool
	staleList []int32

	candidates int // total entries over all buckets (Step.Candidates)

	sent   sentinelHeap // one sentinel per non-empty bucket, across steps
	heap   lazyHeap     // the current step's entry items
	opened []int32      // buckets opened during the current step (scratch)

	// collectLazy's evaluation batch buffers, lazyBatchSize long and reused
	// across steps.
	batch   []*lazyEntry
	tasks   []evalTask
	results []gainEntry
	pending []int
}

// lazyAuditInfo is what lazyAuditHook (tests only) receives for every
// candidate after a step decision: the bound the loop would price it at and
// a from-scratch evaluation against the same frozen state.
type lazyAuditInfo struct {
	task   evalTask
	bound  float64
	exact  bool // the entry's epoch matched (served from cache)
	cached gainEntry
	fresh  gainEntry
}

// sentinelHook, when non-nil, receives the selector at the start of every
// lazy step, right after the stale sentinels were re-keyed. Test
// instrumentation for the sentinel heap; nil in production.
var sentinelHook func(*selector)

// lazyAuditHook, when non-nil, makes collectLazy re-evaluate EVERY candidate
// after deciding a step and report bound-vs-fresh pairs — including for
// candidates the bounds pruned. Test instrumentation for the soundness
// property; nil in production.
var lazyAuditHook func(lazyAuditInfo)

func newLazyState(s *selector) *lazyState {
	n := s.w.NumAttrs()
	lz := &lazyState{
		extEpoch: make([]uint64, n),
		newEpoch: make([]uint64, n),
		rise:     make([]float64, n),
		slack:    make([]float64, n),
		buckets:  make([]lazyBucket, n),
		dirty:    make([]bool, n),
		stale:    make([]bool, n),
		sent:     newSentinelHeap(n),
		batch:    make([]*lazyEntry, 0, lazyBatchSize),
		tasks:    make([]evalTask, lazyBatchSize),
		results:  make([]gainEntry, lazyBatchSize),
		pending:  make([]int, lazyBatchSize),
	}
	for b := range lz.dirty {
		lz.markDirty(b) // first step enumerates (and evaluates) everything
	}
	for b, qs := range s.queriesWith {
		var wgt float64
		for _, qid := range qs {
			wgt += float64(s.w.Queries[qid].Freq) * s.base[qid]
		}
		lz.slack[b] = lazyBoundSlackRel * wgt
	}
	return lz
}

// epoch returns the bucket epoch governing entries of the given step kind.
func (lz *lazyState) epoch(kind StepKind, b int) uint64 {
	if kind == StepNewIndex || kind == StepNewPair {
		return lz.newEpoch[b]
	}
	return lz.extEpoch[b]
}

// markDirty queues bucket b for re-enumeration before the next step.
func (lz *lazyState) markDirty(b int) {
	if !lz.dirty[b] {
		lz.dirty[b] = true
		lz.dirtyList = append(lz.dirtyList, int32(b))
	}
}

// markStale queues bucket b's sentinel for re-keying before the next step.
// Every input of sentinelPrio changes only where a bucket is marked: its
// entries and unevaled count in rebuildBucket, its unevaled count and
// aggregate when it is opened, its rise in noteMutation.
func (lz *lazyState) markStale(b int) {
	if !lz.stale[b] {
		lz.stale[b] = true
		lz.staleList = append(lz.staleList, int32(b))
	}
}

// sentinelPrio is bucket b's sentinel priority: +Inf while any entry is
// unevaluated (the bucket must open), else its aggregate bound lifted by the
// rise since the aggregate was recorded.
func (lz *lazyState) sentinelPrio(b int) float64 {
	bk := &lz.buckets[b]
	if bk.unevaled > 0 || !bk.hasAgg {
		return math.Inf(1)
	}
	return bk.agg + (lz.rise[b]-bk.aggRiseAt)/bk.minDM
}

// rekey brings the stale buckets' sentinels up to date: an empty bucket has
// none, any other is inserted or re-keyed at its current priority.
func (lz *lazyState) rekey() {
	for _, b := range lz.staleList {
		lz.stale[b] = false
		if len(lz.buckets[b].entries) == 0 {
			lz.sent.remove(b)
		} else {
			lz.sent.set(b, lz.sentinelPrio(int(b)))
		}
	}
	lz.staleList = lz.staleList[:0]
}

// entryBound is the sound stale upper bound on e's current ratio.
func (lz *lazyState) entryBound(e *lazyEntry) float64 {
	b := e.lead
	return (e.optGain + (lz.rise[b] - e.riseAt) + lz.slack[b]) / e.dmf
}

// noteMutation is mutateStep's lazy arm: translate one applied/dropped
// step's net per-query cost movement into epoch bumps and rise accumulation,
// mark the mutated lead bucket's universe dirty and every bucket whose rise
// grew stale.
func (lz *lazyState) noteMutation(s *selector, lead int, snap []float64) {
	lz.markDirty(lead)
	for i, qid := range s.queriesWith[lead] {
		q := s.w.Queries[qid]
		old, now := snap[i], s.cost[qid]
		var riseDelta float64
		if now > old {
			riseDelta = float64(q.Freq) * (now - old)
		}
		for _, a := range q.Attrs {
			lz.extEpoch[a]++
			if now != old {
				lz.newEpoch[a]++
				if riseDelta > 0 {
					lz.rise[a] += riseDelta
					lz.markStale(a)
				}
			}
		}
	}
}

// rebuildBucket re-enumerates bucket b's candidate universe, reusing the
// surviving entries (with their recorded evaluations — the epoch check
// decides whether those are still exact) and creating unevaluated entries
// for newcomers. Serial phase: interning is allowed here.
func (s *selector) rebuildBucket(b int) {
	lz := s.lazy
	bk := &lz.buckets[b]
	old := bk.byKey
	lz.candidates -= len(bk.entries)
	bk.entries = bk.entries[:0]
	bk.byKey = make(map[gainKey]*lazyEntry, len(old)+1)
	add := func(t evalTask) {
		key := gainKey{t.kind, t.id}
		if _, dup := bk.byKey[key]; dup {
			return
		}
		e, ok := old[key]
		if !ok {
			e = &lazyEntry{key: key, task: t, lead: int32(b)}
		}
		bk.entries = append(bk.entries, e)
		bk.byKey[key] = e
	}

	// Step (3a): the bucket's single-attribute index.
	if len(s.singles[b].Attrs) > 0 && len(s.queriesWith[b]) > 0 &&
		(s.singleAllowed == nil || s.singleAllowed[b]) && !s.sel.Has(s.singleIDs[b]) {
		add(evalTask{kind: StepNewIndex, index: s.singles[b], id: s.singleIDs[b]})
	}

	// Step (3b): one-attribute extensions of selected indexes leading with b.
	sel := s.byLead[b]
	for _, e := range sel {
		for _, a := range s.w.Tables[e.k.Table].Attrs {
			if e.k.Contains(a) {
				continue
			}
			ext := e.k.Append(a)
			extID := s.in.Intern(ext)
			if s.sel.Has(extID) {
				continue
			}
			add(evalTask{kind: StepExtend, index: ext, id: extID, base: e.k, baseID: e.id, hasBase: true})
		}
	}

	if s.opts.PairSteps {
		for _, p := range s.pairUniverse() {
			if p[0] == b {
				idx := workload.Index{Table: s.w.TableOf(p[0]), Attrs: []int{p[0], p[1]}}
				id := s.in.Intern(idx)
				if !s.sel.Has(id) {
					add(evalTask{kind: StepNewPair, index: idx, id: id})
				}
			}
			for _, e := range sel {
				if e.k.Table != s.w.TableOf(p[0]) ||
					e.k.Contains(p[0]) || e.k.Contains(p[1]) {
					continue
				}
				ext := e.k.Append(p[0]).Append(p[1])
				extID := s.in.Intern(ext)
				if s.sel.Has(extID) {
					continue
				}
				add(evalTask{kind: StepExtendPair, index: ext, id: extID, base: e.k, baseID: e.id, hasBase: true})
			}
		}
	}

	bk.unevaled = 0
	for _, e := range bk.entries {
		if !e.evaluated {
			bk.unevaled++
		}
	}
	lz.candidates += len(bk.entries)
	lz.markStale(b)
	// The surviving aggregate (if any) is still sound: dropped entries only
	// removed constraints, and newcomers force the +Inf sentinel via
	// unevaled anyway.
}

// recordLazy stores a fresh evaluation into its entry.
func (s *selector) recordLazy(e *lazyEntry, r gainEntry) {
	lz := s.lazy
	b := int(e.lead)
	if !e.evaluated {
		lz.buckets[b].unevaled--
	}
	e.evaluated = true
	e.viable = r.ok
	e.cand = r.c
	e.optGain = r.optGain
	if r.dm <= 0 {
		e.dead = true
	} else {
		e.dmf = float64(r.dm)
	}
	e.riseAt = lz.rise[b]
	e.epochAt = lz.epoch(e.key.kind, b)
}

// refreshAgg recomputes bucket b's aggregate bound from its entries' current
// stale-form bounds. Called at the end of a step for every opened bucket,
// while all its entries hold fresh-or-exact evaluations.
func (lz *lazyState) refreshAgg(b int) {
	bk := &lz.buckets[b]
	agg, minDM := math.Inf(-1), math.Inf(1)
	for _, e := range bk.entries {
		if !e.evaluated || e.dead {
			continue
		}
		if bnd := lz.entryBound(e); bnd > agg {
			agg = bnd
		}
		if e.dmf < minDM {
			minDM = e.dmf
		}
	}
	bk.agg, bk.aggRiseAt, bk.minDM, bk.hasAgg = agg, lz.rise[b], minDM, true
}

// collectLazy decides one construction step: the best viable candidate
// within budget (and the runner-up), bit-identical in exact mode to
// evaluating every candidate, but (re)evaluating only those whose bounds
// reach the evolving threshold. The reduction is serial over a fixed pop
// order with the deterministic better() tie-break, so the decision is the
// same at every Parallelism.
//
// If the stopper fires while the step is being evaluated, the whole in-flight
// step is discarded (ok=false, stopReason set): applying a step decided over
// partially evaluated candidates would break the bit-identical-prefix
// guarantee. A worker panic surfaces as a non-nil err.
func (s *selector) collectLazy() (best, second candidate, haveSecond, ok bool, err error) {
	lz := s.lazy

	// Serial phase: refresh dirty bucket universes in bucket order (which
	// fixes the interning order), cover any freshly interned IDs before
	// workers may touch the flat tables, then re-key the stale sentinels.
	slices.Sort(lz.dirtyList)
	for _, b := range lz.dirtyList {
		s.rebuildBucket(int(b))
		lz.dirty[b] = false
	}
	lz.dirtyList = lz.dirtyList[:0]
	s.ensure()
	lz.rekey()
	if sentinelHook != nil {
		sentinelHook(s)
	}

	total := lz.candidates
	lz.heap.reset()
	// depth is the step's peak count of remaining sentinels plus pushed
	// entries (the indexsel_lazy_heap_depth gauge).
	depth := lz.sent.len()

	evaluated, cached := 0, 0
	budgetExcluded, approxCut, stopped := false, false, false

	reduce := func(c candidate) {
		if s.mem+c.deltaMem > s.opts.Budget {
			budgetExcluded = true
			return
		}
		if !ok || better(c, best) {
			if ok {
				second, haveSecond = best, true
			}
			best, ok = c, true
		} else if !haveSecond || better(c, second) {
			second, haveSecond = c, true
		}
	}
	// threshold is the ratio the top bound must reach for further evaluation
	// to be able to change the step's outcome. Without a winner — or without
	// a runner-up when one must be reported — there is no sound cut yet.
	threshold := func() (float64, bool) {
		if !ok || (s.opts.TrackSecondBest && !haveSecond) {
			return 0, false
		}
		if s.opts.TrackSecondBest {
			return second.ratio, true
		}
		return best.ratio, true
	}

	batch, tasks, results, pending := lz.batch[:0], lz.tasks, lz.results, lz.pending
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		n := len(batch)
		for i, e := range batch {
			tasks[i] = e.task
			pending[i] = i
		}
		if err := s.evalPending(tasks[:n], results[:n], pending[:n]); err != nil {
			return err
		}
		if r := s.stop.Check(); r != fault.StopNone {
			// Workers drained; results may be incomplete. Discard the step,
			// leaving the entries' previous (still sound) state untouched.
			s.stopReason = r
			stopped = true
			return nil
		}
		evaluated += n
		for i, e := range batch {
			s.recordLazy(e, results[i])
			if results[i].ok {
				reduce(results[i].c)
			}
		}
		batch = batch[:0]
		return nil
	}

	// Pop the best of both heaps by priority; on a tie the sentinel goes
	// first, as if every sentinel had been pushed before every entry.
	lz.opened = lz.opened[:0]
	for lz.sent.len() > 0 || lz.heap.len() > 0 {
		fromSent := lz.heap.len() == 0 ||
			(lz.sent.len() > 0 && lz.sent.peekPrio() >= lz.heap.peekPrio())
		var top float64
		if fromSent {
			top = lz.sent.peekPrio()
		} else {
			top = lz.heap.peekPrio()
		}
		if t, have := threshold(); have {
			cut := t
			if s.opts.Approximate > 0 {
				cut = t * (1 + s.opts.Approximate)
			}
			if top < cut {
				approxCut = top >= t // only reachable with Approximate > 0
				break
			}
		}
		if fromSent {
			// Bucket sentinel: open the bucket, pricing each entry. Opening
			// moves its unevaled count and aggregate, so it is re-keyed
			// before the next step.
			b := lz.sent.pop()
			lz.opened = append(lz.opened, b)
			lz.markStale(int(b))
			for _, e := range lz.buckets[b].entries {
				switch {
				case !e.evaluated:
					lz.heap.push(math.Inf(1), e)
				case e.dead:
					cached++ // known non-viable forever, no recomputation
				case lz.epoch(e.key.kind, int(b)) == e.epochAt:
					cached++ // exact: the recorded evaluation still holds
					if e.viable {
						lz.heap.push(e.cand.ratio, e)
					}
				default:
					lz.heap.push(lz.entryBound(e), e)
				}
			}
			if d := lz.sent.len() + lz.heap.len(); d > depth {
				depth = d
			}
			continue
		}
		e := lz.heap.pop().entry
		if e.evaluated && !e.dead && lz.epoch(e.key.kind, int(e.lead)) == e.epochAt {
			reduce(e.cand) // exact entries were pushed only when viable
			continue
		}
		batch = append(batch, e)
		if len(batch) == lazyBatchSize {
			if err := flush(); err != nil {
				return candidate{}, candidate{}, false, false, err
			}
			if stopped {
				return candidate{}, candidate{}, false, false, nil
			}
		}
	}
	if err := flush(); err != nil {
		return candidate{}, candidate{}, false, false, err
	}
	if !stopped {
		if r := s.stop.Check(); r != fault.StopNone {
			s.stopReason = r
			stopped = true
		}
	}
	if stopped {
		return candidate{}, candidate{}, false, false, nil
	}

	for _, b := range lz.opened {
		lz.refreshAgg(int(b))
	}

	s.lastCandidates, s.lastEvaluated = total, evaluated
	s.lastCached, s.lastPruned = cached, total-evaluated-cached
	s.totalEvaluated += evaluated
	s.totalCached += cached
	s.totalPruned += s.lastPruned
	mLazyEvalsSaved.Add(int64(s.lastPruned))
	mLazyHeapDepth.Set(float64(depth))
	if approxCut {
		mLazyApproxSteps.Inc()
	}
	if s.opts.Explain && ok {
		lz.captureLedger(s)
	}

	if lazyAuditHook != nil {
		s.auditLazyStep()
	}

	if !ok {
		// Nothing viable in budget. No threshold ever existed, so every
		// bucket was opened and every entry consulted or evaluated — the
		// budget-exclusion verdict is exactly that of evaluating everything.
		if budgetExcluded {
			s.stopReason = fault.StopBudget
		} else {
			s.stopReason = fault.StopConverged
		}
	}
	return best, second, haveSecond, ok, nil
}

// captureLedger builds the decided step's prune ledger from the heap items
// the cut left behind: a remaining bucket sentinel means the whole bucket
// was pruned by its aggregate bound without being opened; a remaining entry
// item is an individually pruned stale candidate (exact entries left on the
// heap were already counted cache-served and are excluded). The ledger's
// Skipped total therefore equals the step's Pruned count exactly. Read-only
// over both heaps; runs only under Options.Explain, after the decision is
// final — it cannot perturb the trace.
func (lz *lazyState) captureLedger(s *selector) {
	bkts := make(map[int32]*explain.PrunedBucket)
	order := make([]int32, 0, 16)
	skipped := 0
	for _, it := range lz.sent.items {
		b := it.bucket
		n := len(lz.buckets[b].entries)
		bkts[b] = &explain.PrunedBucket{
			Lead:    int(b),
			Bound:   it.prio,
			Epoch:   lz.extEpoch[b],
			Entries: n,
			Skipped: n,
		}
		order = append(order, b)
		skipped += n
	}
	for _, it := range lz.heap.items {
		e := it.entry
		if e.evaluated && !e.dead && lz.epoch(e.key.kind, int(e.lead)) == e.epochAt {
			continue // exact: counted cache-served at bucket open
		}
		pb, okb := bkts[e.lead]
		if !okb {
			pb = &explain.PrunedBucket{
				Lead:    int(e.lead),
				Bound:   math.Inf(-1),
				Epoch:   lz.extEpoch[e.lead],
				Entries: len(lz.buckets[e.lead].entries),
				Opened:  true,
			}
			bkts[e.lead] = pb
			order = append(order, e.lead)
		}
		pb.Skipped++
		if it.prio > pb.Bound {
			pb.Bound = it.prio
		}
		skipped++
	}

	ledger := make([]explain.PrunedBucket, 0, len(order))
	for _, b := range order {
		ledger = append(ledger, *bkts[b])
	}
	sort.Slice(ledger, func(i, j int) bool {
		if ledger[i].Bound != ledger[j].Bound {
			return ledger[i].Bound > ledger[j].Bound
		}
		return ledger[i].Lead < ledger[j].Lead
	})
	s.lastLedgerBkts, s.lastLedgerSkip = len(ledger), skipped
	s.lastLedgerTrunc = len(ledger) > explain.MaxPruneLedger
	if s.lastLedgerTrunc {
		ledger = ledger[:explain.MaxPruneLedger]
	}
	s.lastLedger = ledger
}

// auditLazyStep re-evaluates every candidate against the still-frozen state
// and reports each bound/fresh pair to lazyAuditHook. Test-only: quadratic
// in intent, deliberately unbatched and serial.
func (s *selector) auditLazyStep() {
	lz := s.lazy
	for b := range lz.buckets {
		for _, e := range lz.buckets[b].entries {
			if !e.evaluated {
				continue // fully evaluated this step unless the run stopped
			}
			info := lazyAuditInfo{
				task:   e.task,
				cached: gainEntry{c: e.cand, ok: e.viable, optGain: e.optGain},
				fresh:  s.evalCandidate(e.task),
			}
			switch {
			case e.dead:
				info.bound = math.Inf(-1)
			case lz.epoch(e.key.kind, b) == e.epochAt:
				info.exact = true
				info.bound = e.cand.ratio
			default:
				info.bound = lz.entryBound(e)
			}
			lazyAuditHook(info)
		}
	}
}

// lazyItem is one entry node of the per-step heap.
type lazyItem struct {
	prio  float64
	seq   int32 // deterministic tie-break: push order
	entry *lazyEntry
}

// lazyHeap is a serial max-heap over entry bound priorities with a
// push-order tie-break, so pop order — and with it the evaluated set — is
// deterministic.
type lazyHeap struct {
	items []lazyItem
	next  int32
}

func (h *lazyHeap) reset() {
	h.items = h.items[:0]
	h.next = 0
}

func (h *lazyHeap) len() int { return len(h.items) }

func (h *lazyHeap) peekPrio() float64 { return h.items[0].prio }

func (h *lazyHeap) before(a, b lazyItem) bool {
	if a.prio != b.prio {
		return a.prio > b.prio
	}
	return a.seq < b.seq
}

func (h *lazyHeap) push(prio float64, e *lazyEntry) {
	h.items = append(h.items, lazyItem{prio: prio, seq: h.next, entry: e})
	h.next++
	i := len(h.items) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h.before(h.items[i], h.items[p]) {
			break
		}
		h.items[i], h.items[p] = h.items[p], h.items[i]
		i = p
	}
}

func (h *lazyHeap) pop() lazyItem {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	h.down(0)
	return top
}

// down sifts item i toward the leaves until heap order holds below it.
func (h *lazyHeap) down(i int) {
	n := len(h.items)
	for {
		l, r := 2*i+1, 2*i+2
		if l >= n {
			return
		}
		c := l
		if r < n && h.before(h.items[r], h.items[l]) {
			c = r
		}
		if !h.before(h.items[c], h.items[i]) {
			return
		}
		h.items[i], h.items[c] = h.items[c], h.items[i]
		i = c
	}
}

// sentinel is one bucket's node in the sentinel heap.
type sentinel struct {
	prio   float64
	bucket int32
}

// sentinelHeap is the persistent indexed max-heap of bucket sentinels,
// ordered by (prio desc, bucket asc): a strict order, so the pop sequence
// depends only on the keys, never on the heap's shape or update history.
// pos[b] is bucket b's slot, -1 when b has no sentinel, so any one bucket is
// inserted, re-keyed or removed in O(log B).
type sentinelHeap struct {
	items []sentinel
	pos   []int32
}

func newSentinelHeap(buckets int) sentinelHeap {
	pos := make([]int32, buckets)
	for b := range pos {
		pos[b] = -1
	}
	return sentinelHeap{items: make([]sentinel, 0, buckets), pos: pos}
}

func (h *sentinelHeap) len() int { return len(h.items) }

func (h *sentinelHeap) peekPrio() float64 { return h.items[0].prio }

// set inserts bucket b at prio, or re-keys it if it is present.
func (h *sentinelHeap) set(b int32, prio float64) {
	i := int(h.pos[b])
	if i < 0 {
		i = len(h.items)
		h.items = append(h.items, sentinel{prio: prio, bucket: b})
		h.pos[b] = int32(i)
		h.up(i)
		return
	}
	h.items[i].prio = prio
	h.fix(i)
}

// remove deletes bucket b's sentinel; a bucket without one is a no-op.
func (h *sentinelHeap) remove(b int32) {
	i := int(h.pos[b])
	if i < 0 {
		return
	}
	last := len(h.items) - 1
	h.swap(i, last)
	h.items = h.items[:last]
	h.pos[b] = -1
	if i < last {
		h.fix(i)
	}
}

// pop removes the top sentinel and returns its bucket.
func (h *sentinelHeap) pop() int32 {
	b := h.items[0].bucket
	h.remove(b)
	return b
}

func (h *sentinelHeap) before(i, j int) bool {
	a, b := h.items[i], h.items[j]
	if a.prio != b.prio {
		return a.prio > b.prio
	}
	return a.bucket < b.bucket
}

func (h *sentinelHeap) swap(i, j int) {
	h.items[i], h.items[j] = h.items[j], h.items[i]
	h.pos[h.items[i].bucket] = int32(i)
	h.pos[h.items[j].bucket] = int32(j)
}

// fix restores heap order around slot i after its priority changed.
func (h *sentinelHeap) fix(i int) {
	if !h.up(i) {
		h.down(i)
	}
}

// up sifts slot i toward the root and reports whether it moved.
func (h *sentinelHeap) up(i int) bool {
	start := i
	for i > 0 {
		p := (i - 1) / 2
		if !h.before(i, p) {
			break
		}
		h.swap(i, p)
		i = p
	}
	return i != start
}

// down sifts slot i toward the leaves until heap order holds below it.
func (h *sentinelHeap) down(i int) {
	n := len(h.items)
	for {
		c := 2*i + 1
		if c >= n {
			return
		}
		if r := c + 1; r < n && h.before(r, c) {
			c = r
		}
		if !h.before(c, i) {
			return
		}
		h.swap(i, c)
		i = c
	}
}
