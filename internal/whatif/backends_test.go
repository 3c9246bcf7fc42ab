package whatif

import (
	"math"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/workload"
)

// forEachBackend runs a cache-contract test once per cache backend, as a
// subtest named after it. The flat tables built by New are the only backend;
// the accounting they report is checked against an independent counter in
// TestAccountingAgainstCountingSource.
func forEachBackend(t *testing.T, run func(t *testing.T, mk func(Source) *Optimizer)) {
	t.Run("flat", func(t *testing.T) { run(t, New) })
}

func TestBackendsCachingSemantics(t *testing.T) {
	forEachBackend(t, func(t *testing.T, mk func(Source) *Optimizer) {
		w := testWorkload(t)
		m := costmodel.New(w, costmodel.SingleIndex)
		o := mk(m)
		q := w.Queries[0]
		k := workload.MustIndex(w, q.Attrs[0])

		c1 := o.CostWithIndex(q, k)
		c2 := o.CostWithIndex(q, k)
		if c1 != c2 || c1 != m.CostWithIndex(q, k) {
			t.Errorf("cost %v/%v, model %v", c1, c2, m.CostWithIndex(q, k))
		}
		if s := o.Stats(); s.Calls != 1 || s.CacheHits != 1 {
			t.Errorf("pair cache accounting %+v, want 1 call 1 hit", s)
		}
		o.BaseCost(q)
		o.BaseCost(q)
		if s := o.Stats(); s.Calls != 2 || s.CacheHits != 2 {
			t.Errorf("base accounting %+v, want 2 calls 2 hits", s)
		}
		o.MaintenanceCost(q, k)
		o.IndexSize(k)
		if s := o.Stats(); s.Calls != 2 {
			t.Errorf("maintenance/size counted as calls: %+v", s)
		}
	})
}

func TestBackendsNonApplicableIsFree(t *testing.T) {
	forEachBackend(t, func(t *testing.T, mk func(Source) *Optimizer) {
		w := testWorkload(t)
		o := mk(costmodel.New(w, costmodel.SingleIndex))
		q := w.Queries[0]
		var lead int
		for _, a := range w.Tables[q.Table].Attrs {
			if !q.Accesses(a) {
				lead = a
				break
			}
		}
		o.BaseCost(q)
		before := o.Stats().Calls
		if got := o.CostWithIndex(q, workload.MustIndex(w, lead)); got != o.BaseCost(q) {
			t.Errorf("non-applicable cost %v, want base", got)
		}
		if after := o.Stats().Calls; after != before {
			t.Errorf("non-applicable consumed %d calls", after-before)
		}
	})
}

func TestBackendsInvalidate(t *testing.T) {
	forEachBackend(t, func(t *testing.T, mk func(Source) *Optimizer) {
		w := testWorkload(t)
		o := mk(costmodel.New(w, costmodel.SingleIndex))
		q0, q1 := w.Queries[0], w.Queries[1]
		k0 := workload.MustIndex(w, q0.Attrs[0])
		k1 := workload.MustIndex(w, q1.Attrs[0])
		o.BaseCost(q0)
		o.BaseCost(q1)
		o.CostWithIndex(q0, k0)
		o.CostWithIndex(q1, k1)
		entries := o.Stats().IndexCacheEntries
		calls := o.Stats().Calls

		o.Invalidate(q0)
		if got := o.Stats().IndexCacheEntries; got != entries-1 {
			t.Errorf("occupancy after invalidate = %d, want %d", got, entries-1)
		}
		o.BaseCost(q0)
		o.CostWithIndex(q0, k0)
		if got := o.Stats().Calls; got != calls+2 {
			t.Errorf("q0 refresh calls = %d, want %d", got, calls+2)
		}
		o.BaseCost(q1)
		o.CostWithIndex(q1, k1)
		if got := o.Stats().Calls; got != calls+2 {
			t.Errorf("invalidate leaked into q1: calls = %d", got)
		}
	})
}

// countingSource counts the invocations of the three what-if entry points
// (base cost, single-index cost, whole-selection cost). Maintenance and size
// lookups are catalog reads the optimizer never counts as calls, so they
// pass through uncounted.
type countingSource struct {
	Source
	calls int64
}

func (c *countingSource) BaseCost(q workload.Query) float64 {
	c.calls++
	return c.Source.BaseCost(q)
}

func (c *countingSource) CostWithIndex(q workload.Query, k workload.Index) float64 {
	c.calls++
	return c.Source.CostWithIndex(q, k)
}

func (c *countingSource) QueryCost(q workload.Query, sel workload.Selection) float64 {
	c.calls++
	return c.Source.QueryCost(q, sel)
}

// TestAccountingAgainstCountingSource checks the optimizer's call accounting
// against a counter it does not own: Calls must equal the wrapped source's
// invocations, CacheHits must equal probes minus Calls, every cached answer
// must equal the direct source answer bit for bit, and Invalidate must cost
// exactly one recount per dropped entry that is probed again.
func TestAccountingAgainstCountingSource(t *testing.T) {
	w := testWorkload(t)
	m := costmodel.New(w, costmodel.SingleIndex)
	src := &countingSource{Source: m}
	o := New(src)

	var probes int64
	check := func(label string, got, want float64) {
		t.Helper()
		probes++
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: cached %v, source %v", label, got, want)
		}
	}
	// Every query against every single-attribute index of its table (one
	// applicable or not) and one two-attribute prefix, twice: the second
	// round is served from the cache.
	for round := 0; round < 2; round++ {
		for _, q := range w.Queries {
			check("base", o.BaseCost(q), m.BaseCost(q))
			for _, a := range w.Tables[q.Table].Attrs {
				k := workload.MustIndex(w, a)
				want := m.BaseCost(q)
				if workload.Applicable(q, k) {
					want = m.CostWithIndex(q, k)
				}
				check("single", o.CostWithIndex(q, k), want)
			}
			k := workload.MustIndex(w, q.Attrs...)
			check("prefix", o.CostWithIndex(q, k), m.CostWithIndex(q, k))
		}
		s := o.Stats()
		if s.Calls != src.calls {
			t.Fatalf("round %d: Stats().Calls = %d, source invoked %d times", round, s.Calls, src.calls)
		}
		if s.CacheHits != probes-s.Calls {
			t.Fatalf("round %d: CacheHits = %d, want probes-Calls = %d-%d", round, s.CacheHits, probes, s.Calls)
		}
	}

	q := w.Queries[0]
	k := workload.MustIndex(w, q.Attrs[0])
	before := src.calls
	o.Invalidate(q)
	check("base after invalidate", o.BaseCost(q), m.BaseCost(q))
	check("cost after invalidate", o.CostWithIndex(q, k), m.CostWithIndex(q, k))
	if got := src.calls - before; got != 2 {
		t.Errorf("re-probing base and one index after Invalidate cost %d source calls, want 2", got)
	}
	check("cost cached again", o.CostWithIndex(q, k), m.CostWithIndex(q, k))
	if got := src.calls - before; got != 2 {
		t.Errorf("second probe after Invalidate recounted: %d source calls, want 2", got)
	}
	if s := o.Stats(); s.Calls != src.calls || s.CacheHits != probes-s.Calls {
		t.Errorf("after Invalidate: Calls %d (source %d), CacheHits %d (want %d)",
			s.Calls, src.calls, s.CacheHits, probes-s.Calls)
	}
}

// TestFlatShardGrowthAndTombstones drives one flat shard through several
// rehash generations with interleaved invalidations: values must survive
// growth, tombstoned slots must be reusable, and live accounting must stay
// exact.
func TestFlatShardGrowthAndTombstones(t *testing.T) {
	var sh flatShard
	const queries = 64
	const perQuery = 32 // 64*32 entries forces multiple rehashes from 64 slots
	val := func(q, i int) float64 { return float64(q*1000 + i) }
	for q := 0; q < queries; q++ {
		for i := 0; i < perQuery; i++ {
			sh.put(q, pairKeyOf(q, workload.IndexID(i)), val(q, i))
		}
	}
	if got := sh.len(); got != queries*perQuery {
		t.Fatalf("live = %d, want %d", got, queries*perQuery)
	}
	for q := 0; q < queries; q++ {
		for i := 0; i < perQuery; i++ {
			if v, ok := sh.get(pairKeyOf(q, workload.IndexID(i))); !ok || v != val(q, i) {
				t.Fatalf("entry (%d, %d) = %v, %v after growth", q, i, v, ok)
			}
		}
	}
	// Invalidate every other query: O(entries-for-q) tombstoning.
	for q := 0; q < queries; q += 2 {
		if dropped := sh.invalidate(q); dropped != perQuery {
			t.Fatalf("invalidate(%d) dropped %d, want %d", q, dropped, perQuery)
		}
	}
	if got := sh.len(); got != queries*perQuery/2 {
		t.Fatalf("live after invalidation = %d, want %d", got, queries*perQuery/2)
	}
	for q := 0; q < queries; q++ {
		_, ok := sh.get(pairKeyOf(q, 0))
		if want := q%2 == 1; ok != want {
			t.Fatalf("query %d present=%v, want %v", q, ok, want)
		}
	}
	// Re-insert into tombstoned territory, then verify a subsequent rehash
	// (triggered by more inserts) drops the dead weight without losing data.
	for q := 0; q < queries; q += 2 {
		for i := 0; i < 2*perQuery; i++ {
			sh.put(q, pairKeyOf(q, workload.IndexID(i)), -val(q, i))
		}
	}
	for q := 0; q < queries; q++ {
		if q%2 == 0 {
			if v, ok := sh.get(pairKeyOf(q, 1)); !ok || v != -val(q, 1) {
				t.Fatalf("re-inserted (%d, 1) = %v, %v", q, v, ok)
			}
		} else if v, ok := sh.get(pairKeyOf(q, 1)); !ok || v != val(q, 1) {
			t.Fatalf("untouched (%d, 1) = %v, %v", q, v, ok)
		}
	}
	// A second invalidate of an already-invalidated query is a no-op on the
	// perQuery ledger (no stale keys double-counted).
	sh.invalidate(1)
	if dropped := sh.invalidate(1); dropped != 0 {
		t.Errorf("double invalidate dropped %d entries", dropped)
	}
}

// TestFlatSizeZeroIsCached: 0 is a legitimate cached index size; a second
// request must not re-ask the source.
func TestFlatSizeZeroIsCached(t *testing.T) {
	var ft flatTables
	ft.sizePut(3, 0)
	if v, ok := ft.sizeGet(3); !ok || v != 0 {
		t.Fatalf("sizeGet(3) = %d, %v; want 0, true", v, ok)
	}
	if _, ok := ft.sizeGet(2); ok {
		t.Error("unset smaller ID reported as cached")
	}
	if _, ok := ft.sizeGet(100); ok {
		t.Error("ID beyond table reported as cached")
	}
}
