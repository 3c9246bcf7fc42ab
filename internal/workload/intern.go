// Interned index identities. Every selection strategy funnels millions of
// (query, index) probes through the what-if layer; keying those probes by the
// canonical Key() string means one string construction plus a string hash per
// probe. The Interner canonicalizes Index values to dense uint32 IDs instead,
// so the hot paths (whatif caches, the core gain cache, selection membership)
// work on integers and bitsets. String keys survive only for serialization,
// journals and display.
package workload

import (
	"fmt"
	"sort"
	"sync"
)

// IndexID is the dense interned identity of an Index within one Interner:
// IDs are assigned 0,1,2,... in first-intern order, are stable for the
// lifetime of the interner, and are injective (distinct indexes never share
// an ID; the same index always resolves to the same ID).
type IndexID uint32

// Interner canonicalizes Index values to dense IndexIDs. It is safe for
// concurrent use: lookups of already-interned indexes take a shared read
// lock and allocate nothing, which is the hot path — new indexes are interned
// once and probed millions of times.
type Interner struct {
	mu      sync.RWMutex
	indexes []Index  // id -> canonical (defensively copied) Index
	hashes  []uint64 // id -> hashIndex of indexes[id]
	table   []uint32 // open-addressed slots holding id+1; 0 = empty
	mask    uint64
}

// NewInterner returns an empty interner.
func NewInterner() *Interner {
	const initial = 256 // power of two
	return &Interner{table: make([]uint32, initial), mask: initial - 1}
}

// hashIndex hashes table and key attributes (order-sensitive) with FNV-1a
// over the integer values, finished with a splitmix64 avalanche so that the
// low bits used for slot selection are well mixed.
func hashIndex(k Index) uint64 {
	h := uint64(14695981039346656037)
	h ^= uint64(k.Table)
	h *= 1099511628211
	for _, a := range k.Attrs {
		h ^= uint64(a)
		h *= 1099511628211
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

func equalIndex(a, b Index) bool {
	if a.Table != b.Table || len(a.Attrs) != len(b.Attrs) {
		return false
	}
	for i, x := range a.Attrs {
		if b.Attrs[i] != x {
			return false
		}
	}
	return true
}

// find probes for k under either lock; callers hold mu.
func (it *Interner) find(k Index, h uint64) (IndexID, bool) {
	for slot := h & it.mask; ; slot = (slot + 1) & it.mask {
		e := it.table[slot]
		if e == 0 {
			return 0, false
		}
		if id := e - 1; it.hashes[id] == h && equalIndex(it.indexes[id], k) {
			return IndexID(id), true
		}
	}
}

// Intern returns k's ID, assigning the next dense ID on first sight.
func (it *Interner) Intern(k Index) IndexID {
	h := hashIndex(k)
	it.mu.RLock()
	id, ok := it.find(k, h)
	it.mu.RUnlock()
	if ok {
		return id
	}
	it.mu.Lock()
	defer it.mu.Unlock()
	if id, ok := it.find(k, h); ok {
		return id // raced with another interning goroutine
	}
	id = IndexID(len(it.indexes))
	// Defensive copy: callers keep ownership of their Attrs slice.
	kc := Index{Table: k.Table, Attrs: append([]int(nil), k.Attrs...)}
	it.indexes = append(it.indexes, kc)
	it.hashes = append(it.hashes, h)
	if uint64(len(it.indexes))*4 > uint64(len(it.table))*3 {
		it.grow()
	}
	for slot := h & it.mask; ; slot = (slot + 1) & it.mask {
		if it.table[slot] == 0 {
			it.table[slot] = uint32(id) + 1
			break
		}
	}
	return id
}

// Lookup returns k's ID without interning it.
func (it *Interner) Lookup(k Index) (IndexID, bool) {
	h := hashIndex(k)
	it.mu.RLock()
	id, ok := it.find(k, h)
	it.mu.RUnlock()
	return id, ok
}

// grow doubles the slot table; caller holds the write lock.
func (it *Interner) grow() {
	table := make([]uint32, 2*len(it.table))
	mask := uint64(len(table) - 1)
	for id, h := range it.hashes {
		for slot := h & mask; ; slot = (slot + 1) & mask {
			if table[slot] == 0 {
				table[slot] = uint32(id) + 1
				break
			}
		}
	}
	it.table, it.mask = table, mask
}

// Index returns the canonical Index for an interned ID. The returned value
// shares the interner's attribute slice; callers must not modify it.
func (it *Interner) Index(id IndexID) Index {
	it.mu.RLock()
	k := it.indexes[id]
	it.mu.RUnlock()
	return k
}

// Len returns the number of interned indexes (== the next ID to be assigned).
func (it *Interner) Len() int {
	it.mu.RLock()
	n := len(it.indexes)
	it.mu.RUnlock()
	return n
}

// CompareIndexKeys orders two indexes exactly as strings.Compare orders their
// canonical Key() strings, without materializing either string. It is the
// deterministic tie-break order of the interned selector, and it must agree
// on every pair with the string order of Selection.Sorted and Key(), which
// the string-keyed code paths use. Attribute IDs must be
// non-negative (enforced by NewIndex / workload validation).
func CompareIndexKeys(a, b Index) int {
	n := len(a.Attrs)
	if len(b.Attrs) < n {
		n = len(b.Attrs)
	}
	for i := 0; i < n; i++ {
		if a.Attrs[i] != b.Attrs[i] {
			return compareDecimal(a.Attrs[i], b.Attrs[i])
		}
	}
	// Equal prefix: the shorter key string ends where the longer continues
	// with ',' or another digit, and end-of-string sorts first either way.
	switch {
	case len(a.Attrs) < len(b.Attrs):
		return -1
	case len(a.Attrs) > len(b.Attrs):
		return 1
	}
	return 0
}

var pow10 = [...]uint64{1, 10, 100, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18}

func decimalDigits(x uint64) int {
	d := 1
	for x >= 10 {
		x /= 10
		d++
	}
	return d
}

// compareDecimal compares x != y as their decimal strings compare
// lexicographically ("10" < "2", "1" < "12"). Within a comma-separated key
// this also decides the full-key comparison: if one decimal is a proper
// prefix of the other, the shorter number's key continues with ',' or ends —
// both of which sort before any digit — matching the prefix-first result.
func compareDecimal(x, y int) int {
	ux, uy := uint64(x), uint64(y)
	dx, dy := decimalDigits(ux), decimalDigits(uy)
	switch {
	case dx == dy:
		if ux < uy {
			return -1
		}
		return 1
	case dx < dy:
		if t := uy / pow10[dy-dx]; ux != t {
			if ux < t {
				return -1
			}
			return 1
		}
		return -1 // x's decimal is a proper prefix of y's
	default:
		if t := ux / pow10[dx-dy]; t != uy {
			if t < uy {
				return -1
			}
			return 1
		}
		return 1
	}
}

// IDSelection is a bitset-backed index selection over interned IDs — the
// hot-loop counterpart of the string-keyed Selection map. Membership tests
// and inserts are single bit operations, and Clone copies a few machine
// words instead of rehashing a map, which is what the construction step loop
// and the greedy heuristics iterate millions of times. Not safe for
// concurrent mutation; the selector mutates it only in serial phases.
type IDSelection struct {
	in   *Interner
	bits []uint64
	n    int
}

// NewIDSelection returns an empty selection over the interner's ID space.
func NewIDSelection(in *Interner) *IDSelection {
	return &IDSelection{in: in}
}

// Interner returns the interner the selection's IDs resolve through.
func (s *IDSelection) Interner() *Interner { return s.in }

// Has reports whether id is in the selection.
func (s *IDSelection) Has(id IndexID) bool {
	w := int(id >> 6)
	return w < len(s.bits) && s.bits[w]&(1<<(id&63)) != 0
}

// HasIndex reports whether k is in the selection without interning it.
func (s *IDSelection) HasIndex(k Index) bool {
	id, ok := s.in.Lookup(k)
	return ok && s.Has(id)
}

// Add inserts id; it reports whether id was not already present.
func (s *IDSelection) Add(id IndexID) bool {
	w := int(id >> 6)
	for w >= len(s.bits) {
		s.bits = append(s.bits, 0)
	}
	m := uint64(1) << (id & 63)
	if s.bits[w]&m != 0 {
		return false
	}
	s.bits[w] |= m
	s.n++
	return true
}

// Remove deletes id; it reports whether id was present.
func (s *IDSelection) Remove(id IndexID) bool {
	w := int(id >> 6)
	m := uint64(1) << (id & 63)
	if w >= len(s.bits) || s.bits[w]&m == 0 {
		return false
	}
	s.bits[w] &^= m
	s.n--
	return true
}

// Len returns the number of selected indexes.
func (s *IDSelection) Len() int { return s.n }

// Clone returns an independent copy sharing the interner.
func (s *IDSelection) Clone() *IDSelection {
	return &IDSelection{in: s.in, bits: append([]uint64(nil), s.bits...), n: s.n}
}

// IDs returns the member IDs in ascending ID order.
func (s *IDSelection) IDs() []IndexID {
	out := make([]IndexID, 0, s.n)
	for w, bits := range s.bits {
		for bits != 0 {
			b := bits & (-bits)
			out = append(out, IndexID(w*64+popLowBit(b)))
			bits &^= b
		}
	}
	return out
}

// popLowBit returns the position of the (single) set bit in b.
func popLowBit(b uint64) int {
	n := 0
	for b > 1 {
		b >>= 1
		n++
	}
	return n
}

// Sorted returns the member indexes in canonical key order — the same order
// Selection.Sorted yields, so replacing one representation with the other
// cannot change any order-sensitive construction decision.
func (s *IDSelection) Sorted() []Index {
	out := make([]Index, 0, s.n)
	for _, id := range s.IDs() {
		out = append(out, s.in.Index(id))
	}
	sort.Slice(out, func(i, j int) bool { return CompareIndexKeys(out[i], out[j]) < 0 })
	return out
}

// Selection materializes the string-keyed Selection map (for results,
// serialization and the Selection-typed public API).
func (s *IDSelection) Selection() Selection {
	sel := make(Selection, s.n)
	for _, id := range s.IDs() {
		sel.Add(s.in.Index(id))
	}
	return sel
}

// String renders the selection compactly for diagnostics.
func (s *IDSelection) String() string {
	return fmt.Sprintf("IDSelection(%d indexes)", s.n)
}
