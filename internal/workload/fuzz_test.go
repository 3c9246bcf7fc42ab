package workload

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// fuzzWorkload is a small fixed catalog for key parsing: attribute IDs are
// resolved against it, so round-trip properties hold exactly for valid keys.
var fuzzWorkload = MustTPCC(1)

// FuzzIndexKeyRoundTrip: for every string the parser accepts, Key() must
// reproduce a key that parses to the very same index (Key and ParseIndexKey
// are inverses on the canonical domain), and everything else must error
// without panicking. Seeds cover the canonical shapes and the historical
// trouble spots: adjacent empty components, multi-digit attribute IDs (where
// numeric and lexicographic order diverge), and a maximum-width key.
func FuzzIndexKeyRoundTrip(f *testing.F) {
	w := fuzzWorkload
	f.Add("1")
	f.Add("1,2,3")
	f.Add(",")    // empty components
	f.Add("1,,2") // empty component between valid IDs
	f.Add(",1")
	f.Add("10,2")              // multi-digit vs lexicographic
	f.Add("0,1,2,3,4,5,6,7,8") // max-width: a full wide-table key
	f.Add("-1")
	f.Add("01")                       // non-canonical digits must not round-trip to a different key
	f.Add("999999999999999999999999") // overflow
	f.Fuzz(func(t *testing.T, key string) {
		k, err := ParseIndexKey(w, key)
		if err != nil {
			return
		}
		round := k.Key()
		k2, err := ParseIndexKey(w, round)
		if err != nil {
			t.Fatalf("Key() %q of parsed %q does not parse back: %v", round, key, err)
		}
		if k2.Table != k.Table || len(k2.Attrs) != len(k.Attrs) {
			t.Fatalf("round trip of %q changed index: %v vs %v", key, k, k2)
		}
		for i := range k.Attrs {
			if k.Attrs[i] != k2.Attrs[i] {
				t.Fatalf("round trip of %q changed attrs: %v vs %v", key, k.Attrs, k2.Attrs)
			}
		}
		if k2.Key() != round {
			t.Fatalf("canonical key %q re-keys as %q", round, k2.Key())
		}
	})
}

// FuzzCompareIndexKeys: the allocation-free comparison must order any two
// indexes exactly like strings.Compare over their canonical keys — that is
// the tie-break contract that keeps the interned selector's order equal to
// the string order of Selection.Sorted and Key().
func FuzzCompareIndexKeys(f *testing.F) {
	f.Add([]byte{1, 2}, []byte{1, 2, 3})  // proper prefix
	f.Add([]byte{10, 2}, []byte{2, 10})   // multi-digit vs lexicographic
	f.Add([]byte{9}, []byte{10})          // "9" > "10" lexicographically
	f.Add([]byte{100, 1}, []byte{100, 1}) // equal
	f.Add([]byte{255, 0}, []byte{0, 255}) // extremes
	f.Fuzz(func(t *testing.T, ab, bb []byte) {
		a := Index{Attrs: attrsFromBytes(ab)}
		b := Index{Attrs: attrsFromBytes(bb)}
		if len(a.Attrs) == 0 || len(b.Attrs) == 0 {
			return
		}
		want := sign(strings.Compare(a.Key(), b.Key()))
		if got := sign(CompareIndexKeys(a, b)); got != want {
			t.Fatalf("CompareIndexKeys(%q, %q) = %d, strings.Compare = %d",
				a.Key(), b.Key(), got, want)
		}
	})
}

func attrsFromBytes(bs []byte) []int {
	if len(bs) > 12 {
		bs = bs[:12]
	}
	attrs := make([]int, 0, len(bs))
	for _, b := range bs {
		// Spread across digit-count boundaries so multi-digit comparison is
		// exercised, not just single-byte IDs.
		attrs = append(attrs, int(b)*int(b))
	}
	return attrs
}

func sign(x int) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	default:
		return 0
	}
}

// FuzzUnmarshalWorkload: workload JSON is untrusted input (cmd tools read it
// from files and stdin). Unmarshal must reject malformed documents with an
// error rather than a panic, and every document it accepts must round-trip:
// Marshal of the parsed workload, parsed and marshalled again, reproduces
// the same bytes. Seeds are a marshalled TPC-C catalog and one document per
// rejection path: a duplicate attribute name, an unknown query kind, a
// query without attributes and a table with zero rows.
func FuzzUnmarshalWorkload(f *testing.F) {
	tpcc, err := Marshal(MustTPCC(1))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(tpcc)
	// doc is one table T with attributes a and second, and the given rows
	// and queries.
	doc := func(rows int, second, queries string) []byte {
		return []byte(fmt.Sprintf(`{"tables":[{"name":"T","rows":%d,"attributes":[`+
			`{"name":"a","distinct":4,"value_size":4},{"name":%q,"distinct":2,"value_size":8}]}],`+
			`"queries":[%s]}`, rows, second, queries))
	}
	f.Add(doc(10, "b", `{"attributes":["a","b"],"frequency":3},{"attributes":["b"],"frequency":1,"kind":"update"}`))
	f.Add(doc(10, "a", `{"attributes":["a"],"frequency":1}`))                 // duplicate attribute name
	f.Add(doc(10, "b", `{"attributes":["a"],"frequency":1,"kind":"delete"}`)) // unknown query kind
	f.Add(doc(10, "b", `{"attributes":[],"frequency":1}`))                    // query without attributes
	f.Add(doc(0, "b", `{"attributes":["a"],"frequency":1}`))                  // zero rows
	f.Fuzz(func(t *testing.T, data []byte) {
		w, err := Unmarshal(data)
		if err != nil {
			return
		}
		first, err := Marshal(w)
		if err != nil {
			t.Fatalf("accepted workload does not marshal: %v", err)
		}
		w2, err := Unmarshal(first)
		if err != nil {
			t.Fatalf("marshalled workload is rejected: %v\n%s", err, first)
		}
		second, err := Marshal(w2)
		if err != nil {
			t.Fatalf("re-parsed workload does not marshal: %v", err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("round trip changed the document:\n%s\nvs\n%s", first, second)
		}
	})
}
