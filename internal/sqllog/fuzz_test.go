package sqllog

import (
	"bytes"
	"testing"

	"repro/internal/workload"
)

// FuzzParse: the SQL log is untrusted input (indexadvisor reads it from
// files). Parse must reject malformed logs with an error rather than a
// panic, and every workload it accepts must be a valid document: Marshal,
// parsed back by workload.Unmarshal and marshalled again, reproduces the
// same bytes. Seeds are the test schema with SELECT, UPDATE, INSERT and
// DELETE lines, a frequency annotation, and a few malformed logs.
func FuzzParse(f *testing.F) {
	for _, stmts := range []string{
		"SELECT * FROM orders WHERE w_id = 1;",
		"SELECT id, note FROM orders WHERE w_id = 5 AND d_id = ?;\nSELECT * FROM orders WHERE orders.carrier >= 2;",
		"-- freq: 40\nSELECT * FROM item WHERE id = ?;\nSELECT * FROM item WHERE id = 7;",
		"UPDATE orders SET carrier = 5 WHERE w_id = ? AND d_id = ?;",
		"INSERT INTO orders (w_id, d_id, id) VALUES (?, ?, ?);\nINSERT INTO item VALUES (1, 2.5);",
		"DELETE FROM item WHERE id = ?;",
		"SELECT * FROM orders;",
		"SELECT * FROM nosuch WHERE x = 1;",
		"UPDATE orders SET WHERE;",
		"SELECT * FROM item WHERE id = 'unterminated;",
	} {
		f.Add(schema + stmts)
	}
	f.Add("CREATE TABLE t (a INT CARDINALITY 0) ROWS 0;\nSELECT * FROM t WHERE a = 1;")
	f.Fuzz(func(t *testing.T, src string) {
		w, err := ParseString(src)
		if err != nil {
			return
		}
		first, err := workload.Marshal(w)
		if err != nil {
			t.Fatalf("accepted workload does not marshal: %v", err)
		}
		w2, err := workload.Unmarshal(first)
		if err != nil {
			t.Fatalf("marshalled workload is rejected: %v\n%s", err, first)
		}
		second, err := workload.Marshal(w2)
		if err != nil {
			t.Fatalf("re-parsed workload does not marshal: %v", err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("round trip changed the document:\n%s\nvs\n%s", first, second)
		}
	})
}
