package service

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/drift"
)

// maxObserveLine is decodeBatch's JSONL line limit (its scanner's buffer cap).
const maxObserveLine = 4 * 1024 * 1024

// FuzzDecodeBatch: /observe bodies are untrusted bytes. decodeBatch must
// never panic; a body starting with '[' is accepted exactly when its first
// JSON value decodes as an observation array; and in JSONL mode every
// non-empty line yields exactly one observation, the zero (Count: 0)
// sentinel when the line is malformed, so one bad line costs only itself.
// The only JSONL error is a line past the scanner's limit. Seeds: a JSON
// array, JSONL with one malformed line, an empty body and an oversize line.
func FuzzDecodeBatch(f *testing.F) {
	f.Add([]byte(`[{"table":"T","attrs":["A","B"],"count":3},{"table":"T","attrs":["C"],"kind":"insert","count":1}]`))
	f.Add([]byte("{\"table\":\"T\",\"attrs\":[\"A\"],\"count\":2}\n{not json\r\n\n{\"table\":\"T\",\"attrs\":[\"B\"],\"count\":1,\"at\":\"2026-01-01T00:00:00Z\"}"))
	f.Add([]byte{})
	f.Add([]byte(`{"table":"` + strings.Repeat("x", maxObserveLine) + `"}` + "\n"))
	f.Fuzz(func(t *testing.T, body []byte) {
		batch, err := decodeBatch(httptest.NewRequest("POST", "/observe", bytes.NewReader(body)))
		if len(body) == 0 {
			if err == nil {
				t.Fatalf("empty body accepted as %d observations", len(batch))
			}
			return
		}
		if body[0] == '[' {
			var want []drift.Observation
			wantErr := json.NewDecoder(bytes.NewReader(body)).Decode(&want)
			if (err != nil) != (wantErr != nil) {
				t.Fatalf("array body: decodeBatch error %v, first-value decode error %v", err, wantErr)
			}
			if err == nil && !reflect.DeepEqual(batch, want) {
				t.Fatalf("array body decoded as %+v, want %+v", batch, want)
			}
			return
		}

		var lines [][]byte
		longest := 0
		for _, raw := range bytes.Split(body, []byte("\n")) {
			longest = max(longest, len(raw))
			if line := bytes.TrimSuffix(raw, []byte("\r")); len(line) > 0 {
				lines = append(lines, line)
			}
		}
		if err != nil {
			if longest < maxObserveLine-1 {
				t.Fatalf("JSONL body with lines of at most %d bytes rejected: %v", longest, err)
			}
			return
		}
		if longest > maxObserveLine {
			t.Fatalf("JSONL line of %d bytes accepted past the %d-byte limit", longest, maxObserveLine)
		}
		if len(batch) != len(lines) {
			t.Fatalf("%d non-empty lines yielded %d observations", len(lines), len(batch))
		}
		for i, line := range lines {
			var want drift.Observation
			if json.Unmarshal(line, &want) != nil {
				want = drift.Observation{}
			}
			if !reflect.DeepEqual(batch[i], want) {
				t.Fatalf("line %d %q decoded as %+v, want %+v", i, line, batch[i], want)
			}
		}
	})
}
