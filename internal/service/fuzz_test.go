package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"os"
	"path/filepath"
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

// recoverSeeds returns (journal, state) byte pairs written by real Store
// calls: a history of committed deltas, a reject and a failure; the same
// with a delta aborted mid-apply (an intent without a commit); the committed
// history with its final line, the last commit, torn in half; and two empty
// files.
func recoverSeeds(f *testing.F) [][2][]byte {
	f.Helper()
	gr := &drift.GuardrailReport{Epsilon: 0.05, HeavyK: 3, Violations: []int{2}}
	read := func(dir string) [2][]byte {
		j, err := os.ReadFile(filepath.Join(dir, "journal.jsonl"))
		if err != nil {
			f.Fatal(err)
		}
		s, err := os.ReadFile(filepath.Join(dir, "state.jsonl"))
		if err != nil {
			f.Fatal(err)
		}
		return [2][]byte{j, s}
	}
	history := func(abort bool) [2][]byte {
		dir := f.TempDir()
		s, err := Open(dir, testClock)
		if err != nil {
			f.Fatal(err)
		}
		defer s.Close()
		if _, err := s.Recover(); err != nil {
			f.Fatal(err)
		}
		if err := s.ApplyDelta(nil, []string{"1,2", "3"}, []string{"1,2", "3"}, nil, gr, nil); err != nil {
			f.Fatal(err)
		}
		if err := s.Reject([]string{"5"}, []string{"3"}, gr); err != nil {
			f.Fatal(err)
		}
		if err := s.Failure(errors.New("worker panic"), "core.evalCandidate", "boom"); err != nil {
			f.Fatal(err)
		}
		if err := s.ApplyDelta([]string{"1,2", "3"}, []string{"3", "4"}, []string{"4"}, []string{"1,2"}, gr, nil); err != nil {
			f.Fatal(err)
		}
		if abort {
			crash := errors.New("crash")
			err := s.ApplyDelta([]string{"3", "4"}, []string{"4", "6,7"}, []string{"6,7"}, []string{"3"}, gr,
				func(opsDone int) error {
					if opsDone == 1 {
						return crash
					}
					return nil
				})
			if !errors.Is(err, crash) {
				f.Fatalf("aborted ApplyDelta returned %v", err)
			}
		}
		return read(dir)
	}
	committed, aborted := history(false), history(true)
	torn := committed
	j := torn[0]
	last := bytes.LastIndexByte(j[:len(j)-1], '\n') + 1
	torn[0] = j[:last+(len(j)-last)/2]
	return [][2][]byte{committed, aborted, torn, {nil, nil}}
}

// FuzzRecover: the journal and state files are read back after crashes, so
// Open+Recover must survive arbitrary bytes in both. It must never panic; it
// either returns an error or a report whose Deployed equals the store's
// Deployed(); and Recover is idempotent: a second Open+Recover on the same
// directory (after the first may have truncated torn tails, rolled back a
// pending intent and compacted the state) fails too, or returns the same set.
func FuzzRecover(f *testing.F) {
	for _, seed := range recoverSeeds(f) {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, journal, state []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "journal.jsonl"), journal, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "state.jsonl"), state, 0o644); err != nil {
			t.Fatal(err)
		}
		reopen := func() ([]string, error) {
			s, err := Open(dir, testClock)
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			defer s.Close()
			rep, err := s.Recover()
			if err != nil {
				return nil, err
			}
			if !reflect.DeepEqual(rep.Deployed, s.Deployed()) {
				t.Fatalf("report deploys %v, store %v", rep.Deployed, s.Deployed())
			}
			return rep.Deployed, nil
		}
		first, err1 := reopen()
		second, err2 := reopen()
		if (err1 != nil) != (err2 != nil) {
			t.Fatalf("first Recover error %v, second %v", err1, err2)
		}
		if err1 == nil && !setsEqual(first, second) {
			t.Fatalf("first Recover deploys %v, second %v", first, second)
		}
	})
}
