package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/whatif"
	"repro/internal/workload"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call. Spans of one setup or one measured iteration share a Run.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: a root span
	Run    string `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	// Covered is time inside the span spent in a child layer measured in
	// aggregate rather than as spans (the cost model: one span per cost
	// evaluation would cost more than the evaluation).
	Covered int64 `json:"covered_ns,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced code paths call it unconditionally.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// start opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) start(run, name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Run: run, Name: name, Start: now})
	return len(t.spans)
}

// end closes span id, adding covered nanoseconds of aggregate child time.
func (t *tracer) end(id int, covered int64) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	t.spans[id-1].Covered = covered
}

// do runs f inside a span.
func (t *tracer) do(run, name string, parent int, f func() error) error {
	id := t.start(run, name, parent)
	err := f()
	t.end(id, 0)
	return err
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by child spans (merged, clipped to the parent) and
// minus its aggregate Covered time.
func (t *tracer) selfTimes() map[int]int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(t.spans))
	for _, s := range t.spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered, curS, curE int64
		open := false
		for _, k := range kids {
			ks, ke := max(k.Start, s.Start), min(k.End, s.End)
			if ke <= ks {
				continue
			}
			if open && ks <= curE {
				curE = max(curE, ke)
				continue
			}
			if open {
				covered += curE - curS
			}
			curS, curE, open = ks, ke, true
		}
		if open {
			covered += curE - curS
		}
		self[s.ID] = s.End - s.Start - covered - s.Covered
	}
	return self
}

// perRun sums value over the spans named name in each run whose ID starts
// with prefix and returns the median of those sums; 0 when there are none.
func (t *tracer) perRun(prefix, name string, value func(s span) float64) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	sums := map[string]float64{}
	for _, s := range t.spans {
		if s.Name == name && strings.HasPrefix(s.Run, prefix) {
			sums[s.Run] += value(s)
		}
	}
	vals := make([]float64, 0, len(sums))
	for _, v := range sums {
		vals = append(vals, v)
	}
	return median(vals)
}

// layerSeconds is the median over runs with prefix of the summed duration,
// or self time, of the spans named name.
func (t *tracer) layerSeconds(prefix, name string, selfTime bool) float64 {
	var self map[int]int64
	if selfTime {
		self = t.selfTimes()
	}
	return t.perRun(prefix, name, func(s span) float64 {
		if selfTime {
			return float64(self[s.ID]) / 1e9
		}
		return float64(s.End-s.Start) / 1e9
	})
}

// count is the median over runs with prefix of the number of spans named
// name.
func (t *tracer) count(prefix, name string) float64 {
	return t.perRun(prefix, name, func(span) float64 { return 1 })
}

// write dumps the spans as JSON to dir/<workload>-seed<seed>-<pid>.json.
func (t *tracer) write(dir, workloadName string, seed int64) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-%d.json", workloadName, seed, os.Getpid())
	return os.WriteFile(filepath.Join(dir, name), data, 0o644)
}

// timedSource wraps a what-if cost source and accumulates the number of
// cost-model calls and the time spent in them. Safe for concurrent use.
type timedSource struct {
	src   whatif.Source
	calls atomic.Int64
	busy  atomic.Int64 // nanoseconds
}

func (s *timedSource) done(t0 time.Time) {
	s.busy.Add(int64(time.Since(t0)))
	s.calls.Add(1)
}

func (s *timedSource) BaseCost(q workload.Query) float64 {
	defer s.done(time.Now())
	return s.src.BaseCost(q)
}

func (s *timedSource) CostWithIndex(q workload.Query, k workload.Index) float64 {
	defer s.done(time.Now())
	return s.src.CostWithIndex(q, k)
}

func (s *timedSource) QueryCost(q workload.Query, sel workload.Selection) float64 {
	defer s.done(time.Now())
	return s.src.QueryCost(q, sel)
}

func (s *timedSource) MaintenanceCost(q workload.Query, k workload.Index) float64 {
	defer s.done(time.Now())
	return s.src.MaintenanceCost(q, k)
}

func (s *timedSource) IndexSize(k workload.Index) int64 {
	defer s.done(time.Now())
	return s.src.IndexSize(k)
}
