package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/workload"
)

// setupRepeats is how many times each workload builds its inputs; setup_s
// is the median, which keeps one slow file-system flush from moving it.
const setupRepeats = 5

// sample is one measured iteration.
type sample struct {
	wall    float64 // seconds
	allocMB float64 // MemStats.TotalAlloc delta, 1e6 bytes
	rssMB   float64 // peak resident set during the call, 1e6 bytes
}

// measureLoop runs f at least minIters times, then again while the time
// used so far plus the last iteration's time fits in budget. Each iteration
// starts on a collected heap returned to the OS, with the peak-RSS mark
// reset, so neither garbage nor resident pages from the previous one are
// charged to it.
func measureLoop(budget time.Duration, minIters int, f func(i int) error) ([]sample, error) {
	var out []sample
	start := time.Now()
	for i := 0; ; i++ {
		debug.FreeOSMemory()
		resetPeakRSS()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		if err := f(i); err != nil {
			return nil, err
		}
		d := time.Since(t0)
		runtime.ReadMemStats(&m1)
		out = append(out, sample{wall: d.Seconds(), allocMB: float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6, rssMB: peakRSSMB()})
		if i+1 >= minIters && time.Since(start)+d > budget {
			return out, nil
		}
	}
}

// setupRuns runs f setupRepeats times and returns the median duration.
func setupRuns(f func(i int) error) (float64, error) {
	var ds []float64
	for i := 0; i < setupRepeats; i++ {
		runtime.GC()
		t0 := time.Now()
		if err := f(i); err != nil {
			return 0, err
		}
		ds = append(ds, time.Since(t0).Seconds())
	}
	return median(ds), nil
}

// phases splits the run's measuring time: all of it untraced, or half
// untraced (for the overhead baseline) and half traced.
func phases(cfg config) (untraced, traced time.Duration) {
	total := time.Duration(cfg.seconds * float64(time.Second))
	if !cfg.trace {
		return total, 0
	}
	return total / 2, total / 2
}

// fillE2E records the end-to-end metrics every workload shares.
func fillE2E(o *outcome, setupS float64, untraced, traced []sample, tenants int) {
	walls := make([]float64, len(untraced))
	allocs := make([]float64, len(untraced))
	rss := make([]float64, len(untraced))
	for i, s := range untraced {
		walls[i], allocs[i], rss[i] = s.wall, s.allocMB, s.rssMB
	}
	o.e2e["setup_s"] = setupS
	o.e2e["wall_s"] = median(walls)
	o.e2e["alloc_mb"] = median(allocs)
	o.e2e["peak_rss_mb"] = median(rss)
	o.e2e["tenants_per_s"] = float64(tenants) / median(walls)
	o.notes = append(o.notes, fmt.Sprintf("wall_s over %d untraced calls: min %.4g, median %.4g, max %.4g",
		len(walls), quantile(walls, 0), median(walls), quantile(walls, 1)))
	if len(traced) > 0 {
		tw := make([]float64, len(traced))
		for i, s := range traced {
			tw[i] = s.wall
		}
		o.layer["trace.overhead_s"] = median(tw) - median(walls)
	}
}

// resetPeakRSS resets the kernel's peak-RSS mark of this process to its
// current resident set (Linux 4.0 and later), so peakRSSMB reads the peak
// since this call.
func resetPeakRSS() {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		fatalf("resetting the peak-RSS mark: %v", err)
	}
}

// peakRSSMB is this process's peak resident set (VmHWM) in 1e6 bytes.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		fatalf("reading the peak RSS: %v", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				fatalf("parsing VmHWM %q: %v", rest, err)
			}
			return kb * 1024 / 1e6
		}
	}
	fatalf("no VmHWM in /proc/self/status")
	return 0
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile is the nearest-rank p-quantile of v; 0 for an empty v.
func quantile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if p == 0.5 && len(s)%2 == 0 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// digest fingerprints a selection run bit for bit: the construction trace
// (step kinds, indexes, cost and memory after each step), the final indexes,
// cost and memory.
func digest(steps []core.Step, indexes []workload.Index, cost float64, memory int64) string {
	h := sha256.New()
	var buf [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	for _, s := range steps {
		put(uint64(s.Kind))
		h.Write([]byte(s.Index.Key()))
		put(math.Float64bits(s.CostAfter))
		put(uint64(s.MemAfter))
	}
	for _, k := range indexes {
		h.Write([]byte(k.Key()))
		h.Write([]byte{0})
	}
	put(math.Float64bits(cost))
	put(uint64(memory))
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// writeWorkload writes w as workload JSON to path.
func writeWorkload(path string, w *workload.Workload) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := workload.Write(f, w); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readWorkload reads the workload JSON at path.
func readWorkload(path string) (*workload.Workload, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return workload.Read(f)
}

// relClose reports whether a and b agree to a relative 1e-9: the same sum
// taken in a different order.
func relClose(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}
