package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	indexsel "repro"
	"repro/internal/costmodel"
	"repro/internal/drift"
	"repro/internal/service"
	"repro/internal/telemetry"
	"repro/internal/whatif"
	"repro/internal/workload"
)

// The stream: phase 0 observes every template of the ERP instance, then
// two drift phases each drop and add ~1,000 templates (PerturbTemplates,
// cumulative), every template observed once per phase with count = its
// frequency, in batches of 100. The fake clock advances a minute per batch.
//
// The stream ignores the benchmark's seed: it is `workloadgen -drift` at
// seed daemonSeed. Between drift seeds the drained stream's time moved by
// ~13% of its median (13 retunes of different sizes) against 4-6% between
// runs of one stream in a quiet hour, so a seeded stream would spend
// wall_s's bound on the inputs.
const (
	daemonSeed       = 7
	daemonPhases     = 3
	daemonPerturb    = 1000
	daemonBatch      = 100
	daemonTick       = time.Minute
	daemonProbeEvery = 20 * time.Millisecond // the /status prober's 50 per second
)

// daemonEpoch is where the fake clock starts.
var daemonEpoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// fakeClock is the daemon's injected clock, read by the ingestion loop and
// the /status handler while the producer advances it.
type fakeClock struct{ ns atomic.Int64 }

func (c *fakeClock) now() time.Time          { return time.Unix(0, c.ns.Load()).UTC() }
func (c *fakeClock) advance(d time.Duration) { c.ns.Add(int64(d)) }

// daemonInput is the generated stream: the schema the daemon resolves
// observations against and the POST bodies, batch by batch.
type daemonInput struct {
	schema  *workload.Workload
	batches [][]drift.Observation
	bodies  [][]byte
	// undrifted is the index of phase 0's last batch.
	undrifted int
}

func buildDaemonInput(path string, tr *tracer, run string) (*daemonInput, error) {
	var erp *workload.Workload
	var phases []*workload.Workload
	if err := tr.do(run, "workload.gen", 0, func() (err error) {
		if erp, err = workload.GenerateERP(workload.DefaultERPConfig()); err != nil {
			return err
		}
		cur := erp
		for p := 0; p < daemonPhases; p++ {
			if p > 0 {
				if cur, err = workload.PerturbTemplates(cur, daemonSeed+100+int64(p), daemonPerturb, daemonPerturb); err != nil {
					return err
				}
			}
			phases = append(phases, cur)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	if err := writeWorkload(path, erp); err != nil {
		return nil, err
	}
	in := &daemonInput{}
	if err := tr.do(run, "workload.read", 0, func() (err error) {
		in.schema, err = readWorkload(path)
		return err
	}); err != nil {
		return nil, err
	}
	for p, w := range phases {
		if p == 1 {
			in.undrifted = len(in.batches) - 1
		}
		for start := 0; start < len(w.Queries); start += daemonBatch {
			var batch []drift.Observation
			for _, q := range w.Queries[start:min(start+daemonBatch, len(w.Queries))] {
				obs := drift.Observation{Table: w.Tables[q.Table].Name, Kind: q.Kind.String(), Count: q.Freq}
				for _, a := range q.Attrs {
					obs.Attrs = append(obs.Attrs, w.Attr(a).Name)
				}
				batch = append(batch, obs)
			}
			body, err := json.Marshal(batch)
			if err != nil {
				return nil, err
			}
			in.batches = append(in.batches, batch)
			in.bodies = append(in.bodies, body)
		}
	}
	return in, nil
}

// daemonCounters reads the daemon's process-wide counters; a pass reports
// their deltas.
type daemonCounters struct {
	retunes, applied, rejected, failures, throttled, malformed int64
}

func readDaemonCounters() daemonCounters {
	reg := telemetry.Default()
	v := func(name string) int64 { return reg.Counter(name, "").Value() }
	return daemonCounters{
		retunes:   v("indexsel_daemon_retunes_total"),
		applied:   v("indexsel_daemon_deltas_applied_total"),
		rejected:  v("indexsel_daemon_deltas_rejected_total"),
		failures:  v("indexsel_daemon_retune_failures_total"),
		throttled: v("indexsel_daemon_throttled_total"),
		malformed: v("indexsel_daemon_observations_malformed_total"),
	}
}

func (a daemonCounters) minus(b daemonCounters) daemonCounters {
	return daemonCounters{a.retunes - b.retunes, a.applied - b.applied, a.rejected - b.rejected,
		a.failures - b.failures, a.throttled - b.throttled, a.malformed - b.malformed}
}

// daemonPass is one drained stream.
type daemonPass struct {
	d          *indexsel.TuningDaemon
	dir        string
	clock      *fakeClock
	counters   daemonCounters
	badBatches int64
	observeMS  []float64 // batches that triggered no retune
	retuneS    []float64 // batches that triggered a retune
	statusMS   []float64 // from each probe's due time
	lateMS     []float64 // how late each probe was sent
	badStatus  int64
	// undrifted is the deployed set at the end of phase 0.
	undrifted workload.Selection

	// Traced passes only: the spans open at the moment and one timed cost
	// source per retune.
	tr                          *tracer
	runID                       string
	mu                          sync.Mutex
	batchSpan, planSpan, opSpan int
	sources                     []*timedSource
}

// startDaemon builds a daemon on a fresh journal directory, in the order
// serve uses (New, Fresh, Resume); run starts it. With a tracer, the
// daemon's WrapSource and ApplyHook mark where each retune's planning ends
// and each state op of the apply: the daemon builds its cost source right
// after the drift check fires, calls ApplyHook(0) once the intent is
// journaled and again after every state op.
func startDaemon(in *daemonInput, dir string, tr *tracer, run string) (*daemonPass, error) {
	p := &daemonPass{clock: &fakeClock{}, dir: dir, tr: tr, runID: run}
	p.clock.ns.Store(daemonEpoch.UnixNano())
	dc := indexsel.DaemonConfig{Schema: in.schema, Dir: dir, Clock: p.clock.now, Parallelism: 1, Seed: daemonSeed}
	if tr != nil {
		dc.WrapSource = func(src whatif.Source) whatif.Source {
			ts := &timedSource{src: src}
			p.mu.Lock()
			defer p.mu.Unlock()
			p.sources = append(p.sources, ts)
			p.planSpan = tr.start(run, "drift.plan", p.batchSpan)
			return ts
		}
		dc.ApplyHook = func(opsDone int) error {
			p.mu.Lock()
			defer p.mu.Unlock()
			if opsDone == 0 {
				p.endPlan()
			} else {
				tr.end(p.opSpan, 0)
			}
			p.opSpan = tr.start(run, "service.apply.op", p.batchSpan)
			return nil
		}
	}
	d, err := indexsel.NewTuningDaemon(dc)
	if err != nil {
		return nil, err
	}
	if fresh, err := d.Fresh(); err != nil || !fresh {
		d.Stop()
		return nil, fmt.Errorf("journal %s is not fresh (%v)", dir, err)
	}
	if _, err := d.Resume(); err != nil {
		d.Stop()
		return nil, err
	}
	p.d = d
	return p, nil
}

// endPlan closes the open planning span, if any. Callers hold p.mu.
func (p *daemonPass) endPlan() {
	if p.planSpan != 0 {
		p.tr.end(p.planSpan, p.sources[len(p.sources)-1].busy.Load())
		p.planSpan = 0
	}
}

// run drains the stream: a closed-loop producer POSTs each batch and
// Flushes, while an open-loop prober GETs /status every 20 ms.
func (p *daemonPass) run(in *daemonInput) {
	h := p.d.Handler()
	before := readDaemonCounters()
	p.d.Start()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		p.probe(h, stop)
	}()
	for k, body := range in.bodies {
		p.clock.advance(daemonTick)
		r0 := readDaemonCounters().retunes
		p.mu.Lock()
		p.batchSpan = p.tr.start(p.runID, "daemon.observe", 0)
		p.mu.Unlock()
		t0 := time.Now()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/observe", bytes.NewReader(body)))
		if rec.Code != http.StatusAccepted {
			p.badBatches++
		}
		p.d.Flush()
		lat := time.Since(t0)
		p.mu.Lock()
		p.endPlan() // a retune that planned but applied nothing
		if p.opSpan != 0 {
			p.tr.end(p.opSpan, 0)
			p.opSpan = 0
		}
		p.tr.end(p.batchSpan, 0)
		p.mu.Unlock()
		if k == in.undrifted {
			p.undrifted = p.d.Deployed()
		}
		if readDaemonCounters().retunes > r0 {
			p.retuneS = append(p.retuneS, lat.Seconds())
		} else {
			p.observeMS = append(p.observeMS, float64(lat.Microseconds())/1e3)
		}
	}
	close(stop)
	wg.Wait()
	p.counters = readDaemonCounters().minus(before)
}

// probe GETs /status on a fixed schedule until stop closes. A probe that
// is due while an earlier one is still blocked is sent late and timed from
// its due time, so a stall counts against every request it delays.
func (p *daemonPass) probe(h http.Handler, stop <-chan struct{}) {
	start := time.Now()
	timer := time.NewTimer(0)
	defer timer.Stop()
	<-timer.C
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * daemonProbeEvery)
		if wait := time.Until(due); wait > 0 {
			timer.Reset(wait)
			select {
			case <-stop:
				return
			case <-timer.C:
			}
		} else {
			select {
			case <-stop:
				return
			default:
			}
		}
		sent := time.Now()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/status", nil))
		p.statusMS = append(p.statusMS, float64(time.Since(due).Microseconds())/1e3)
		p.lateMS = append(p.lateMS, float64(sent.Sub(due).Microseconds())/1e3)
		if rec.Code != http.StatusOK {
			p.badStatus++
		}
	}
}

// runDaemonDrift times one drained stream through a TuningDaemon driven
// in-process through its HTTP handler.
func runDaemonDrift(cfg config) (*outcome, error) {
	o := newOutcome()
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	schemaPath := filepath.Join(cfg.dir, "erp-schema.json")
	var in *daemonInput
	var next *daemonPass
	journal := func(run string, i int) string { return filepath.Join(cfg.dir, fmt.Sprintf("journal-%s-%d", run, i)) }
	setupS, err := setupRuns(func(i int) error {
		if next != nil {
			next.d.Stop()
		}
		var err error
		run := fmt.Sprintf("setup-%d", i)
		if in, err = buildDaemonInput(schemaPath, tr, run); err != nil {
			return err
		}
		next, err = startDaemon(in, journal(run, i), nil, "")
		return err
	})
	if err != nil {
		return nil, err
	}

	passes := map[string][]*daemonPass{}
	loop := func(budget time.Duration, label string, tr *tracer) ([]sample, error) {
		return measureLoop(budget, 1, func(i int) error {
			p := next
			next = nil
			if p == nil {
				var err error
				if p, err = startDaemon(in, journal(label, i), tr, fmt.Sprintf("%s-%d", label, i)); err != nil {
					return err
				}
			}
			p.run(in)
			passes[label] = append(passes[label], p)
			return nil
		})
	}
	untracedBudget, tracedBudget := phases(cfg)
	untraced, err := loop(untracedBudget, "untraced", nil)
	if err != nil {
		return nil, err
	}
	var traced []sample
	if cfg.trace {
		if traced, err = loop(tracedBudget, "iter", tr); err != nil {
			return nil, err
		}
	}
	fillE2E(o, setupS, untraced, traced, 1)

	// Latencies come from the untraced passes.
	var observeMS, retuneS, statusMS, lateMS []float64
	for _, p := range passes["untraced"] {
		observeMS = append(observeMS, p.observeMS...)
		retuneS = append(retuneS, p.retuneS...)
		statusMS = append(statusMS, p.statusMS...)
		lateMS = append(lateMS, p.lateMS...)
	}
	lat := map[string]float64{
		"observe_p50_ms":     quantile(observeMS, 0.5),
		"retune_p50_s":       quantile(retuneS, 0.5),
		"status_p50_ms":      quantile(statusMS, 0.5),
		"status_p99_ms":      quantile(statusMS, 0.99),
		"status_late_p99_ms": quantile(lateMS, 0.99),
	}
	for k, v := range lat {
		o.info[k] = v
		o.layer[k] = v
	}

	// Checks and accounting, every pass.
	var final *daemonPass
	for _, label := range []string{"untraced", "iter"} {
		for _, p := range passes[label] {
			final = p
			c := p.counters
			o.attempted += int64(len(in.bodies)) + int64(len(p.statusMS)) + c.retunes
			o.failed += p.badBatches + p.badStatus + c.failures + c.rejected
			o.check(label+"-batches-accepted", p.badBatches == 0 && c.throttled == 0 && c.malformed == 0,
				"%d non-202 batches, %d throttled, %d malformed observations", p.badBatches, c.throttled, c.malformed)
			o.check(label+"-status-ok", p.badStatus == 0, "%d of %d /status probes not 200", p.badStatus, len(p.statusMS))
			recs, err := p.d.Store().Records()
			if err != nil {
				return nil, err
			}
			commits := 0
			for _, r := range recs {
				if r.Type == service.RecCommit {
					commits++
				}
			}
			o.check(label+"-commits-match", int64(commits) == c.applied && c.retunes > 0,
				"%d journal commits, %d deltas applied, %d retunes", commits, c.applied, c.retunes)
			deployed := keysOf(p.d.Deployed())
			p.d.Stop()

			// Reopen the journal as a restarted daemon would.
			d2, err := indexsel.NewTuningDaemon(indexsel.DaemonConfig{Schema: in.schema, Dir: p.dir, Clock: p.clock.now, Seed: daemonSeed})
			if err != nil {
				return nil, err
			}
			t0 := time.Now()
			_, err = d2.Resume()
			recoverS := time.Since(t0).Seconds()
			resumed := keysOf(d2.Deployed())
			d2.Stop()
			o.check(label+"-resume-deployed", err == nil && slices.Equal(deployed, resumed),
				"resume error %v, %d deployed before, %d after", err, len(deployed), len(resumed))
			if label == "iter" {
				info, err := os.Stat(filepath.Join(p.dir, "journal.jsonl"))
				if err != nil {
					return nil, err
				}
				o.layer["service.recover_s"] = recoverS
				o.layer["service.commits"] = float64(commits)
				o.layer["service.journal_bytes_per_commit"] = float64(info.Size()) / float64(max(1, commits))
				o.layer["drift.retunes"] = float64(c.retunes)
				o.layer["drift.rejected"] = float64(c.rejected)
				var calls, busy int64
				for _, ts := range p.sources {
					calls += ts.calls.Load()
					busy += ts.busy.Load()
				}
				o.layer["costmodel.calls"] = float64(calls)
				o.layer["costmodel.busy_s"] = float64(busy) / 1e9
			}
		}
	}

	// The drift layer alone: the same batches replayed into a standalone
	// window at the same clock, with the per-batch drift check timed.
	win := drift.NewWindow(in.schema, drift.WindowConfig{HalfLife: time.Hour})
	at := daemonEpoch
	var observeS, snapshotS, profileS float64
	var baseline *drift.Profile
	var rel float64
	for k, batch := range in.batches {
		at = at.Add(daemonTick)
		t0 := time.Now()
		for _, obs := range batch {
			if err := win.Observe(obs, at); err != nil {
				return nil, fmt.Errorf("replay: %w", err)
			}
		}
		t1 := time.Now()
		observeS += t1.Sub(t0).Seconds()
		if k == in.undrifted {
			ad := indexsel.NewAdvisor(win.Snapshot(at))
			base, _ := ad.Evaluate(workload.Selection{})
			cost, _ := ad.Evaluate(final.undrifted)
			rel = cost / base
			t1 = time.Now()
		}
		if cfg.trace {
			snap := win.Snapshot(at)
			t2 := time.Now()
			model := costmodel.New(snap, costmodel.SingleIndex)
			prof := drift.NewProfile(snap, model.BaseCost)
			if baseline == nil {
				baseline = prof
			}
			drift.Compare(baseline, prof)
			profileS += time.Since(t2).Seconds()
			snapshotS += t2.Sub(t1).Seconds()
		}
	}
	if cfg.trace {
		o.layer["drift.observe_s"] = observeS
		o.layer["drift.snapshot_s"] = snapshotS
		o.layer["drift.profile_s"] = profileS
		o.layer["drift.window_templates"] = float64(win.Len())
		o.layer["workload.gen_s"] = tr.layerSeconds("setup", "workload.gen", false)
		o.layer["workload.read_s"] = tr.layerSeconds("setup", "workload.read", false)
		o.layer["workload.read_calls"] = tr.count("setup", "workload.read")
		o.layer["drift.plan_s"] = tr.layerSeconds("iter", "drift.plan", false)
		o.layer["core.self_s"] = tr.layerSeconds("iter", "drift.plan", true)
		o.layer["service.apply_s"] = tr.layerSeconds("iter", "service.apply.op", false)
		zeroLayers(o)
		if err := tr.write(cfg.spanDir, "daemon-drift", cfg.seed); err != nil {
			return nil, err
		}
	}

	// rel_cost: the deployed set at the end of phase 0 on the window then.
	// The final set on the final window moves by up to 2x between drift
	// seeds with the few uncovered templates that arrived after the last
	// retune; the undrifted phase measures the daemon's own decisions.
	o.e2e["rel_cost"] = rel
	o.check("deployed-helps", rel > 0 && rel < 1, "deployed/no-index cost ratio %.6g after phase 0", rel)
	return o, nil
}

func keysOf(sel workload.Selection) []string {
	keys := make([]string, 0, len(sel))
	for k := range sel {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
