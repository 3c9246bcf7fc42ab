// Command perfbench is the repository's end-to-end benchmark: four workloads
// that together drive every layer of the advisor (Algorithm 1 on the paper's
// ERP instance, the streamed fleet, the drifting tuning daemon and the CoPhy
// LP), each with correctness checks on its outputs.
//
// Usage, from the repository root (perfbench/run.sh builds and runs it):
//
//	perfbench --workload erp-select --seed 7 --seconds 20 --trace 0
//	perfbench                      # every workload, each in its own process
//
// The last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
// are the end-to-end metrics, measured untraced; with --trace 1 they are the
// per-layer metrics, derived from spans the benchmark records around each
// call into a layer, plus the tracing overhead against an untraced pass of
// the same run. A failed correctness check exits 1 after printing the result.
// See perfbench/README.md for every metric, workload and check.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strings"
)

// config is one invocation's settings, shared by every workload.
type config struct {
	seed    int64
	seconds float64
	trace   bool
	// dir is this process's private scratch directory for input files,
	// spill files and journals; it is removed on exit.
	dir string
	// spanDir receives the span dump of a traced run.
	spanDir string
}

// check is one correctness check on a workload's outputs.
type check struct {
	name   string
	ok     bool
	detail string
}

// outcome is what a workload run reports.
type outcome struct {
	e2e   map[string]float64
	layer map[string]float64
	// info holds figures printed for people but not part of the JSON
	// result (for example the daemon latencies on an untraced run).
	info      map[string]float64
	attempted int64
	failed    int64
	checks    []check
	notes     []string
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}, info: map[string]float64{}}
}

func (o *outcome) check(name string, ok bool, format string, args ...any) {
	o.checks = append(o.checks, check{name: name, ok: ok, detail: fmt.Sprintf(format, args...)})
}

func (o *outcome) correct() bool {
	for _, c := range o.checks {
		if !c.ok {
			return false
		}
	}
	return len(o.checks) > 0
}

type workloadDef struct {
	name string
	run  func(cfg config) (*outcome, error)
}

// workloads in the order the all-workloads mode runs them.
var workloads = []workloadDef{
	{"erp-select", runERPSelect},
	{"fleet-stream", runFleetStream},
	{"daemon-drift", runDaemonDrift},
	{"cophy-lp", runCoPhyLP},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	name := flag.String("workload", "all", "workload to run: erp-select, fleet-stream, daemon-drift, cophy-lp or all")
	seed := flag.Int64("seed", 7, "seed of erp-select's frequency draws and fleet-stream's tenants")
	seconds := flag.Float64("seconds", 20, "measured time per run, in seconds")
	trace := flag.Int("trace", 0, "1 records spans and reports the per-layer metrics")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fatalf("--trace must be 0 or 1, got %d", *trace)
	}
	if *seconds <= 0 {
		fatalf("--seconds must be positive, got %g", *seconds)
	}
	if err := loadMetrics("BENCHMARK.json"); err != nil {
		fatalf("run from the repository root: %v", err)
	}
	if *name == "all" {
		os.Exit(runAll(*seed, *seconds, *trace))
	}
	var def *workloadDef
	for i := range workloads {
		if workloads[i].name == *name {
			def = &workloads[i]
		}
	}
	if def == nil {
		fatalf("unknown workload %q", *name)
	}

	// A GOGC inherited from the environment would change what the
	// alloc-heavy layers cost; the measurements assume the default target.
	debug.SetGCPercent(100)
	base, err := filepath.Abs(".bench_build")
	if err != nil {
		fatalf("%v", err)
	}
	dir := filepath.Join(base, "tmp", fmt.Sprintf("%s-%d", def.name, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatalf("%v", err)
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, dir: dir, spanDir: filepath.Join(base, "spans")}
	o, err := def.run(cfg)
	os.RemoveAll(dir)
	if err != nil {
		fatalf("%s: %v", def.name, err)
	}
	res := report(def.name, cfg, o)
	if !res.Correct {
		os.Exit(1)
	}
}

// report prints the human-readable lines and then the JSON result line.
func report(name string, cfg config, o *outcome) result {
	mode := "untraced"
	if cfg.trace {
		mode = "traced"
	}
	fmt.Printf("# %s seed=%d seconds=%g %s\n", name, cfg.seed, cfg.seconds, mode)
	res := result{Correct: o.correct(), Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricValue{}}
	defs, vals := endToEnd, o.e2e
	if cfg.trace {
		defs, vals = perLayer, o.layer
	}
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			fatalf("%s: metric %s was not measured", name, d.Name)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		fmt.Printf("%-34s %14.6g %-6s (%s is better)\n", d.Name, v, d.Unit, d.Better)
	}
	var infoKeys []string
	for k := range o.info {
		if cfg.trace {
			break
		}
		infoKeys = append(infoKeys, k)
	}
	sort.Strings(infoKeys)
	for _, k := range infoKeys {
		d := lookupMetric(k)
		fmt.Printf("%-34s %14.6g %-6s (%s is better)\n", k, o.info[k], d.Unit, d.Better)
	}
	for _, n := range o.notes {
		fmt.Println(n)
	}
	for _, c := range o.checks {
		status := "ok"
		if !c.ok {
			status = "FAIL"
		}
		fmt.Printf("check %-32s %-4s %s\n", c.name, status, c.detail)
	}
	fmt.Printf("operations attempted=%d failed=%d\n", o.attempted, o.failed)
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(line))
	return res
}

// runAll runs every workload in a process of its own (so peak_rss_mb is
// that workload's alone), passes their output through and prints a summary.
// It returns the exit code: 1 when any workload failed a check or errored.
func runAll(seed int64, seconds float64, trace int) int {
	self, err := os.Executable()
	if err != nil {
		fatalf("%v", err)
	}
	total := result{Correct: true, Metrics: map[string]metricValue{}}
	code := 0
	for _, def := range workloads {
		cmd := exec.Command(self, "--workload", def.name, "--seed", fmt.Sprint(seed),
			"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(trace))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		os.Stdout.Write(out)
		var last string
		sc := bufio.NewScanner(bytes.NewReader(out))
		for sc.Scan() {
			if strings.HasPrefix(sc.Text(), "{") {
				last = sc.Text()
			}
		}
		var res result
		if last == "" || json.Unmarshal([]byte(last), &res) != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s produced no result (%v)\n", def.name, err)
			total.Correct = false
			code = 1
			continue
		}
		if err != nil || !res.Correct {
			code = 1
		}
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, v := range res.Metrics {
			total.Metrics[def.name+"."+k] = v
		}
	}
	keys := make([]string, 0, len(total.Metrics))
	for k := range total.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Println("# summary")
	for _, k := range keys {
		m := total.Metrics[k]
		d := lookupMetric(k[strings.Index(k, ".")+1:])
		fmt.Printf("%-48s %14.6g %-6s (%s is better)\n", k, m.Value, m.Unit, d.Better)
	}
	line, _ := json.Marshal(total)
	fmt.Println(string(line))
	return code
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}
