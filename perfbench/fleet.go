package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

	indexsel "repro"
	"repro/internal/compress"
	"repro/internal/workload"
)

// The fleet: 4 schema families × 128 near-clone tenants of 5 tables × 20
// attributes × 20 templates per table, frequency skew 0.6, 2 templates
// dropped and 2 added per tenant (cmd/workloadgen's fleet recipe). The
// families' base workloads are fixed (generator seeds 1-4); the benchmark's
// seed draws the tenants from them. Seeded bases move the fleet's mean cost
// ratio by ~40% between seeds, which would drown any change in it.
const (
	fleetFamilies  = 4
	fleetPerFamily = 128
	fleetTables    = 5
	fleetAttrs     = 20
	fleetQueries   = 20
	fleetSkew      = 0.6
	fleetPerturb   = 2
	fleetShare     = 0.5
	fleetWorkers   = 2
	// fleetTableBudget bounds the idle what-if tables to about two
	// families' (~0.4 MB each once filled), below the four families'
	// combined bytes, so every run evicts, spills and restores.
	fleetTableBudget = 1 << 20
)

// fleetSample are the tenants re-run standalone to check the fleet's
// results bit for bit: the first of each family and a spread of others.
var fleetSample = []int{0, 1, 2, 3, 170, 341, 510, 511}

// runFleetStream times one TuneFleetStream over a manifest of workload JSON
// files, loaded lazily by each tenant's Load closure.
func runFleetStream(cfg config) (*outcome, error) {
	o := newOutcome()
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	tenants := fleetFamilies * fleetPerFamily
	dir := filepath.Join(cfg.dir, "tenants")
	paths := make([]string, tenants)
	setupS, err := setupRuns(func(i int) error {
		run := fmt.Sprintf("setup-%d", i)
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		for f := 0; f < fleetFamilies; f++ {
			var members []*workload.Workload
			if err := tr.do(run, "workload.gen", 0, func() error {
				gc := workload.DefaultGenConfig()
				gc.Tables, gc.AttrsPerTable, gc.QueriesPerTable = fleetTables, fleetAttrs, fleetQueries
				gc.Seed = int64(1 + f)
				base, err := workload.Generate(gc)
				if err != nil {
					return err
				}
				members, err = workload.TenantFamily(base, fleetPerFamily, cfg.seed+int64(f)*1000, fleetSkew)
				if err != nil {
					return err
				}
				for m := range members {
					members[m], err = workload.PerturbTemplates(members[m], cfg.seed+int64(f)*1000+int64(m), fleetPerturb, fleetPerturb)
					if err != nil {
						return err
					}
				}
				return nil
			}); err != nil {
				return err
			}
			// Families interleave in the manifest, so the scheduler moves
			// between clusters all run long and the table budget is
			// exercised throughout, not only at three family boundaries.
			for m, w := range members {
				k := m*fleetFamilies + f
				paths[k] = filepath.Join(dir, fmt.Sprintf("t%03d.json", k))
				if err := writeWorkload(paths[k], w); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	tune := func(run string, i int) (*indexsel.FleetResult, error) {
		root := tr.start(run, "fleet.tune", 0)
		defer tr.end(root, 0)
		specs := make([]indexsel.FleetTenantSpec, tenants)
		for k := range specs {
			p := paths[k]
			specs[k] = indexsel.FleetTenantSpec{
				ID:          fmt.Sprintf("t%03d", k),
				BudgetShare: fleetShare,
				Load: func() (*workload.Workload, error) {
					id := tr.start(run, "workload.read", root)
					defer tr.end(id, 0)
					return readWorkload(p)
				},
			}
		}
		res, err := indexsel.TuneFleetStream(context.Background(), specs, indexsel.FleetStreamOptions{
			FleetOptions: indexsel.FleetOptions{
				Workers:          fleetWorkers,
				Parallelism:      1,
				NearMatch:        true,
				TableBudgetBytes: fleetTableBudget,
				SpillDir:         filepath.Join(cfg.dir, fmt.Sprintf("spill-%s-%d", run, i)),
			},
		})
		o.attempted += int64(tenants)
		if err != nil {
			o.failed += int64(tenants)
			return nil, err
		}
		o.failed += int64(res.Failed())
		return res, nil
	}

	untracedBudget, tracedBudget := phases(cfg)
	var res *indexsel.FleetResult
	untraced, err := measureLoop(untracedBudget, 1, func(i int) (err error) {
		res, err = tune("untraced", i)
		return err
	})
	if err != nil {
		return nil, err
	}

	var traced []sample
	if cfg.trace {
		var tres *indexsel.FleetResult
		traced, err = measureLoop(tracedBudget, 1, func(i int) (err error) {
			tres, err = tune(fmt.Sprintf("iter-%d", i), i)
			return err
		})
		if err != nil {
			return nil, err
		}
		var steps, evaluated, served, pruned int
		var selectS float64
		var tenantMS []float64
		for _, t := range tres.Tenants {
			if t.Rec == nil {
				continue
			}
			steps += len(t.Rec.Steps)
			evaluated += t.Rec.Evaluated
			served += t.Rec.CacheServed
			pruned += t.Rec.Pruned
			selectS += t.Rec.Elapsed.Seconds()
			tenantMS = append(tenantMS, float64(t.Elapsed.Microseconds())/1e3)
		}
		o.layer["whatif.calls"] = float64(tres.SharedCalls)
		o.layer["whatif.hits"] = float64(tres.SharedHits)
		o.layer["whatif.hit_ratio"] = tres.HitRate()
		o.layer["core.steps"] = float64(steps)
		o.layer["core.evaluated"] = float64(evaluated)
		o.layer["core.cache_served"] = float64(served)
		o.layer["core.pruned"] = float64(pruned)
		o.layer["core.evaluated_per_step"] = float64(evaluated) / float64(max(1, steps))
		o.layer["core.self_s"] = selectS
		o.layer["workload.gen_s"] = tr.layerSeconds("setup", "workload.gen", false)
		o.layer["workload.read_s"] = tr.layerSeconds("iter", "workload.read", false)
		o.layer["workload.read_calls"] = tr.count("iter", "workload.read")
		o.layer["fleet.clusters"] = float64(tres.Clusters)
		o.layer["fleet.evictions"] = float64(tres.Evictions)
		o.layer["fleet.spills"] = float64(tres.Spills)
		o.layer["fleet.restores"] = float64(tres.Restores)
		o.layer["fleet.max_resident_table_mb"] = float64(tres.MaxResidentBytes) / 1e6
		o.layer["fleet.workload_peak_resident"] = float64(tres.WorkloadPeakResident)
		o.layer["fleet.tenant_p50_ms"] = quantile(tenantMS, 0.5)
		o.layer["fleet.tenant_p99_ms"] = quantile(tenantMS, 0.99)

		// Clustering on its own, over the same workloads the fleet loads.
		ws := make([]*workload.Workload, tenants)
		for k, p := range paths {
			if ws[k], err = readWorkload(p); err != nil {
				return nil, err
			}
		}
		var clusters []compress.NearClusterInfo
		tr.do("cluster", "compress.cluster", 0, func() error {
			clusters = compress.ClusterNear(ws, compress.DefaultNearMatchOverlap)
			return nil
		})
		o.layer["compress.cluster_s"] = tr.layerSeconds("cluster", "compress.cluster", false)
		o.check("clusters-agree", len(clusters) == tres.Clusters, "ClusterNear %d, fleet %d", len(clusters), tres.Clusters)
		zeroLayers(o)
		if err := tr.write(cfg.spanDir, "fleet-stream", cfg.seed); err != nil {
			return nil, err
		}
	}
	fillE2E(o, setupS, untraced, traced, tenants)

	var rel float64
	for _, t := range res.Tenants {
		if t.Rec != nil {
			rel += t.Rec.Cost / t.Rec.BaseCost
		}
	}
	o.e2e["rel_cost"] = rel / float64(tenants)

	o.check("no-failed-tenants", res.Failed() == 0, "%d of %d failed", res.Failed(), tenants)
	o.check("spills-and-restores", res.Spills > 0 && res.Restores > 0,
		"spills %d, restores %d, evictions %d", res.Spills, res.Restores, res.Evictions)
	mismatched := 0
	for _, k := range fleetSample {
		w, err := readWorkload(paths[k])
		if err != nil {
			return nil, err
		}
		o.attempted++
		ad := indexsel.NewAdvisor(w, indexsel.WithBudgetShare(fleetShare), indexsel.WithParallelism(1))
		alone, err := ad.Select(indexsel.StrategyExtend)
		if err != nil {
			o.failed++
			mismatched++
			continue
		}
		fr := res.Tenants[k].Rec
		if fr == nil || digest(fr.Steps, fr.Indexes, fr.Cost, fr.Memory) != digest(alone.Steps, alone.Indexes, alone.Cost, alone.Memory) {
			mismatched++
		}
	}
	o.check("standalone-identical", mismatched == 0, "%d of %d sampled tenants differ from a standalone run", mismatched, len(fleetSample))
	return o, nil
}
