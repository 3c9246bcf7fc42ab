// Package-level telemetry for Algorithm 1. All metrics live in the default
// registry and are updated once per construction step (never per candidate),
// so the cost is a handful of atomic operations amortized over thousands of
// candidate evaluations — unmeasurable next to the step itself.
package core

import "repro/internal/telemetry"

var (
	mSteps = telemetry.Default().Counter("indexsel_extend_steps_total",
		"Construction steps applied by Algorithm 1 (all step kinds).")
	mStepDur = telemetry.Default().Histogram("indexsel_extend_step_duration_seconds",
		"Wall time per Algorithm-1 construction step (decide + apply).", nil)
	mEvaluated = telemetry.Default().Counter("indexsel_extend_candidates_evaluated_total",
		"Candidate steps whose gain was (re)computed.")
	mCacheServed = telemetry.Default().Counter("indexsel_extend_candidates_cache_served_total",
		"Candidate steps served from the incremental gain cache.")
	mRuns = telemetry.Default().Counter("indexsel_extend_runs_total",
		"Completed Algorithm-1 runs.")
	mLazyEvalsSaved = telemetry.Default().Counter("indexsel_lazy_evals_saved_total",
		"Candidate evaluations the lazy (CELF) loop skipped because their gain upper bound could not beat the step's winner.")
	mLazyHeapDepth = telemetry.Default().Gauge("indexsel_lazy_heap_depth",
		"Peak lazy-loop priority-queue depth of the most recent construction step: bucket sentinels not yet opened plus candidate entries pushed from opened buckets.")
	mLazyApproxSteps = telemetry.Default().Counter("indexsel_lazy_approx_steps_total",
		"Construction steps whose lazy loop stopped via the relaxed Options.Approximate cut (the decision may deviate from exact mode).")
)
