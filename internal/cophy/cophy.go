// Package cophy re-implements CoPhy's linear-programming index-selection
// approach (Dash et al., PVLDB 2011) as formalized in Section II-B of the
// paper, eqs. (5)-(8): given a fixed candidate set I, pick x_k ∈ {0,1} and
// per-query assignments z_jk minimizing total workload cost under a memory
// budget, with at most one index per query.
//
// Two solve paths are provided:
//
//   - an explicit LP/MIP over package lp (the faithful formulation; also the
//     source of the paper's Figure-6 variable/constraint accounting), used
//     when the model is small enough to materialize;
//   - a combinatorial branch-and-bound over x alone that exploits the
//     structure "for fixed x, each query takes its cheapest selected
//     applicable index", used for larger candidate sets.
//
// Both honor a mip-gap and a deadline and report DNF ("did not finish") when
// the deadline strikes first — reproducing the scaling behaviour of Table I.
package cophy

import (
	"context"
	"fmt"
	"log/slog"
	"math"
	"time"

	"repro/internal/explain"
	"repro/internal/fault"
	"repro/internal/lp"
	"repro/internal/telemetry"
	"repro/internal/whatif"
	"repro/internal/workload"
)

// Solve-level telemetry (default registry; one update per solve phase).
var (
	mSolves = telemetry.Default().Counter("indexsel_cophy_solves_total",
		"Completed CoPhy solves.")
	mSolveDur = telemetry.Default().Histogram("indexsel_cophy_solve_duration_seconds",
		"Wall time of the CoPhy solve phase (excluding model build).", nil)
	mNodes = telemetry.Default().Counter("indexsel_cophy_nodes_total",
		"Branch-and-bound nodes explored across solves.")
	mDNF = telemetry.Default().Counter("indexsel_cophy_dnf_total",
		"CoPhy solves aborted by the time limit (DNF).")
)

// Options configures a CoPhy solve.
type Options struct {
	// Budget is the memory budget A in bytes (must be positive).
	Budget int64
	// Gap is the relative optimality gap (the paper uses mipgap=0.05).
	Gap float64
	// TimeLimit aborts the solve; zero means none. On abort the best
	// incumbent found is returned with Stats.DNF set.
	TimeLimit time.Duration
	// Context, if non-nil, cancels the solve with the same graceful
	// degradation as TimeLimit: the model build truncates its candidate loop,
	// the explicit-LP path forwards cancellation into the branch-and-bound
	// reducer, the combinatorial search polls it between nodes, and the best
	// incumbent found (greedy at worst) is returned with Stats.DNF set. The
	// context's own deadline (if earlier than TimeLimit's) wins.
	Context context.Context
	// MaxLPSize bounds the number of LP variables for the explicit-LP path;
	// larger models switch to the combinatorial branch and bound.
	// Zero means 5000.
	MaxLPSize int
	// ForceLP forces the explicit LP path regardless of size; ForceCombinatorial
	// forces the combinatorial path. Setting both is an error.
	ForceLP            bool
	ForceCombinatorial bool
	// MaxDirectLPSize bounds the number of LP variables the explicit-LP path
	// materializes in full. Larger models are solved by sifting: a
	// Lagrangian dual ascent picks a candidate restriction, the restricted
	// MIP starts from the greedy incumbent, and the ascent (or root-dual)
	// bound certifies the result over the full candidate set. Zero means
	// 40000.
	MaxDirectLPSize int
	// DominanceReduction removes globally dominated candidates before
	// solving when the candidate set is at most MaxDominanceSize. It never
	// changes the optimum, only the search size.
	DominanceReduction bool
	// MaxDominanceSize bounds the candidate count for the (quadratic)
	// dominance filter; zero means 4000.
	MaxDominanceSize int
	// Parallelism is the number of worker goroutines the explicit-LP
	// branch and bound uses for node LP solves; 0 means GOMAXPROCS.
	// Results are bit-identical at any setting.
	Parallelism int
	// Span, if non-nil, is the parent telemetry span; the solve records one
	// child span per phase (cophy.build, cophy.reduce, cophy.solve) under it.
	Span *telemetry.Span
	// Explain records the solve's optimality certificate (incumbent, proven
	// bound, gap, node count, root LP objective and budget shadow price) on
	// Result.Provenance and the cophy.solve span. It changes nothing about
	// the search — the certificate is read off state the solve already
	// computes.
	Explain bool
}

// Stats reports the solve's size and effort.
type Stats struct {
	// Vars and Constraints are the LP dimensions per the paper's counting:
	// |I| + sum_j |I_j ∪ 0| variables and Q + sum_j |I_j| + 1 constraints,
	// with I_j the candidates whose leading attribute occurs in q_j.
	Vars, Constraints int
	// WhatIfCalls is the number of cost evaluations performed to populate
	// the model's f_j(k) coefficients (≈ Q * q-bar * |I| / N, eq. (9)).
	WhatIfCalls int64
	// Nodes is the number of branch-and-bound nodes explored.
	Nodes int
	// SimplexIters and Refactorizations are the explicit-LP path's simplex
	// iterations and basis refactorizations across all node LPs (zero on
	// the combinatorial path). Together with Nodes they fingerprint the
	// solver's pivot sequence.
	SimplexIters, Refactorizations int
	// Elapsed is the wall-clock solve time (excluding what-if calls).
	Elapsed time.Duration
	// Gap is the final relative optimality gap.
	Gap float64
	// DNF reports that the time limit struck before the gap was proven.
	DNF bool
	// UsedLP reports which path ran (true: explicit LP, false: combinatorial).
	UsedLP bool
}

// Result is a CoPhy selection.
type Result struct {
	Selection workload.Selection
	// Cost is F(I*) in the single-index setting.
	Cost float64
	// Memory is P(I*).
	Memory int64
	Stats  Stats
	// Provenance is the solve certificate, non-nil only under
	// Options.Explain.
	Provenance *explain.SolveProvenance
}

// Solve runs CoPhy over the candidate set.
//
// Solve never lets a panic escape: a panic during the model build, a node LP
// solve, or the combinatorial search is recovered and returned as a
// *fault.WorkerPanicError.
func Solve(w *workload.Workload, opt *whatif.Optimizer, cands []workload.Index, opts Options) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fault.AsPanicError("cophy.Solve", r)
		}
	}()
	if opts.Budget <= 0 {
		return nil, fmt.Errorf("cophy: budget must be positive (got %d)", opts.Budget)
	}
	if opts.ForceLP && opts.ForceCombinatorial {
		return nil, fmt.Errorf("cophy: ForceLP and ForceCombinatorial are mutually exclusive")
	}
	// The build phase honors only the context (TimeLimit is a solve-phase
	// budget): cancellation truncates the candidate loop, and the solve then
	// degrades over the candidates built so far.
	buildStop := fault.NewStopper(opts.Context, time.Time{})
	bsp := opts.Span.Child("cophy.build")
	ins := buildInstance(w, opt, cands, buildStop)
	stats := Stats{
		Vars:        ins.paperVars,
		Constraints: ins.paperConstraints,
		WhatIfCalls: ins.whatIfCalls,
	}
	bsp.SetInt("candidates", int64(len(cands)))
	bsp.SetInt("vars", int64(stats.Vars))
	bsp.SetInt("constraints", int64(stats.Constraints))
	bsp.SetInt("whatif_calls", stats.WhatIfCalls)
	bsp.End()
	if opts.Explain {
		ins.prov = &explain.SolveProvenance{}
	}

	if opts.DominanceReduction {
		limit := opts.MaxDominanceSize
		if limit == 0 {
			limit = 4000
		}
		if len(ins.cands) <= limit {
			rsp := opts.Span.Child("cophy.reduce")
			before := len(ins.cands)
			ins.reduceDominated()
			rsp.SetInt("candidates_before", int64(before))
			rsp.SetInt("candidates_after", int64(len(ins.cands)))
			rsp.End()
		}
	}

	maxLP := opts.MaxLPSize
	if maxLP == 0 {
		maxLP = 5000
	}
	useLP := opts.ForceLP || (!opts.ForceCombinatorial && ins.lpVars() <= maxLP)

	ssp := opts.Span.Child("cophy.solve")
	start := time.Now()
	var deadline time.Time
	if opts.TimeLimit > 0 {
		deadline = start.Add(opts.TimeLimit)
	}
	// stop merges TimeLimit and the context (including the context's own
	// deadline) for the solve phase.
	stop := fault.NewStopper(opts.Context, deadline)
	var (
		chosen []int
		cost   float64
		nodes  int
		gap    float64
		dnf    bool
		serr   error
	)
	if useLP {
		directCap := opts.MaxDirectLPSize
		if directCap == 0 {
			directCap = 40_000
		}
		chosen, cost, nodes, gap, dnf, serr = ins.solveLP(opts.Budget, opts.Gap, stop, opts.Parallelism, directCap, ssp, &stats)
	} else {
		chosen, cost, nodes, gap, dnf = ins.solveCombinatorial(opts.Budget, opts.Gap, stop)
	}
	if serr != nil {
		ssp.Discard()
		return nil, serr
	}
	if ins.truncated {
		// A cancelled build means the solve ran over a candidate subset; the
		// result is feasible but not a certificate over the full set.
		dnf = true
	}
	stats.Elapsed = time.Since(start)
	stats.Nodes = nodes
	stats.Gap = gap
	stats.DNF = dnf
	stats.UsedLP = useLP

	if ins.prov != nil {
		p := ins.prov
		p.UsedLP = useLP
		p.Candidates = len(ins.cands)
		p.Vars = stats.Vars
		p.Constraints = stats.Constraints
		p.Nodes = nodes
		p.Incumbent = cost
		p.DNF = dnf
		// Gap can be +Inf when no bound was proven (DNF before the root
		// solved); the record stays JSON-marshalable by carrying the
		// certificate only when it exists.
		if !math.IsInf(gap, 1) && !math.IsNaN(gap) {
			p.Gap = gap
			p.Bound = cost - gap*math.Abs(cost)
		}
		ssp.SetAny("provenance", *p)
	}
	ssp.SetBool("used_lp", useLP)
	ssp.SetInt("nodes", int64(nodes))
	ssp.SetFloat("gap", gap)
	ssp.SetBool("dnf", dnf)
	ssp.SetInt("selected", int64(len(chosen)))
	ssp.End()
	mSolves.Inc()
	mSolveDur.Observe(stats.Elapsed.Seconds())
	mNodes.Add(int64(nodes))
	if dnf {
		mDNF.Inc()
	}
	if lg := telemetry.L(); lg.Enabled(context.Background(), slog.LevelDebug) {
		lg.Debug("cophy solve complete",
			"candidates", len(cands), "used_lp", useLP, "nodes", nodes,
			"gap", gap, "dnf", dnf, "elapsed", stats.Elapsed)
	}

	sel := workload.NewSelection()
	var mem int64
	for _, ci := range chosen {
		sel.Add(ins.cands[ci].index)
		mem += ins.cands[ci].size
	}
	return &Result{Selection: sel, Cost: cost, Memory: mem, Stats: stats, Provenance: ins.prov}, nil
}

// ModelSize reports the LP dimensions and what-if cost of CoPhy's
// formulation for the candidate set without solving it — the accounting
// behind the paper's Figure 6.
func ModelSize(w *workload.Workload, opt *whatif.Optimizer, cands []workload.Index) Stats {
	ins := buildInstance(w, opt, cands, nil)
	return Stats{
		Vars:        ins.paperVars,
		Constraints: ins.paperConstraints,
		WhatIfCalls: ins.whatIfCalls,
	}
}

// instance is the preprocessed problem: per-query applicable candidates with
// their cost coefficients.
type instance struct {
	w     *workload.Workload
	cands []candInfo
	// perQuery[j] lists (candidate index, f_j(k)) for candidates applicable
	// to query j with f_j(k) < f_j(0); base[j] is f_j(0).
	perQuery [][]assign
	base     []float64
	freq     []float64

	paperVars        int
	paperConstraints int
	whatIfCalls      int64

	// truncated reports that the build was cut short by cancellation: the
	// instance covers a prefix of the candidate set, so any solve over it is
	// feasible but DNF with respect to the full set.
	truncated bool

	// prov, when non-nil, collects the solve certificate; the LP paths add
	// the root-relaxation fields (objective, budget dual) as they compute
	// them.
	prov *explain.SolveProvenance
}

type candInfo struct {
	index workload.Index
	size  int64
	// queries lists (query ID, cost) pairs where this candidate improves on
	// the base cost (read paths only).
	queries []assign
	// writeCost is the frequency-weighted maintenance burden the workload's
	// write templates impose once this candidate is selected. It enters the
	// objective as a coefficient on x_k.
	writeCost float64
}

type assign struct {
	other int // candidate index (in perQuery) or query ID (in candInfo)
	cost  float64
}

// buildInstance preprocesses the candidate set into the solve instance,
// performing one what-if call per applicable (query, candidate) pair — the
// expensive phase under measured sources. A non-nil stop truncates the
// candidate loop on cancellation: candidates built so far form a consistent
// (smaller) instance and ins.truncated is set.
func buildInstance(w *workload.Workload, opt *whatif.Optimizer, cands []workload.Index, stop *fault.Stopper) *instance {
	ins := &instance{
		w:        w,
		perQuery: make([][]assign, w.NumQueries()),
		base:     make([]float64, w.NumQueries()),
		freq:     make([]float64, w.NumQueries()),
	}
	before := opt.Stats()
	for _, q := range w.Queries {
		ins.base[q.ID] = opt.BaseCost(q)
		ins.freq[q.ID] = float64(q.Freq)
	}
	ins.cands = make([]candInfo, len(cands))
	paperIj := 0
	for ci, k := range cands {
		if stop.Check() != fault.StopNone {
			ins.cands = ins.cands[:ci]
			ins.truncated = true
			break
		}
		info := candInfo{index: k, size: opt.IndexSize(k)}
		for _, q := range w.Queries {
			if q.IsWrite() {
				info.writeCost += float64(q.Freq) * opt.MaintenanceCost(q, k)
			}
			if !workload.Applicable(q, k) {
				continue
			}
			paperIj++ // member of I_j by the leading-attribute rule
			c := opt.CostWithIndex(q, k)
			if c < ins.base[q.ID] {
				info.queries = append(info.queries, assign{q.ID, c})
				ins.perQuery[q.ID] = append(ins.perQuery[q.ID], assign{ci, c})
			}
		}
		ins.cands[ci] = info
	}
	after := opt.Stats()
	ins.whatIfCalls = after.Calls - before.Calls
	// Paper counting: |I| + sum_j(|I_j|+1) variables; Q + sum_j |I_j| + 1
	// constraints (eqs. (6)-(8) with the z_j0 option). A truncated build
	// counts the candidates actually materialized.
	ins.paperVars = len(ins.cands) + paperIj + w.NumQueries()
	ins.paperConstraints = w.NumQueries() + paperIj + 1
	return ins
}

// lpVars returns the size of the benefit-filtered explicit LP.
func (ins *instance) lpVars() int {
	n := len(ins.cands) + len(ins.perQuery)
	for _, pq := range ins.perQuery {
		n += len(pq)
	}
	return n
}

// reduceDominated drops candidates k for which another candidate k2 is no
// larger and at least as good for every query k improves (and strictly
// better in size or some cost, with a deterministic tie-break). Dominated
// candidates can be exchanged for their dominator in any feasible solution
// without losing quality, so removal preserves the optimum.
func (ins *instance) reduceDominated() {
	n := len(ins.cands)
	// Per-query cost lookup for dominance checks.
	costOf := make([]map[int]float64, n)
	for ci := range ins.cands {
		m := make(map[int]float64, len(ins.cands[ci].queries))
		for _, a := range ins.cands[ci].queries {
			m[a.other] = a.cost
		}
		costOf[ci] = m
	}
	dominated := make([]bool, n)
	for a := 0; a < n; a++ {
		if dominated[a] || len(ins.cands[a].queries) == 0 {
			if len(ins.cands[a].queries) == 0 {
				dominated[a] = true // helps no query at all
			}
			continue
		}
		for b := 0; b < n; b++ {
			if a == b || dominated[b] || ins.cands[b].size > ins.cands[a].size ||
				ins.cands[b].writeCost > ins.cands[a].writeCost+1e-12 {
				continue
			}
			if len(ins.cands[b].queries) < len(ins.cands[a].queries) {
				continue
			}
			dominatesAll := true
			strict := ins.cands[b].size < ins.cands[a].size
			for _, qa := range ins.cands[a].queries {
				cb, ok := costOf[b][qa.other]
				if !ok || cb > qa.cost {
					dominatesAll = false
					break
				}
				if cb < qa.cost {
					strict = true
				}
			}
			if dominatesAll && (strict || b < a) {
				dominated[a] = true
				break
			}
		}
	}
	keep := make([]candInfo, 0, n)
	remap := make([]int, n)
	for ci := range ins.cands {
		if dominated[ci] {
			remap[ci] = -1
			continue
		}
		remap[ci] = len(keep)
		keep = append(keep, ins.cands[ci])
	}
	ins.cands = keep
	for j := range ins.perQuery {
		filtered := ins.perQuery[j][:0]
		for _, a := range ins.perQuery[j] {
			if remap[a.other] >= 0 {
				a.other = remap[a.other]
				filtered = append(filtered, a)
			}
		}
		ins.perQuery[j] = filtered
	}
}

// solveLP materializes eqs. (5)-(8) and solves with the lp package's
// warm-started branch and bound. The greedy heuristic runs first: its
// objective seeds the MIP as a cutoff (pruning nodes before any incumbent
// exists) and serves as the fallback incumbent when the deadline strikes
// early. The reported gap is proven against the MIP's lower bound for
// whichever solution — MIP incumbent or greedy — is returned.
//
// The model is built in substituted form: the base-assignment variable is
// eliminated via z_j0 = 1 − Σ_k z_jk, turning constraint (6) into
// Σ_k z_jk ≤ 1 and shifting each z_jk's cost to freq·(f_j(k) − f_j(0)) ≤ 0
// plus a constant Σ freq·f_j(0). With every row a ≤ with nonnegative
// right-hand side, the all-slack basis is primal feasible at the "no
// indexes" vertex and the primal simplex descends directly — no equality
// phase-1 work on the 100k-row instances of Table I.
func (ins *instance) solveLP(budget int64, gap float64, stop *fault.Stopper, parallelism int, directCap int, span *telemetry.Span, stats *Stats) (chosen []int, cost float64, nodes int, finalGap float64, dnf bool, err error) {
	gChosen, gCost := ins.greedy(budget)
	if ins.lpVars() > directCap {
		return ins.solveLPSifted(gChosen, gCost, budget, gap, stop, parallelism, span, stats)
	}

	m := lp.NewModel()
	xVar := make([]int, len(ins.cands))
	memCols := make([]int32, len(ins.cands))
	memVals := make([]float64, len(ins.cands))
	for ci := range ins.cands {
		xVar[ci] = m.AddVar(ins.cands[ci].writeCost, fmt.Sprintf("x_%s", ins.cands[ci].index.Key()), 1, true)
		memCols[ci] = int32(xVar[ci])
		memVals[ci] = float64(ins.cands[ci].size)
	}
	var baseSum float64
	for j := range ins.base {
		baseSum += ins.freq[j] * ins.base[j]
	}
	// Shared backing storage: the per-(query, candidate) VUB rows dominate
	// the model (one row per pair), so their column slices come from one
	// preallocated arena and all rows share a single {1, -1} value pair and
	// a single all-ones vector.
	pairs := 0
	maxRow := 1
	for _, pq := range ins.perQuery {
		pairs += len(pq)
		if len(pq) > maxRow {
			maxRow = len(pq)
		}
	}
	pairCols := make([]int32, 0, 2*pairs)
	pairVals := []float64{1, -1}
	ones := make([]float64, maxRow)
	for i := range ones {
		ones[i] = 1
	}
	for j, pq := range ins.perQuery {
		row := make([]int32, 0, len(pq))
		for _, a := range pq {
			z := m.AddVar(ins.freq[j]*(a.cost-ins.base[j]), fmt.Sprintf("z_%d_%d", j, a.other), 1, false)
			row = append(row, int32(z))
			// z_jk <= x_k (constraint (7)).
			base := len(pairCols)
			pairCols = append(pairCols, int32(z), int32(xVar[a.other]))
			m.AddConstraintCols(pairCols[base:], pairVals, lp.LE, 0)
		}
		// sum_k z_jk <= 1 (constraint (6) with z_j0 substituted out).
		m.AddConstraintCols(row, ones[:len(row)], lp.LE, 1)
	}
	// Memory budget (constraint (8)) — the last row, so its root dual is the
	// budget's shadow price.
	budgetRow := m.NumConstraints()
	m.AddConstraintCols(memCols, memVals, lp.LE, float64(budget))

	// Slight inflation keeps an incumbent that exactly matches the greedy
	// objective from being pruned, so optimal-equal solutions still close
	// the gap through the incumbent path. The MIP works in the shifted
	// objective (total minus baseSum).
	cutoff := gCost - baseSum
	cutoff += 1e-9 + 1e-9*math.Abs(cutoff)
	// Crash the root LP at the greedy vertex: with every greedy-chosen x
	// starting at its bound the z ≤ x rows open up immediately, instead of
	// forcing a long run of degenerate pivots from the all-zero start.
	crash := make([]int, 0, len(gChosen))
	for _, ci := range gChosen {
		crash = append(crash, xVar[ci])
	}
	res, err := lp.SolveMIP(m, lp.MIPOptions{
		Gap:          gap,
		Deadline:     stop.Deadline(),
		Context:      stop.Context(),
		Parallelism:  parallelism,
		Cutoff:       cutoff,
		CrashAtUpper: crash,
		Span:         span,
	})
	if err != nil {
		return nil, 0, 0, 0, false, err
	}
	stats.SimplexIters, stats.Refactorizations = res.SimplexIters, res.Refactorizations
	if ins.prov != nil && res.RootDuals != nil {
		ins.prov.RootObjective = res.RootObjective + baseSum
		if d := -res.RootDuals[budgetRow]; d > 0 {
			ins.prov.BudgetDual = d
		}
	}
	cost = math.Inf(1)
	if res.Status == lp.Optimal {
		for ci := range ins.cands {
			if res.X[xVar[ci]] > 0.5 {
				chosen = append(chosen, ci)
			}
		}
		// Recompute the cost from the selection (z variables may leave slack
		// when an unused index is set).
		cost = ins.evalCost(chosen)
	}
	if gCost < cost {
		chosen, cost = gChosen, gCost
	}
	finalGap = math.Inf(1)
	if !math.IsInf(res.Bound, -1) && !math.IsInf(cost, 1) {
		bound := res.Bound + baseSum
		finalGap = 0
		if cost != 0 {
			finalGap = (cost - bound) / math.Abs(cost)
		}
		if finalGap < 0 {
			finalGap = 0
		}
	}
	return chosen, cost, res.Nodes, finalGap, res.DNF, nil
}

// evalCost returns F for the chosen candidate indices.
func (ins *instance) evalCost(chosen []int) float64 {
	selected := make(map[int]bool, len(chosen))
	for _, ci := range chosen {
		selected[ci] = true
	}
	var total float64
	for j, pq := range ins.perQuery {
		best := ins.base[j]
		for _, a := range pq {
			if selected[a.other] && a.cost < best {
				best = a.cost
			}
		}
		total += ins.freq[j] * best
	}
	for ci := range selected {
		total += ins.cands[ci].writeCost
	}
	return total
}

func (ins *instance) evalMem(chosen []int) int64 {
	var mem int64
	for _, ci := range chosen {
		mem += ins.cands[ci].size
	}
	return mem
}
