package cophy

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/fault"
	"repro/internal/lp"
	"repro/internal/telemetry"
)

// This file is the sifting solve path for CoPhy models too large to hand to
// the MIP solver whole (the 100k-variable settings of Table I). Instead of
// materializing every (query, candidate) pair, it
//
//  1. runs a Lagrangian dual ascent on the budget-relaxed problem, which
//     yields both a lower bound valid over the FULL candidate set and a
//     per-candidate measure of how much dual support each candidate absorbs;
//  2. restricts the model to the candidates the ascent marks interesting
//     (plus each query's cheapest option and the greedy selection, so the
//     restriction always contains a known incumbent);
//  3. solves the restricted MIP with the greedy solution injected as the
//     starting incumbent, so gap-based termination works from the root node;
//  4. re-derives a full-model Lagrangian certificate from the restricted
//     root's duals and re-runs the density greedy over the root's fractional
//     support, which repairs the density rule's known knapsack failure mode.
//
// The restriction never invents solutions — any integral point of the
// restricted model is feasible for the full model at the same objective — so
// the returned selection is always valid; only the bound side needs (and
// gets) a full-model certificate.

const (
	// siftFracThreshold keeps candidates whose dual slack the ascent
	// consumed by at least this fraction.
	siftFracThreshold = 0.6
	// siftPruneMargin drops a (query, candidate) pair whose cost exceeds the
	// query's ascent dual by more than this fraction of the remaining
	// headroom to the base cost.
	siftPruneMargin = 0.3
	// siftAscentOps caps the ascent work per lambda evaluation (pass count
	// scales inversely with the pair count, floored at 8 passes).
	siftAscentOps = 80_000_000
)

// qoption is one (candidate, cost) option of a query in frequency-weighted
// units c_jk = freq_j * f_j(k).
type qoption struct {
	cost float64
	k    int32
}

// ascent is the Lagrangian dual machinery behind the sifting path: for any
// per-query duals v_j <= c_j0 and budget price lam >= 0,
//
//	sum_j v_j − lam*B − sum_k max(0, sum_j max(0, v_j − c_jk) − w_k − lam*s_k)
//
// is a lower bound on the total workload cost of every selection within the
// budget B (w_k is candidate k's write cost, s_k its size). The bound holds
// for arbitrary (v, lam), so it certifies the full candidate set no matter
// how the restricted model was chosen.
type ascent struct {
	ins    *instance
	budget int64
	perQ   [][]qoption // per query, sorted by cost ascending
	cap0   []float64   // c_j0 = freq_j * base_j
	v      []float64   // current per-query duals
	nextBP []int
	slack  []float64 // per-candidate remaining dual slack w_k + lam*s_k
	pairs  int
	passes int
}

func newAscent(ins *instance, budget int64) *ascent {
	a := &ascent{
		ins:    ins,
		budget: budget,
		perQ:   make([][]qoption, len(ins.perQuery)),
		cap0:   make([]float64, len(ins.perQuery)),
		v:      make([]float64, len(ins.perQuery)),
		nextBP: make([]int, len(ins.perQuery)),
		slack:  make([]float64, len(ins.cands)),
	}
	for j, pq := range ins.perQuery {
		a.cap0[j] = ins.freq[j] * ins.base[j]
		os := make([]qoption, 0, len(pq))
		for _, o := range pq {
			os = append(os, qoption{ins.freq[j] * o.cost, int32(o.other)})
		}
		sort.Slice(os, func(x, y int) bool {
			if os[x].cost != os[y].cost {
				return os[x].cost < os[y].cost
			}
			return os[x].k < os[y].k
		})
		a.perQ[j] = os
		a.pairs += len(os)
	}
	a.passes = 200
	if a.pairs > 0 && a.passes*a.pairs > siftAscentOps {
		a.passes = siftAscentOps / a.pairs
		if a.passes < 8 {
			a.passes = 8
		}
	}
	return a
}

// ascend maximizes the dual for a fixed budget price lam and returns the
// bound. Multi-pass: each pass raises every query's dual by at most one
// breakpoint segment, so early queries cannot starve later ones of slack.
func (a *ascent) ascend(lam float64) float64 {
	for k := range a.slack {
		a.slack[k] = a.ins.cands[k].writeCost + lam*float64(a.ins.cands[k].size)
	}
	for j, os := range a.perQ {
		if len(os) > 0 && os[0].cost < a.cap0[j] {
			a.v[j] = os[0].cost
			a.nextBP[j] = 0
		} else {
			a.v[j] = a.cap0[j]
			a.nextBP[j] = len(os)
		}
	}
	for pass := 0; pass < a.passes; pass++ {
		progress := false
		for j, os := range a.perQ {
			if a.v[j] >= a.cap0[j] {
				continue
			}
			i := a.nextBP[j]
			for i < len(os) && os[i].cost <= a.v[j] {
				i++
			}
			a.nextBP[j] = i
			next := a.cap0[j]
			if i < len(os) && os[i].cost < next {
				next = os[i].cost
			}
			delta := next - a.v[j]
			for _, o := range os[:i] {
				if a.slack[o.k] < delta {
					delta = a.slack[o.k]
				}
			}
			if delta <= 0 {
				continue
			}
			for _, o := range os[:i] {
				a.slack[o.k] -= delta
			}
			a.v[j] += delta
			progress = true
		}
		if !progress {
			break
		}
	}
	var sum float64
	for j := range a.v {
		sum += a.v[j]
	}
	return sum - lam*float64(a.budget)
}

// search scans a geometric lambda grid around the greedy solution's average
// savings density, then refines around the best point. It leaves the ascent
// state (v, slack) at the best lambda and returns (bound, lambda). The
// stopper is polled between grid points; on expiry or cancellation the best
// bound so far stands (it is valid regardless of how far the search got).
func (a *ascent) search(gCost, baseSum float64, stop *fault.Stopper) (float64, float64) {
	lavg := (baseSum - gCost) / float64(a.budget)
	if lavg <= 0 {
		lavg = 1 / float64(a.budget)
	}
	bestLB, bestLam := math.Inf(-1), 0.0
	expired := func() bool {
		return stop.Check() != fault.StopNone
	}
	for i := -14; i <= 3; i++ {
		lam := lavg * math.Pow(2, float64(i))
		if lb := a.ascend(lam); lb > bestLB {
			bestLB, bestLam = lb, lam
		}
		if expired() {
			break
		}
	}
	for f := 0.55; f < 1.9; f += 0.1 {
		if expired() {
			break
		}
		lam := bestLam * f
		if lb := a.ascend(lam); lb > bestLB {
			bestLB, bestLam = lb, lam
		}
	}
	// Restore the ascent state of the winner (cheap relative to the search).
	if lb := a.ascend(bestLam); lb > bestLB {
		bestLB = lb
	}
	return bestLB, bestLam
}

// consumedFrac returns, per candidate, the fraction of its dual slack
// w_k + lam*s_k the current ascent state consumed — the sifting signal for
// which candidates the dual "wants".
func (a *ascent) consumedFrac(lam float64) []float64 {
	frac := make([]float64, len(a.ins.cands))
	for k := range a.ins.cands {
		full := a.ins.cands[k].writeCost + lam*float64(a.ins.cands[k].size)
		if full > 0 {
			frac[k] = 1 - a.slack[k]/full
		}
	}
	return frac
}

// lagrangeBound evaluates the Lagrangian bound at arbitrary per-query duals
// vv (in frequency-weighted units, capped at c_j0) and budget price lam >= 0,
// over ALL candidates. Used to certify restricted-model duals globally.
func (ins *instance) lagrangeBound(vv []float64, lam float64, budget int64) float64 {
	var sum float64
	for j := range vv {
		sum += vv[j]
	}
	sum -= lam * float64(budget)
	for k := range ins.cands {
		var sup float64
		for _, a := range ins.cands[k].queries {
			cjk := ins.freq[a.other] * a.cost
			if vv[a.other] > cjk {
				sup += vv[a.other] - cjk
			}
		}
		over := sup - ins.cands[k].writeCost - lam*float64(ins.cands[k].size)
		if over > 0 {
			sum -= over
		}
	}
	return sum
}

// solveLPSifted is the large-model explicit-LP path: restrict, solve the
// restricted MIP from the greedy incumbent, certify against the full model.
func (ins *instance) solveLPSifted(gChosen []int, gCost float64, budget int64, gap float64, stop *fault.Stopper, parallelism int, span *telemetry.Span, stats *Stats) (chosen []int, cost float64, nodes int, finalGap float64, dnf bool, err error) {
	var baseSum float64
	for j := range ins.base {
		baseSum += ins.freq[j] * ins.base[j]
	}
	if ins.prov != nil {
		ins.prov.Sifted = true
	}

	asp := span.Child("cophy.ascent")
	asc := newAscent(ins, budget)
	ascBound, lam := asc.search(gCost, baseSum, stop)
	asp.SetFloat("bound", ascBound)
	asp.SetFloat("lambda", lam)
	asp.SetInt("passes", int64(asc.passes))
	asp.End()

	// Restriction: ascent support, plus each query's cheapest option, plus
	// the greedy selection (so the injected incumbent is representable).
	inR := make([]bool, len(ins.cands))
	nR := 0
	mark := func(k int) {
		if !inR[k] {
			inR[k] = true
			nR++
		}
	}
	for k, f := range asc.consumedFrac(lam) {
		if f >= siftFracThreshold {
			mark(k)
		}
	}
	for _, os := range asc.perQ {
		if len(os) > 0 {
			mark(int(os[0].k))
		}
	}
	gSet := make([]bool, len(ins.cands))
	for _, ci := range gChosen {
		gSet[ci] = true
		mark(ci)
	}

	// Restricted substituted model (same formulation as the direct path; see
	// solveLP). Pairs far above the query's ascent dual are pruned, except
	// for greedy-selected candidates, which the incumbent needs intact.
	ssp := span.Child("cophy.sift")
	mod := lp.NewModel()
	xVar := make([]int, len(ins.cands))
	var memCols []int32
	var memVals []float64
	for ci := range ins.cands {
		xVar[ci] = -1
		if inR[ci] {
			xVar[ci] = mod.AddVar(ins.cands[ci].writeCost, fmt.Sprintf("x_%s", ins.cands[ci].index.Key()), 1, true)
			memCols = append(memCols, int32(xVar[ci]))
			memVals = append(memVals, float64(ins.cands[ci].size))
		}
	}
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
	// incZ[j] is the query's incumbent z column (cheapest greedy-selected
	// pair), assignRow[j] its assignment-row index for the dual mapping.
	incZ := make([]int, len(ins.perQuery))
	incCost := make([]float64, len(ins.perQuery))
	assignRow := make([]int, len(ins.perQuery))
	nrow := 0
	kept := 0
	for j, pq := range ins.perQuery {
		incZ[j] = -1
		incCost[j] = ins.base[j]
		row := make([]int32, 0, len(pq))
		for _, a := range pq {
			if xVar[a.other] < 0 {
				continue
			}
			if c := ins.freq[j] * a.cost; !gSet[a.other] && c > asc.v[j]+siftPruneMargin*(asc.cap0[j]-asc.v[j]) {
				continue
			}
			z := mod.AddVar(ins.freq[j]*(a.cost-ins.base[j]), fmt.Sprintf("z_%d_%d", j, a.other), 1, false)
			row = append(row, int32(z))
			base := len(pairCols)
			pairCols = append(pairCols, int32(z), int32(xVar[a.other]))
			mod.AddConstraintCols(pairCols[base:], pairVals, lp.LE, 0)
			nrow++
			kept++
			if gSet[a.other] && a.cost < incCost[j] {
				incCost[j] = a.cost
				incZ[j] = z
			}
		}
		mod.AddConstraintCols(row, ones[:len(row)], lp.LE, 1)
		assignRow[j] = nrow
		nrow++
	}
	mod.AddConstraintCols(memCols, memVals, lp.LE, float64(budget))
	budgetRow := nrow

	inc := make([]float64, mod.NumVars())
	for _, ci := range gChosen {
		inc[xVar[ci]] = 1
	}
	for j := range ins.perQuery {
		if incZ[j] >= 0 {
			inc[incZ[j]] = 1
		}
	}

	ssp.SetInt("restricted_candidates", int64(nR))
	ssp.SetInt("pairs_kept", int64(kept))
	ssp.SetInt("vars", int64(mod.NumVars()))
	ssp.SetInt("rows", int64(mod.NumConstraints()))

	// Crash the root LP at the greedy vertex (see solveLP): the hinted x
	// columns start at their bound, opening the z ≤ x rows immediately.
	crash := make([]int, 0, len(gChosen))
	for _, ci := range gChosen {
		crash = append(crash, xVar[ci])
	}
	res, err := lp.SolveMIP(mod, lp.MIPOptions{
		Gap:          gap,
		Deadline:     stop.Deadline(),
		Context:      stop.Context(),
		Parallelism:  parallelism,
		Incumbent:    inc,
		CrashAtUpper: crash,
		Span:         ssp,
	})
	if err != nil {
		ssp.Discard()
		return nil, 0, 0, 0, false, err
	}
	stats.SimplexIters, stats.Refactorizations = res.SimplexIters, res.Refactorizations

	chosen, cost = gChosen, gCost
	if res.Status == lp.Optimal && len(res.X) > 0 {
		var mipChosen []int
		for ci := range ins.cands {
			if xVar[ci] >= 0 && res.X[xVar[ci]] > 0.5 {
				mipChosen = append(mipChosen, ci)
			}
		}
		if c := ins.evalCost(mipChosen); c < cost {
			chosen, cost = mipChosen, c
		}
	}
	// Density greedy over the root relaxation's fractional support: the
	// support is the set the LP proves worth buying fractions of, and greedy
	// within it routinely beats greedy over everything.
	if res.RootX != nil {
		support := make([]bool, len(ins.cands))
		for ci := range ins.cands {
			if xVar[ci] >= 0 && res.RootX[xVar[ci]] > 1e-6 {
				support[ci] = true
			}
		}
		if sChosen, sCost := ins.greedyMasked(budget, support); sCost < cost {
			chosen, cost = sChosen, sCost
		}
	}

	// Full-model certificate: the ascent bound, or the Lagrangian bound at
	// the restricted root's duals — whichever is tighter.
	bound := ascBound
	if res.RootDuals != nil {
		vv := make([]float64, len(ins.perQuery))
		for j := range vv {
			alpha := res.RootDuals[assignRow[j]]
			if alpha > 0 {
				alpha = 0
			}
			vv[j] = asc.cap0[j] + alpha
		}
		lamLP := -res.RootDuals[budgetRow]
		if lamLP < 0 {
			lamLP = 0
		}
		if lb := ins.lagrangeBound(vv, lamLP, budget); lb > bound {
			bound = lb
		}
		if ins.prov != nil {
			ins.prov.RootObjective = res.RootObjective + baseSum
			ins.prov.BudgetDual = lamLP
		}
	}

	finalGap = math.Inf(1)
	if !math.IsInf(bound, -1) && cost != 0 {
		finalGap = (cost - bound) / math.Abs(cost)
		if finalGap < 0 {
			finalGap = 0
		}
	}
	ssp.SetFloat("full_model_bound", bound)
	ssp.SetFloat("full_model_gap", finalGap)
	ssp.End()
	return chosen, cost, res.Nodes, finalGap, res.DNF, nil
}
