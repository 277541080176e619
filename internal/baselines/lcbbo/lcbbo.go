// Package lcbbo implements the MLCAD'19 baseline ("CAD tool design space
// exploration via Bayesian optimization"): classical Bayesian optimisation
// with the lower-confidence-bound acquisition function. Multi-objective
// handling follows the random-scalarisation recipe: each iteration draws a
// weight vector on the simplex, scores every candidate by the weighted sum
// of range-normalised per-objective LCBs, and evaluates the best. The
// returned Pareto set is the non-dominated subset of evaluated points, and
// the tool-run budget is fixed (400 on Target1 / 70 on Target2 in the
// paper's tables).
package lcbbo

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"ppatuner/internal/baselines/scalarize"
	"ppatuner/internal/gp"
	"ppatuner/internal/pareto"
)

// Options configures the BO baseline.
type Options struct {
	NumObjectives int
	// Budget is the total number of tool evaluations (including init).
	Budget int
	// InitTarget seeds the GPs (default max(10, Budget/10)).
	InitTarget int
	// Kappa is the LCB exploration weight μ − κσ (default 2).
	Kappa float64
	Rng   *rand.Rand
}

// Result reports the outcome.
type Result struct {
	ParetoIdx    []int
	EvaluatedIdx []int
	Runs         int
}

// Run executes LCB Bayesian optimisation over the candidate pool.
func Run(pool [][]float64, eval func(int) ([]float64, error), opt Options) (*Result, error) {
	if len(pool) == 0 {
		return nil, errors.New("lcbbo: empty pool")
	}
	if opt.Rng == nil {
		return nil, errors.New("lcbbo: Options.Rng is required")
	}
	if opt.NumObjectives < 1 {
		return nil, fmt.Errorf("lcbbo: NumObjectives = %d", opt.NumObjectives)
	}
	if opt.Budget <= 0 {
		opt.Budget = 400
	}
	if opt.InitTarget <= 0 {
		opt.InitTarget = opt.Budget / 10
		if opt.InitTarget < 10 {
			opt.InitTarget = 10
		}
	}
	if opt.Kappa <= 0 {
		opt.Kappa = 2
	}
	if opt.Budget > len(pool) {
		opt.Budget = len(pool)
	}

	known := map[int][]float64{}
	var evaluated []int
	observe := func(i int) error {
		y, err := eval(i)
		if err != nil {
			return fmt.Errorf("lcbbo: evaluation %d: %w", i, err)
		}
		if len(y) != opt.NumObjectives {
			return fmt.Errorf("lcbbo: evaluator returned %d objectives, want %d", len(y), opt.NumObjectives)
		}
		known[i] = y
		evaluated = append(evaluated, i)
		return nil
	}

	// Initial design.
	init := opt.InitTarget
	if init > opt.Budget {
		init = opt.Budget
	}
	for _, i := range opt.Rng.Perm(len(pool))[:init] {
		if err := observe(i); err != nil {
			return nil, err
		}
	}

	// Per-objective plain GPs.
	dim := len(pool[0])
	gps := make([]*gp.GP, opt.NumObjectives)
	for k := range gps {
		g := gp.New(gp.RBF, dim, false)
		var xs [][]float64
		var ys []float64
		for _, i := range evaluated {
			xs = append(xs, pool[i])
			ys = append(ys, known[i][k])
		}
		if err := g.SetTarget(xs, ys); err != nil {
			return nil, err
		}
		// Size the posterior and pool caches for the whole campaign, so
		// AddTarget appends in place instead of regrowing the pool's
		// columns and copying the Cholesky factor at every observation.
		g.ReserveAdds(opt.Budget - init)
		if err := g.Fit(gp.FitOptions{MaxEvals: 120, Subsample: 120}); err != nil {
			return nil, fmt.Errorf("lcbbo: initial fit: %w", err)
		}
		if err := g.AttachPool(pool); err != nil {
			return nil, err
		}
		gps[k] = g
	}
	refitAt := map[int]bool{init + 25: true, init + 80: true, init + 200: true}

	// The original method optimises a scalar QoR; the budget is split over a
	// few fixed preference directions (see package scalarize).
	dirs := scalarize.Directions(opt.NumObjectives, 1)
	cand := make([]int, 0, len(pool))
	for len(evaluated) < opt.Budget {
		w := dirs[scalarize.Segment(len(evaluated)-init, opt.Budget-init, len(dirs))]
		// Per-objective normalisation from observed values.
		lo := make([]float64, opt.NumObjectives)
		hi := make([]float64, opt.NumObjectives)
		for k := range lo {
			lo[k], hi[k] = math.Inf(1), math.Inf(-1)
			for _, y := range known {
				lo[k] = math.Min(lo[k], y[k])
				hi[k] = math.Max(hi[k], y[k])
			}
			if hi[k] <= lo[k] {
				hi[k] = lo[k] + 1
			}
		}
		// Score the unevaluated candidates four at a time through
		// PredictPool4 (bit for bit four PredictPool calls) and keep the
		// first strict minimum in index order.
		lcb := func(k int, mu, sd float64) float64 {
			return (mu - opt.Kappa*sd - lo[k]) / (hi[k] - lo[k])
		}
		cand = cand[:0]
		for i := range pool {
			if _, done := known[i]; !done {
				cand = append(cand, i)
			}
		}
		best, bestScore := -1, math.Inf(1)
		for g0 := 0; g0 < len(cand); g0 += 4 {
			grp := cand[g0:min(g0+4, len(cand))]
			var score [4]float64
			if len(grp) == 4 {
				for k, g := range gps {
					mu, sd := g.PredictPool4([4]int(grp))
					for c := range score {
						score[c] += w[k] * lcb(k, mu[c], sd[c])
					}
				}
			} else {
				for c, i := range grp {
					for k, g := range gps {
						mu, sd := g.PredictPool(i)
						score[c] += w[k] * lcb(k, mu, sd)
					}
				}
			}
			for c, i := range grp {
				if score[c] < bestScore {
					bestScore = score[c]
					best = i
				}
			}
		}
		if best < 0 {
			break
		}
		if err := observe(best); err != nil {
			return nil, err
		}
		for k, g := range gps {
			if err := g.AddTarget(pool[best], known[best][k]); err != nil {
				return nil, err
			}
		}
		if refitAt[len(evaluated)] {
			for _, g := range gps {
				if err := g.Fit(gp.FitOptions{MaxEvals: 120, Subsample: 120}); err != nil {
					return nil, fmt.Errorf("lcbbo: refit: %w", err)
				}
			}
		}
	}

	return &Result{
		ParetoIdx:    pareto.FrontKeys(known),
		EvaluatedIdx: evaluated,
		Runs:         len(evaluated),
	}, nil
}
