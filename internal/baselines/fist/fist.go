// Package fist implements the ASPDAC'20 baseline FIST ("feature-importance
// sampling and tree-based method for automatic design flow parameter
// tuning"): gradient-boosted trees learn per-parameter importance from the
// source-design data; a model-less phase samples the target space stratified
// over the important parameters; a model-guided phase then alternates
// boosted-tree refits on the evaluated target points with
// best-predicted-candidate selection under ε exploration. The budget is
// fixed, as in the paper's tables.
package fist

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"ppatuner/internal/baselines/scalarize"
	"ppatuner/internal/pareto"
	"ppatuner/internal/tree"
)

// Options configures FIST.
type Options struct {
	NumObjectives int
	// Budget is the total number of tool evaluations.
	Budget int
	// ModelLessFrac is the fraction of the budget spent in the stratified
	// sampling phase (default 0.3).
	ModelLessFrac float64
	// TopFeatures is how many important parameters drive stratification
	// (default 3).
	TopFeatures int
	// SourceX/SourceY provide the historical data importance is learned
	// from; SourceY[k] is objective k. Without source data, importance is
	// learned on the fly from the model-less samples.
	SourceX [][]float64
	SourceY [][]float64
	// Epsilon is the exploration rate in the model phase (default 0.1).
	Epsilon float64
	// Retrain period in evaluations (default 10).
	Retrain int
	Rng     *rand.Rand
}

// Result reports the outcome.
type Result struct {
	ParetoIdx    []int
	EvaluatedIdx []int
	Runs         int
	// Importance is the learned per-parameter importance (diagnostics).
	Importance []float64
}

// Run executes FIST over the candidate pool.
func Run(pool [][]float64, eval func(int) ([]float64, error), opt Options) (*Result, error) {
	if len(pool) == 0 {
		return nil, errors.New("fist: empty pool")
	}
	if opt.Rng == nil {
		return nil, errors.New("fist: Options.Rng is required")
	}
	if opt.NumObjectives < 1 {
		return nil, fmt.Errorf("fist: NumObjectives = %d", opt.NumObjectives)
	}
	if opt.Budget <= 0 {
		opt.Budget = 400
	}
	if opt.Budget > len(pool) {
		opt.Budget = len(pool)
	}
	if opt.ModelLessFrac <= 0 || opt.ModelLessFrac >= 1 {
		opt.ModelLessFrac = 0.3
	}
	if opt.TopFeatures <= 0 {
		opt.TopFeatures = 3
	}
	if opt.Epsilon <= 0 {
		opt.Epsilon = 0.1
	}
	if opt.Retrain <= 0 {
		opt.Retrain = 10
	}
	dim := len(pool[0])

	known := map[int][]float64{}
	done := make([]bool, len(pool))
	var evaluated []int
	observe := func(i int) error {
		y, err := eval(i)
		if err != nil {
			return fmt.Errorf("fist: evaluation %d: %w", i, err)
		}
		if len(y) != opt.NumObjectives {
			return fmt.Errorf("fist: evaluator returned %d objectives, want %d", len(y), opt.NumObjectives)
		}
		known[i] = y
		done[i] = true
		evaluated = append(evaluated, i)
		return nil
	}

	// Feature importance from source data (averaged over objectives).
	importance := make([]float64, dim)
	haveImportance := false
	if len(opt.SourceX) > 0 && len(opt.SourceY) == opt.NumObjectives {
		for k := 0; k < opt.NumObjectives; k++ {
			b, err := tree.FitBoost(opt.SourceX, opt.SourceY[k], tree.BoostOptions{Rounds: 40})
			if err != nil {
				return nil, fmt.Errorf("fist: source importance: %w", err)
			}
			for f, v := range b.Importance() {
				importance[f] += v / float64(opt.NumObjectives)
			}
		}
		haveImportance = true
	}

	// Model-less phase: stratified sampling over the important parameters.
	mlBudget := int(opt.ModelLessFrac * float64(opt.Budget))
	if mlBudget < 5 {
		mlBudget = 5
	}
	if mlBudget > opt.Budget {
		mlBudget = opt.Budget
	}
	topDims := topK(importance, opt.TopFeatures)
	if !haveImportance {
		// No prior: treat the first TopFeatures dims uniformly; importance
		// is learned after the phase.
		topDims = topDims[:0]
		for f := 0; f < dim && f < opt.TopFeatures; f++ {
			topDims = append(topDims, f)
		}
	}
	strata := map[uint64][]int{}
	for i, x := range pool {
		strata[strataKey(x, topDims)] = append(strata[strataKey(x, topDims)], i)
	}
	keys := make([]uint64, 0, len(strata))
	for k := range strata {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
	opt.Rng.Shuffle(len(keys), func(a, b int) { keys[a], keys[b] = keys[b], keys[a] })
	for _, k := range keys {
		if len(evaluated) >= mlBudget {
			break
		}
		members := strata[k]
		if err := observe(members[opt.Rng.Intn(len(members))]); err != nil {
			return nil, err
		}
	}
	// Fill any remainder randomly.
	for len(evaluated) < mlBudget {
		i := opt.Rng.Intn(len(pool))
		if !done[i] {
			if err := observe(i); err != nil {
				return nil, err
			}
		}
	}

	// Model phase: boosted trees on target data, exploit best predictions.
	models := make([]*tree.Boost, opt.NumObjectives)
	// pred[k][i] is models[k]'s prediction for unevaluated candidate i. The
	// models change only at a refit, so the first exploit step after one
	// scores the pool and later steps reuse the scores.
	pred := make([][]float64, opt.NumObjectives)
	for k := range pred {
		pred[k] = make([]float64, len(pool))
	}
	scored := false
	refit := func() error {
		var xs [][]float64
		yss := make([][]float64, opt.NumObjectives)
		for _, i := range evaluated {
			xs = append(xs, pool[i])
			for k := 0; k < opt.NumObjectives; k++ {
				yss[k] = append(yss[k], known[i][k])
			}
		}
		for k := range models {
			b, err := tree.FitBoost(xs, yss[k], tree.BoostOptions{Rounds: 60})
			if err != nil {
				return err
			}
			models[k] = b
		}
		if !haveImportance {
			for f := range importance {
				importance[f] = 0
			}
			for _, b := range models {
				for f, v := range b.Importance() {
					importance[f] += v / float64(opt.NumObjectives)
				}
			}
			haveImportance = true
		}
		scored = false
		return nil
	}
	if err := refit(); err != nil {
		return nil, err
	}
	dirs := scalarize.Directions(opt.NumObjectives, 1)
	sinceTrain := 0
	for len(evaluated) < opt.Budget {
		pick := -1
		if opt.Rng.Float64() < opt.Epsilon {
			perm := opt.Rng.Perm(len(pool))
			for _, i := range perm {
				if !done[i] {
					pick = i
					break
				}
			}
		} else {
			// Scalarised exploitation along the current fixed preference
			// direction (FIST optimises a scalar QoR), normalised by the
			// observed objective ranges.
			if !scored {
				for k, b := range models {
					for i, x := range pool {
						if !done[i] {
							pred[k][i] = b.Predict(x)
						}
					}
				}
				scored = true
			}
			w := dirs[scalarize.Segment(len(evaluated)-mlBudget, opt.Budget-mlBudget, len(dirs))]
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
			best := math.Inf(1)
			for i := range pool {
				if done[i] {
					continue
				}
				var score float64
				for k := range w {
					score += w[k] * (pred[k][i] - lo[k]) / (hi[k] - lo[k])
				}
				if score < best {
					best = score
					pick = i
				}
			}
		}
		if pick < 0 {
			break
		}
		if err := observe(pick); err != nil {
			return nil, err
		}
		sinceTrain++
		if sinceTrain >= opt.Retrain {
			if err := refit(); err != nil {
				return nil, err
			}
			sinceTrain = 0
		}
	}

	return &Result{
		ParetoIdx:    pareto.FrontKeys(known),
		EvaluatedIdx: evaluated,
		Runs:         len(evaluated),
		Importance:   importance,
	}, nil
}

// strataKey buckets the important dims of x into a compact key (4 levels
// per dim).
func strataKey(x []float64, dims []int) uint64 {
	var key uint64
	for _, d := range dims {
		b := int(x[d] * 4)
		if b > 3 {
			b = 3
		}
		if b < 0 {
			b = 0
		}
		key = key<<2 | uint64(b)
	}
	return key
}

// topK returns the indices of the k largest values.
func topK(v []float64, k int) []int {
	idx := make([]int, len(v))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return v[idx[a]] > v[idx[b]] })
	if k > len(idx) {
		k = len(idx)
	}
	out := append([]int(nil), idx[:k]...)
	sort.Ints(out)
	return out
}
