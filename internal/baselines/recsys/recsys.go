// Package recsys implements the DAC'19 baseline ("A learning-based
// recommender system for autotuning design flows"): parameter
// configurations are treated as sets of (parameter, level) items and QoR
// prediction as a rating-prediction problem, solved with a second-order
// factorization machine (bias per item plus latent-factor pairwise
// interactions — the matrix/tensor-completion machinery of recommender
// systems). The tuner alternates retraining on the evaluated configurations
// with recommending the best-predicted unevaluated ones, under a fixed
// tool-run budget and ε-greedy exploration.
package recsys

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"ppatuner/internal/baselines/scalarize"
	"ppatuner/internal/pareto"
)

// Options configures the recommender baseline.
type Options struct {
	NumObjectives int
	// Budget is the total number of tool evaluations (including init).
	Budget int
	// InitTarget seeds the model (default Budget/8, at least 12).
	InitTarget int
	// Buckets quantises each parameter dimension (default 6).
	Buckets int
	// LatentDim is the factor rank (default 4).
	LatentDim int
	// Epsilon is the exploration rate (default 0.1).
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
}

// fm is a per-objective factorization machine over one-hot (dim, bucket)
// items. Item d·buckets+b stands for parameter d at level b: bias[item] is
// its bias and lat[item·rank : (item+1)·rank] its latent factors.
type fm struct {
	mu   float64
	bias []float64
	lat  []float64
	rank int
	// sum is Σv over the items of the last predict; the SGD step reuses it.
	sum []float64
	// postMean/postSd de-standardise predictions after train.
	postMean, postSd float64
}

func newFM(dim, buckets, rank int, rng *rand.Rand) *fm {
	m := &fm{
		bias: make([]float64, dim*buckets),
		lat:  make([]float64, dim*buckets*rank),
		rank: rank,
		sum:  make([]float64, rank),
	}
	for i := range m.lat {
		m.lat[i] = 0.01 * rng.NormFloat64()
	}
	return m
}

// itemTable buckets every pool candidate once: row i holds the item of
// each parameter of candidate i.
func itemTable(pool [][]float64, buckets int) [][]int32 {
	dim := len(pool[0])
	flat := make([]int32, len(pool)*dim)
	rows := make([][]int32, len(pool))
	for i, x := range pool {
		row := flat[i*dim : (i+1)*dim : (i+1)*dim]
		for d := range row {
			b := int(x[d] * float64(buckets))
			if b >= buckets {
				b = buckets - 1
			}
			if b < 0 {
				b = 0
			}
			row[d] = int32(d*buckets + b)
		}
		rows[i] = row
	}
	return rows
}

// predict scores one item row and leaves Σv in m.sum.
//
//ppalint:noalloc
func (m *fm) predict(items []int32) float64 {
	out := m.mu
	// Pairwise interactions via the standard FM identity:
	// Σ_{d<e} v_d·v_e = ½(‖Σv‖² − Σ‖v‖²).
	sum := m.sum
	for r := range sum {
		sum[r] = 0
	}
	var sumSq float64
	for _, it := range items {
		out += m.bias[it]
		v := m.lat[int(it)*m.rank : int(it+1)*m.rank]
		for r := range v {
			sum[r] += v[r]
			sumSq += v[r] * v[r]
		}
	}
	var inter float64
	for _, s := range sum {
		inter += s * s
	}
	out += 0.5 * (inter - sumSq)
	return out
}

// train runs SGD epochs on (rows, ys), standardising internally.
func (m *fm) train(rows [][]int32, ys []float64, epochs int, rng *rand.Rand) {
	if len(rows) == 0 {
		return
	}
	var mean float64
	for _, y := range ys {
		mean += y
	}
	mean /= float64(len(ys))
	var sd float64
	for _, y := range ys {
		sd += (y - mean) * (y - mean)
	}
	sd = math.Sqrt(sd / float64(len(ys)))
	if sd < 1e-12 {
		sd = 1
	}
	m.mu = 0
	lr, reg := 0.05, 0.01
	order := make([]int, len(rows))
	for i := range order {
		order[i] = i
	}
	for ep := 0; ep < epochs; ep++ {
		rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
		for _, i := range order {
			m.predictStdGrad(rows[i], (ys[i]-mean)/sd, lr, reg)
		}
	}
	m.postMean, m.postSd = mean, sd
}

func (m *fm) predictRaw(items []int32) float64 {
	return m.postMean + m.postSd*m.predict(items)
}

// predictStdGrad performs one SGD step on the standardised sample. The
// gradient of item d's factors is Σv − v_d, taken before any update.
//
//ppalint:noalloc
func (m *fm) predictStdGrad(items []int32, y float64, lr, reg float64) {
	e := m.predict(items) - y
	m.mu -= lr * e
	sum := m.sum
	for _, it := range items {
		m.bias[it] -= lr * (e + reg*m.bias[it])
		v := m.lat[int(it)*m.rank : int(it+1)*m.rank]
		for r := range v {
			grad := sum[r] - v[r]
			v[r] -= lr * (e*grad + reg*v[r])
		}
	}
}

// Run executes the recommender-system tuner.
func Run(pool [][]float64, eval func(int) ([]float64, error), opt Options) (*Result, error) {
	if len(pool) == 0 {
		return nil, errors.New("recsys: empty pool")
	}
	if opt.Rng == nil {
		return nil, errors.New("recsys: Options.Rng is required")
	}
	if opt.NumObjectives < 1 {
		return nil, fmt.Errorf("recsys: NumObjectives = %d", opt.NumObjectives)
	}
	if opt.Budget <= 0 {
		opt.Budget = 600
	}
	if opt.Budget > len(pool) {
		opt.Budget = len(pool)
	}
	if opt.InitTarget <= 0 {
		opt.InitTarget = opt.Budget / 8
		if opt.InitTarget < 12 {
			opt.InitTarget = 12
		}
	}
	if opt.Buckets <= 1 {
		opt.Buckets = 6
	}
	if opt.LatentDim <= 0 {
		opt.LatentDim = 4
	}
	if opt.Epsilon <= 0 {
		opt.Epsilon = 0.1
	}
	if opt.Retrain <= 0 {
		opt.Retrain = 10
	}

	dim := len(pool[0])
	items := itemTable(pool, opt.Buckets)
	known := map[int][]float64{}
	done := make([]bool, len(pool))
	var evaluated []int
	observe := func(i int) error {
		y, err := eval(i)
		if err != nil {
			return fmt.Errorf("recsys: evaluation %d: %w", i, err)
		}
		if len(y) != opt.NumObjectives {
			return fmt.Errorf("recsys: evaluator returned %d objectives, want %d", len(y), opt.NumObjectives)
		}
		known[i] = y
		done[i] = true
		evaluated = append(evaluated, i)
		return nil
	}

	init := opt.InitTarget
	if init > opt.Budget {
		init = opt.Budget
	}
	for _, i := range opt.Rng.Perm(len(pool))[:init] {
		if err := observe(i); err != nil {
			return nil, err
		}
	}

	models := make([]*fm, opt.NumObjectives)
	for k := range models {
		models[k] = newFM(dim, opt.Buckets, opt.LatentDim, opt.Rng)
	}
	// pred[k][i] is models[k]'s prediction for unevaluated candidate i. The
	// models change only at a retrain, so the first exploit step after one
	// scores the pool and later steps reuse the scores.
	pred := make([][]float64, opt.NumObjectives)
	for k := range pred {
		pred[k] = make([]float64, len(pool))
	}
	scored := false
	retrain := func() {
		var rows [][]int32
		yss := make([][]float64, opt.NumObjectives)
		for _, i := range evaluated {
			rows = append(rows, items[i])
			for k := 0; k < opt.NumObjectives; k++ {
				yss[k] = append(yss[k], known[i][k])
			}
		}
		for k, m := range models {
			m.train(rows, yss[k], 30, opt.Rng)
		}
		scored = false
	}
	retrain()

	dirs := scalarize.Directions(opt.NumObjectives, 1)
	sinceTrain := 0
	for len(evaluated) < opt.Budget {
		var pick int
		if opt.Rng.Float64() < opt.Epsilon {
			// ε-exploration: random unevaluated candidate.
			pick = -1
			perm := opt.Rng.Perm(len(pool))
			for _, i := range perm {
				if !done[i] {
					pick = i
					break
				}
			}
		} else {
			// Recommend along the current fixed preference direction (the
			// original recommender scores a scalar QoR).
			if !scored {
				for k, m := range models {
					for i, row := range items {
						if !done[i] {
							pred[k][i] = m.predictRaw(row)
						}
					}
				}
				scored = true
			}
			w := dirs[scalarize.Segment(len(evaluated)-init, opt.Budget-init, len(dirs))]
			pick = -1
			bestScore := math.Inf(1)
			for i := range pool {
				if done[i] {
					continue
				}
				var score float64
				for k := range models {
					score += w[k] * pred[k][i]
				}
				if score < bestScore {
					bestScore = score
					pick = i
				}
			}
		}
		if pick < 0 {
			// Model predictions can degenerate (NaN scores from an SGD
			// blow-up); fall back to random exploration instead of quitting
			// the budget early.
			for _, i := range opt.Rng.Perm(len(pool)) {
				if !done[i] {
					pick = i
					break
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
			retrain()
			sinceTrain = 0
		}
	}

	return &Result{ParetoIdx: pareto.FrontKeys(known), EvaluatedIdx: evaluated, Runs: len(evaluated)}, nil
}
