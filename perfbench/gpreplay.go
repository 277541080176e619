package main

import (
	"errors"
	"math/rand"
	"slices"
	"sync"
	"time"

	"ppatuner/internal/core"
	"ppatuner/internal/eval"
	"ppatuner/internal/gp"
	"ppatuner/internal/par"
	"ppatuner/internal/sample"
)

// gpUnit is one finished PPATuner unit whose surrogate work a traced run
// replays.
type gpUnit struct {
	sc    *eval.Scenario
	spec  eval.UnitSpec
	evals []int // fresh tool evaluations in call order
}

// gpCost is the replayed surrogate work of one or more units.
type gpCost struct {
	fitS, addS, predictS float64
	fits, adds, predicts int
}

func (a *gpCost) add(b gpCost) {
	a.fitS += b.fitS
	a.addS += b.addS
	a.predictS += b.predictS
	a.fits += b.fits
	a.adds += b.adds
	a.predicts += b.predicts
}

func (c gpCost) total() float64 { return c.fitS + c.addS + c.predictS }

// The tuner's surrogates sit inside internal/core, out of reach of a hook,
// so a traced run replays each PPATuner unit's surrogate call sequence
// through gp.Spec.New and times it: per objective SetSource, SetTarget on
// the initial design, Fit, AttachPool; then per observation a pool sweep of
// PredictPool, one AddTarget, and the scheduled refits. The settings mirror
// eval.RunMethodOpts's PPATuner arm and core's defaults. The sweep predicts
// every unevaluated candidate, whereas the tuner skips candidates it has
// already dropped, so gp.predicts and gp.predict_s are upper bounds.
const (
	replayFitMaxEvals  = 400 // eval.RunMethodOpts FitMaxEvals
	replayFitSubsample = 140 // core.Options default FitSubsample
)

// replayGP replays one unit with the engine's worker count.
func replayGP(u gpUnit, workers int) (gpCost, error) {
	var cost gpCost
	sc := u.sc
	space, err := eval.SpaceByName(u.spec.Space)
	if err != nil {
		return cost, err
	}
	state, err := eval.UnitStartState(u.spec)
	if err != nil {
		return cost, err
	}
	src := core.NewPCGSource(0, 0)
	if err := src.UnmarshalBinary(state); err != nil {
		return cost, err
	}
	// The unit's first draws pick its historical source points.
	rng := rand.New(src)
	nobj := len(space.Metrics)
	var sx [][]float64
	sy := make([][]float64, nobj)
	for _, i := range sample.Indices(rng, sc.Source.N(), sc.SourceN) {
		p := sc.Source.Points[i]
		sx = append(sx, p.Config.EncodeInto(sc.Target.Space))
		for k, m := range space.Metrics {
			sy[k] = append(sy[k], p.QoR.Get(m))
		}
	}
	pool := sc.Target.UnitX()
	obj := sc.Target.Objectives(space.Metrics)
	init := max(5, int(sc.InitFrac*float64(sc.Target.N())))
	init = min(init, len(u.evals))
	reserve := min(sc.Budgets[eval.PPATuner]-init, len(pool))
	fitOpts := gp.FitOptions{MaxEvals: replayFitMaxEvals, Subsample: replayFitSubsample}

	models := make([]gp.Model, nobj)
	// eachObjective runs fn per objective, concurrently when the engine
	// would, as core's per-objective fits do.
	eachObjective := func(fn func(k int) error) error {
		errs := make([]error, nobj)
		var wg sync.WaitGroup
		for k := range errs {
			if workers <= 1 {
				errs[k] = fn(k)
				continue
			}
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				errs[k] = fn(k)
			}(k)
		}
		wg.Wait()
		return errors.Join(errs...)
	}

	initX := make([][]float64, init)
	for j, i := range u.evals[:init] {
		initX[j] = pool[i]
	}
	t0 := time.Now()
	err = eachObjective(func(k int) error {
		g := gp.Spec{}.New(gp.RBF, len(pool[0]), true)
		if err := g.SetSource(sx, sy[k]); err != nil {
			return err
		}
		ys := make([]float64, init)
		for j, i := range u.evals[:init] {
			ys[j] = obj[i][k]
		}
		if err := g.SetTarget(initX, ys); err != nil {
			return err
		}
		g.ReserveAdds(reserve)
		g.SetWorkers(workers)
		if err := g.Fit(fitOpts); err != nil {
			return err
		}
		models[k] = g
		return g.AttachPool(pool)
	})
	cost.fitS += time.Since(t0).Seconds()
	cost.fits += nobj
	if err != nil {
		return cost, err
	}

	known := make([]bool, len(pool))
	nKnown := 0
	learn := func(i int) {
		if !known[i] {
			known[i] = true
			nKnown++
		}
	}
	for _, i := range u.evals[:init] {
		learn(i)
	}
	refitAt := []int{init + 20, init + 60, init + 140, init + 300}
	sweep := func() {
		t0 := time.Now()
		par.Do(workers, len(pool), func(lo, hi int) {
			for p := lo; p < hi; p++ {
				if !known[p] {
					for _, g := range models {
						g.PredictPool(p)
					}
				}
			}
		})
		cost.predictS += time.Since(t0).Seconds()
		cost.predicts += nobj * (len(pool) - nKnown)
	}
	for j := init; j < len(u.evals); j++ {
		sweep()
		i := u.evals[j]
		t0 := time.Now()
		for k, g := range models {
			if err := g.AddTarget(pool[i], obj[i][k]); err != nil {
				return cost, err
			}
		}
		cost.addS += time.Since(t0).Seconds()
		cost.adds += nobj
		learn(i)
		if slices.Contains(refitAt, j+1) {
			t0 := time.Now()
			err := eachObjective(func(k int) error { return models[k].Fit(fitOpts) })
			cost.fitS += time.Since(t0).Seconds()
			cost.fits += nobj
			if err != nil {
				return cost, err
			}
		}
	}
	// A run that stopped before its budget ends on one more sweep.
	if len(u.evals) < sc.Budgets[eval.PPATuner] {
		sweep()
	}
	return cost, nil
}
