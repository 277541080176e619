// Package pal implements the TCAD'19 baseline ("Cross-layer optimization
// for high speed adders: a Pareto-driven machine learning approach"): a
// Pareto active-learning tuner with plain (single-task) Gaussian-process
// surrogates. It is the same uncertainty-region loop as PPATuner with the
// transfer kernel disabled — which is exactly what makes it the ablation
// point for the paper's transfer-learning claim.
package pal

import (
	"math/rand"

	"ppatuner/internal/core"
)

// Options configures the PAL baseline.
type Options struct {
	NumObjectives int
	// InitTarget seeds the GP with random evaluations (default 20: without
	// historical data PAL needs a larger initial design than PPATuner).
	InitTarget int
	// MaxIter bounds tool evaluations after initialisation (default 500,
	// matching the baseline's larger run counts in the paper).
	MaxIter int
	// DeltaFrac is the relaxation coefficient (default 0.015).
	DeltaFrac float64
	Rng       *rand.Rand
}

// Result mirrors core.Result.
type Result = core.Result

// Run executes the PAL baseline over the candidate pool.
func Run(pool [][]float64, eval core.Evaluator, opt Options) (*Result, error) {
	if opt.InitTarget <= 0 {
		opt.InitTarget = 20
	}
	if opt.MaxIter <= 0 {
		opt.MaxIter = 500
	}
	if opt.DeltaFrac <= 0 {
		opt.DeltaFrac = 0.015
	}
	tn, err := core.New(pool, eval, core.Options{
		NumObjectives: opt.NumObjectives,
		InitTarget:    opt.InitTarget,
		MaxIter:       opt.MaxIter,
		DeltaFrac:     opt.DeltaFrac,
		Rng:           opt.Rng,
		// Vanilla PAL: global longest-diameter selection, no transfer (a
		// plain GP per objective).
		GlobalSelection: true,
	})
	if err != nil {
		return nil, err
	}
	return tn.Run()
}
