package gp

import (
	"fmt"
	"strconv"
	"strings"
)

// Model is the surrogate surface the tuner programs against: the exact
// transfer GP (*GP) and the inducing-point approximation (*SparseGP) both
// implement it, so internal/core, the evaluation harness, and the shard
// workers switch implementations via a Spec without any call-site churn.
type Model interface {
	// Data installation (SetSource enables the transfer kernel).
	SetSource(x [][]float64, y []float64) error
	SetTarget(x [][]float64, y []float64) error
	// Capacity and concurrency hints.
	ReserveAdds(n int)
	SetWorkers(n int)
	// Posterior lifecycle.
	Fit(opts FitOptions) error
	Rebuild() error
	AddTarget(x []float64, y float64) error
	// Pool-based prediction.
	AttachPool(pool [][]float64) error
	PredictPool(p int) (mu, sd float64)
	// PredictPool4 is four PredictPool calls in one pass, bit for bit.
	PredictPool4(p [4]int) (mu, sd [4]float64)
	Predict(x []float64) (mu, sd float64)
	// Diagnostics.
	NLML() float64
	Rho() float64
	Cov() *Cov
	Noise() (noiseT, noiseS float64)
	N() int
	NTarget() int
}

var (
	_ Model = (*GP)(nil)
	_ Model = (*SparseGP)(nil)
)

// DefaultSparseM is the inducing budget used when a spec string says
// "sparse" without a count. 64 points cover the paper's 12- and 9-knob
// spaces well (campaign fronts are statistically indistinguishable from
// exact) while keeping every refit O(n·64²).
const DefaultSparseM = 64

// Spec selects and configures a surrogate implementation. The zero value is
// the exact GP, so existing construction sites keep their behaviour.
type Spec struct {
	// Sparse selects the inducing-point approximation (SparseGP).
	Sparse bool
	// M is the inducing-point budget (sparse only; 0 means DefaultSparseM).
	M int
	// Seed drives the deterministic inducing-point selection (sparse only).
	// Callers inside a tuning run draw it from the run's seeded RNG stream,
	// so campaign results stay byte-reproducible.
	Seed uint64
}

// ParseSpec parses the -gp command-line syntax: "exact" (or "") for the
// exact GP, "sparse" or "sparse:<m>" for the inducing-point approximation
// with budget m.
func ParseSpec(s string) (Spec, error) {
	switch s {
	case "", "exact":
		return Spec{}, nil
	case "sparse":
		return Spec{Sparse: true, M: DefaultSparseM}, nil
	}
	if rest, ok := strings.CutPrefix(s, "sparse:"); ok {
		m, err := strconv.Atoi(rest)
		if err != nil || m < 1 {
			return Spec{}, fmt.Errorf("gp: bad inducing budget %q in spec %q (want sparse:<m>, m ≥ 1)", rest, s)
		}
		return Spec{Sparse: true, M: m}, nil
	}
	return Spec{}, fmt.Errorf("gp: unknown surrogate spec %q (want exact or sparse:<m>)", s)
}

// String renders the spec in ParseSpec syntax (Seed is runtime state, not
// part of the syntax).
func (s Spec) String() string {
	if !s.Sparse {
		return "exact"
	}
	m := s.M
	if m <= 0 {
		m = DefaultSparseM
	}
	return fmt.Sprintf("sparse:%d", m)
}

// New constructs the surrogate the spec describes.
func (s Spec) New(kind CovKind, dim int, ard bool) Model {
	if !s.Sparse {
		return New(kind, dim, ard)
	}
	m := s.M
	if m <= 0 {
		m = DefaultSparseM
	}
	return NewSparse(kind, dim, ard, m, s.Seed)
}
