// Package benchdata builds the offline benchmark datasets of the paper's
// Table 1: Latin-hypercube-sampled tool-parameter configurations run through
// the flow simulator, with golden QoR values and exhaustively-extracted
// Pareto fronts. Source1/Target1 hold 5000 points over 12 parameters of the
// small MAC; Source2 holds 1440 points (small MAC) and Target2 727 points
// (large MAC) over 9 parameters — the same counts as the paper.
package benchdata

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"

	"ppatuner/internal/param"
	"ppatuner/internal/pareto"
	"ppatuner/internal/pdtool"
	"ppatuner/internal/sample"
)

// Point is one offline benchmark entry: a configuration and its golden QoR.
type Point struct {
	Config param.Config
	QoR    pdtool.QoR
}

// Dataset is an offline benchmark.
type Dataset struct {
	Name   string
	Space  *param.Space
	Design *pdtool.Design
	Points []Point
}

// GenOptions controls generation. Zero values mean "paper-sized".
type GenOptions struct {
	// Points overrides the dataset size (tests use small values).
	Points int
	// Seed drives the Latin-hypercube sampler.
	Seed int64
	// Workers bounds parallel flow runs (default NumCPU).
	Workers int
}

// Generate samples cfgCount configurations and evaluates each through the
// flow. Deterministic for a fixed seed: the config list is fixed before the
// parallel evaluation fan-out.
func Generate(name string, space *param.Space, design *pdtool.Design, opt GenOptions) (*Dataset, error) {
	if opt.Points <= 0 {
		return nil, fmt.Errorf("benchdata: %s: no point count", name)
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	cfgs := sample.LHSConfigs(rng, space, opt.Points)
	if len(cfgs) < opt.Points {
		return nil, fmt.Errorf("benchdata: %s: space too coarse for %d distinct points (got %d)", name, opt.Points, len(cfgs))
	}
	pts := make([]Point, len(cfgs))
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	var wg sync.WaitGroup
	errs := make([]error, workers)
	chunk := (len(cfgs) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > len(cfgs) {
			hi = len(cfgs)
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				q, _, err := pdtool.Run(design, cfgs[i])
				if err != nil {
					errs[w] = err
					return
				}
				pts[i] = Point{Config: cfgs[i], QoR: q}
			}
		}(w, lo, hi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("benchdata: %s: %w", name, err)
		}
	}
	return &Dataset{Name: name, Space: space, Design: design, Points: pts}, nil
}

// N returns the number of points.
func (d *Dataset) N() int { return len(d.Points) }

// UnitX returns the configurations' normalised coordinates (views).
func (d *Dataset) UnitX() [][]float64 {
	out := make([][]float64, len(d.Points))
	for i, p := range d.Points {
		out[i] = p.Config.UnitView()
	}
	return out
}

// Objectives projects every point's QoR onto the objective space.
func (d *Dataset) Objectives(objs []pdtool.Metric) [][]float64 {
	out := make([][]float64, len(d.Points))
	for i, p := range d.Points {
		out[i] = p.QoR.Vector(objs)
	}
	return out
}

// GoldenFront returns the Pareto-optimal QoR vectors of the dataset in the
// given objective space — "the best that can be found in the benchmarks", as
// the paper defines the golden set.
func (d *Dataset) GoldenFront(objs []pdtool.Metric) [][]float64 {
	return pareto.FrontPoints(d.Objectives(objs))
}

// GoldenFrontIndices returns the indices of Pareto-optimal points.
func (d *Dataset) GoldenFrontIndices(objs []pdtool.Metric) []int {
	return pareto.Front(d.Objectives(objs))
}

// paper-sized benchmark singletons, built on first use.
var (
	cacheMu sync.Mutex
	cache   = map[string]*Dataset{}
)

// cached returns the dataset built under name, building it on first use.
// Concurrent callers wait for one build; a failed build is not kept, so
// the next call builds again.
func cached(name string, build func() (*Dataset, error)) (*Dataset, error) {
	cacheMu.Lock()
	defer cacheMu.Unlock()
	if d, ok := cache[name]; ok {
		return d, nil
	}
	d, err := build()
	if err != nil {
		return nil, err
	}
	cache[name] = d
	return d, nil
}

// Source1 returns the 5000-point source benchmark of Scenario One.
func Source1() (*Dataset, error) {
	return cached("Source1", func() (*Dataset, error) {
		d, err := pdtool.NewSmallMAC()
		if err != nil {
			return nil, err
		}
		return Generate("Source1", param.Source1Space(), d, GenOptions{Points: 5000, Seed: 101})
	})
}

// Target1 returns the 5000-point target benchmark of Scenario One.
func Target1() (*Dataset, error) {
	return cached("Target1", func() (*Dataset, error) {
		d, err := pdtool.NewSmallMAC()
		if err != nil {
			return nil, err
		}
		return Generate("Target1", param.Target1Space(), d, GenOptions{Points: 5000, Seed: 102})
	})
}

// Source2 returns the 1440-point source benchmark of Scenario Two.
func Source2() (*Dataset, error) {
	return cached("Source2", func() (*Dataset, error) {
		d, err := pdtool.NewSmallMAC()
		if err != nil {
			return nil, err
		}
		return Generate("Source2", param.Source2Space(), d, GenOptions{Points: 1440, Seed: 103})
	})
}

// Target2 returns the 727-point target benchmark of Scenario Two (large MAC).
func Target2() (*Dataset, error) {
	return cached("Target2", func() (*Dataset, error) {
		d, err := pdtool.NewLargeMAC()
		if err != nil {
			return nil, err
		}
		return Generate("Target2", param.Target2Space(), d, GenOptions{Points: 727, Seed: 104})
	})
}
