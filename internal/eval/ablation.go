package eval

import (
	"fmt"
	"math/rand"
	"strings"

	"ppatuner/internal/core"
)

// Ablation runs PPATuner on a scenario/objective-space with one option
// mutated, for the design-choice studies DESIGN.md calls out (transfer
// on/off, δ, τ, source size, batch). mutate edits a copy of the options
// RunMethod runs PPATuner with, so a no-op mutation reproduces RunMethod's
// run. The BenchmarkAblation* benchmarks call it.
func Ablation(s *Scenario, space ObjSpace, seed int64, mutate func(*core.Options)) (Row, error) {
	rng := rand.New(rand.NewSource(seed))
	pool := s.Target.UnitX()
	objVecs := s.Target.Objectives(space.Metrics)
	ev := func(i int) ([]float64, error) { return objVecs[i], nil }
	opt := ppatunerOptions(s, space, rng)
	mutate(&opt)
	tn, err := core.New(pool, ev, opt)
	if err != nil {
		return Row{}, err
	}
	res, err := tn.Run()
	if err != nil {
		return Row{}, err
	}
	hv, adrs := Score(s, space, &Outcome{ParetoIdx: res.ParetoIdx, Runs: res.Runs})
	return Row{Method: PPATuner, HV: hv, ADRS: adrs, Runs: float64(res.Runs)}, nil
}

// AblationReport runs a named set of option variants over seeds and formats
// the comparison.
func AblationReport(s *Scenario, space ObjSpace, seeds []int64, variants []struct {
	Name   string
	Mutate func(*core.Options)
}) (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation on %s / %s (avg over %d seeds)\n", s.Name, space.Name, len(seeds))
	fmt.Fprintf(&b, "%-16s %8s %8s %8s\n", "variant", "HV", "ADRS", "Runs")
	for _, v := range variants {
		var row Row
		for _, seed := range seeds {
			r, err := Ablation(s, space, seed, v.Mutate)
			if err != nil {
				return "", fmt.Errorf("eval: ablation %s: %w", v.Name, err)
			}
			row.HV += r.HV
			row.ADRS += r.ADRS
			row.Runs += r.Runs
		}
		n := float64(len(seeds))
		fmt.Fprintf(&b, "%-16s %8.4f %8.4f %8.1f\n", v.Name, row.HV/n, row.ADRS/n, row.Runs/n)
	}
	return b.String(), nil
}
