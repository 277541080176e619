// Package eval is the experiment harness that regenerates the paper's
// evaluation: it wires the offline benchmarks into every tuner (PPATuner and
// the four prior-art baselines), measures hyper-volume error (Eq. 2), ADRS
// (Eq. 3) and tool runs, and formats Table 2, Table 3 and the Figure 3
// Pareto-front series.
package eval

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"ppatuner/internal/baselines/fist"
	"ppatuner/internal/baselines/lcbbo"
	"ppatuner/internal/baselines/pal"
	"ppatuner/internal/baselines/recsys"
	"ppatuner/internal/benchdata"
	"ppatuner/internal/core"
	"ppatuner/internal/pareto"
	"ppatuner/internal/pdtool"
	"ppatuner/internal/sample"
)

// ObjSpace is one of the paper's objective spaces.
type ObjSpace struct {
	Name    string
	Metrics []pdtool.Metric
}

// Spaces lists the three QoR spaces of Tables 2 and 3.
func Spaces() []ObjSpace {
	return []ObjSpace{
		{Name: "Area-Delay", Metrics: []pdtool.Metric{pdtool.Area, pdtool.Delay}},
		{Name: "Power-Delay", Metrics: []pdtool.Metric{pdtool.Power, pdtool.Delay}},
		{Name: "Area-Power-Delay", Metrics: []pdtool.Metric{pdtool.Area, pdtool.Power, pdtool.Delay}},
	}
}

// Method identifies a tuner.
type Method string

// The five tuners of the comparison.
const (
	PPATuner Method = "PPATuner"
	TCAD19   Method = "TCAD'19"
	MLCAD19  Method = "MLCAD'19"
	DAC19    Method = "DAC'19"
	ASPDAC20 Method = "ASPDAC'20"
)

// Methods returns the comparison order used in the paper's tables.
func Methods() []Method {
	return []Method{TCAD19, MLCAD19, DAC19, ASPDAC20, PPATuner}
}

// Scenario couples a source and a target benchmark (the paper's Scenario
// One: Source1→Target1; Scenario Two: Source2→Target2).
type Scenario struct {
	Name           string
	Source, Target *benchdata.Dataset
	// SourceN is how many historical points feed transfer (paper: 200).
	SourceN int
	// InitFrac is the target-task initialisation fraction (paper: ≤5%).
	InitFrac float64
	// Budgets assigns fixed tool-run budgets to the fixed-budget baselines
	// and iteration caps to the self-stopping ones.
	Budgets map[Method]int
}

// The standard scenarios' stable names: checkpoint keys, wire-form unit
// specs and the StandardScenario resolver all spell them identically.
const (
	ScenarioOneName = "Scenario One (Source1 -> Target1)"
	ScenarioTwoName = "Scenario Two (Source2 -> Target2)"
)

// ScenarioOne builds Source1→Target1 with the paper's budgets.
func ScenarioOne() (*Scenario, error) {
	src, err := benchdata.Source1()
	if err != nil {
		return nil, err
	}
	tgt, err := benchdata.Target1()
	if err != nil {
		return nil, err
	}
	return &Scenario{
		Name: ScenarioOneName, Source: src, Target: tgt,
		SourceN: 200, InitFrac: 0.01,
		Budgets: map[Method]int{TCAD19: 510, MLCAD19: 400, DAC19: 600, ASPDAC20: 400, PPATuner: 260},
	}, nil
}

// ScenarioTwo builds Source2→Target2 with the paper's budgets.
func ScenarioTwo() (*Scenario, error) {
	src, err := benchdata.Source2()
	if err != nil {
		return nil, err
	}
	tgt, err := benchdata.Target2()
	if err != nil {
		return nil, err
	}
	return &Scenario{
		Name: ScenarioTwoName, Source: src, Target: tgt,
		SourceN: 200, InitFrac: 0.02,
		Budgets: map[Method]int{TCAD19: 95, MLCAD19: 70, DAC19: 130, ASPDAC20: 70, PPATuner: 65},
	}, nil
}

// Row is one table cell: seed-averaged metrics plus their run-to-run
// noise.
type Row struct {
	Method Method
	HV     float64
	ADRS   float64
	Runs   float64
	// HVStd/ADRSStd/RunsStd are the sample standard deviations over the
	// seeds (0 when a single seed was run) — the noise bars behind the
	// means above.
	HVStd   float64
	ADRSStd float64
	RunsStd float64
}

// Outcome is a single tuning run's result.
type Outcome struct {
	ParetoIdx []int
	Runs      int
}

// sourceSlice draws the scenario's historical source data, re-encoded into
// the target space's normalised coordinates (the source and target tasks
// tune the same physical knobs over different ranges, so transfer must align
// them by physical value, not by each space's own unit coordinates).
func sourceSlice(s *Scenario, objs []pdtool.Metric, rng *rand.Rand) (x [][]float64, y [][]float64) {
	idx := sample.Indices(rng, s.Source.N(), s.SourceN)
	y = make([][]float64, len(objs))
	for _, i := range idx {
		p := s.Source.Points[i]
		x = append(x, p.Config.EncodeInto(s.Target.Space))
		for k, m := range objs {
			y[k] = append(y[k], p.QoR.Get(m))
		}
	}
	return x, y
}

// initTarget is the scenario's initial target sample: InitFrac of the
// target pool, at least 5 points.
func initTarget(s *Scenario) int {
	return max(int(s.InitFrac*float64(s.Target.N())), 5)
}

// ppatunerOptions is the harness's PPATuner configuration on one scenario
// and objective space: the source slice drawn from rng, the initial sample
// of initTarget and the rest of the scenario's PPATuner budget as
// iterations. runMethod and Ablation both run it.
func ppatunerOptions(s *Scenario, space ObjSpace, rng *rand.Rand) core.Options {
	sx, sy := sourceSlice(s, space.Metrics, rng)
	init := initTarget(s)
	return core.Options{
		NumObjectives: len(space.Metrics),
		SourceX:       sx,
		SourceY:       sy,
		InitTarget:    init,
		MaxIter:       s.Budgets[PPATuner] - init,
		// Harness settings: τ = 9 (±3σ regions), δ at the default 2% of
		// range (the paper calls δ the user's precision controller), ARD
		// lengthscales so the surrogate can discover which of the 9–12
		// knobs interact.
		DeltaFrac:   0.02,
		Tau:         9,
		ARD:         true,
		FitMaxEvals: 400,
		Rng:         rng,
	}
}

// RunOpts carries optional harness knobs for RunMethodOpts and RunCell.
type RunOpts struct {
	// Wrap, when non-nil, wraps the pool evaluator before it reaches the
	// tuner — the hook for fault-tolerance middleware (robust.Evaluator,
	// chaos injection).
	Wrap func(core.Evaluator) core.Evaluator
	// Workers bounds the PPATuner engine's concurrency (surrogate fits,
	// region sweeps, batched evaluator calls); see core.Options.Workers.
	// 0 keeps the engine's default. A Campaign raises it for its last
	// units, onto the cores its idle lanes free. Results are identical for
	// any value — the parallel sections are deterministic — so this is
	// purely a wall-clock knob.
	Workers int
}

// RunMethod executes one tuner on one scenario and objective space: the
// table's cell for that seed, on the unit's own random stream.
func RunMethod(m Method, s *Scenario, space ObjSpace, seed int64) (*Outcome, error) {
	return RunMethodOpts(m, s, space, seed, RunOpts{})
}

// RunMethodOpts is RunMethod with harness options. It keeps no
// checkpoint; RunCell runs a cell resumably.
func RunMethodOpts(m Method, s *Scenario, space ObjSpace, seed int64, opts RunOpts) (*Outcome, error) {
	spec := UnitSpec{Scenario: s.Name, Space: space.Name, Method: m, Seed: seed}
	return runMethod(m, s, space, rand.New(unitSource(spec)), opts)
}

// runMethod runs m drawing from rng, with the pool evaluator under
// opts.Wrap.
func runMethod(m Method, s *Scenario, space ObjSpace, rng *rand.Rand, opts RunOpts) (*Outcome, error) {
	pool := s.Target.UnitX()
	objVecs := s.Target.Objectives(space.Metrics)
	var eval core.Evaluator = func(i int) ([]float64, error) { return objVecs[i], nil }
	if opts.Wrap != nil {
		eval = opts.Wrap(eval)
	}
	init := initTarget(s)
	budget := s.Budgets[m]

	switch m {
	case PPATuner:
		o := ppatunerOptions(s, space, rng)
		o.Workers = opts.Workers
		tn, err := core.New(pool, eval, o)
		if err != nil {
			return nil, err
		}
		res, err := tn.Run()
		if err != nil {
			return nil, err
		}
		return &Outcome{ParetoIdx: res.ParetoIdx, Runs: res.Runs}, nil
	case TCAD19:
		res, err := pal.Run(pool, eval, pal.Options{
			NumObjectives: len(space.Metrics),
			InitTarget:    init,
			MaxIter:       budget - init,
			Rng:           rng,
		})
		if err != nil {
			return nil, err
		}
		return &Outcome{ParetoIdx: res.ParetoIdx, Runs: res.Runs}, nil
	case MLCAD19:
		res, err := lcbbo.Run(pool, eval, lcbbo.Options{
			NumObjectives: len(space.Metrics),
			Budget:        budget,
			Rng:           rng,
		})
		if err != nil {
			return nil, err
		}
		return &Outcome{ParetoIdx: res.ParetoIdx, Runs: res.Runs}, nil
	case DAC19:
		res, err := recsys.Run(pool, eval, recsys.Options{
			NumObjectives: len(space.Metrics),
			Budget:        budget,
			Rng:           rng,
		})
		if err != nil {
			return nil, err
		}
		return &Outcome{ParetoIdx: res.ParetoIdx, Runs: res.Runs}, nil
	case ASPDAC20:
		sx, sy := sourceSlice(s, space.Metrics, rng)
		res, err := fist.Run(pool, eval, fist.Options{
			NumObjectives: len(space.Metrics),
			Budget:        budget,
			SourceX:       sx,
			SourceY:       sy,
			Rng:           rng,
		})
		if err != nil {
			return nil, err
		}
		return &Outcome{ParetoIdx: res.ParetoIdx, Runs: res.Runs}, nil
	default:
		return nil, fmt.Errorf("eval: unknown method %q", m)
	}
}

// Score measures an outcome against the target benchmark's golden front.
func Score(s *Scenario, space ObjSpace, out *Outcome) (hvErr, adrs float64) {
	objVecs := s.Target.Objectives(space.Metrics)
	golden := pareto.FrontPoints(objVecs)
	ref := pareto.ReferencePoint(objVecs, 0.10)
	approx := make([][]float64, 0, len(out.ParetoIdx))
	for _, i := range out.ParetoIdx {
		approx = append(approx, objVecs[i])
	}
	// The paper feeds predicted Pareto configurations back through the tool;
	// equivalently we score the golden vectors of the predicted set, after
	// dominance filtering.
	approx = pareto.FrontPoints(approx)
	return pareto.HVError(golden, approx, ref), pareto.ADRS(golden, approx)
}

// Table holds all rows of one comparison table.
type Table struct {
	Scenario *Scenario
	// Methods and Spaces are the axes the rows were built over; nil means
	// the full Methods()/Spaces() sets (legacy tables).
	Methods []Method
	Spaces  []ObjSpace
	// Rows[spaceIdx][methodIdx]
	Rows [][]Row
}

func (t *Table) methodList() []Method {
	if t.Methods != nil {
		return t.Methods
	}
	return Methods()
}

func (t *Table) spaceList() []ObjSpace {
	if t.Spaces != nil {
		return t.Spaces
	}
	return Spaces()
}

// Averages returns per-method averages over the objective spaces, in
// method order.
func (t *Table) Averages() []Row {
	methods := t.methodList()
	avg := make([]Row, len(methods))
	for mi, m := range methods {
		avg[mi].Method = m
		for si := range t.Rows {
			avg[mi].HV += t.Rows[si][mi].HV
			avg[mi].ADRS += t.Rows[si][mi].ADRS
			avg[mi].Runs += t.Rows[si][mi].Runs
		}
		n := float64(len(t.Rows))
		avg[mi].HV /= n
		avg[mi].ADRS /= n
		avg[mi].Runs /= n
	}
	return avg
}

// Format renders the table in the paper's layout (methods as column groups,
// objective spaces as rows, plus Average and Ratio rows). Per-space cells
// carry the seed mean ± sample standard deviation, so run-to-run noise is
// visible next to every number.
func (t *Table) Format() string {
	var b strings.Builder
	methods := t.methodList()
	fmt.Fprintf(&b, "%s\n", t.Scenario.Name)
	fmt.Fprintf(&b, "%-18s", "Multi-objective")
	for _, m := range methods {
		fmt.Fprintf(&b, " | %-9s HV           ADRS         Runs", m)
	}
	b.WriteByte('\n')
	spaces := t.spaceList()
	for si, rows := range t.Rows {
		fmt.Fprintf(&b, "%-18s", spaces[si].Name)
		for _, r := range rows {
			fmt.Fprintf(&b, " | %9s %.3f±%.3f  %.3f±%.3f  %4.0f±%-3.0f", "", r.HV, r.HVStd, r.ADRS, r.ADRSStd, r.Runs, r.RunsStd)
		}
		b.WriteByte('\n')
	}
	avg := t.Averages()
	fmt.Fprintf(&b, "%-18s", "Average")
	for _, r := range avg {
		fmt.Fprintf(&b, " | %9s %-11.3f  %-11.3f  %-8.1f", "", r.HV, r.ADRS, r.Runs)
	}
	b.WriteByte('\n')
	// Ratio row: each method's average relative to PPATuner's.
	var ppa Row
	for _, r := range avg {
		if r.Method == PPATuner {
			ppa = r
		}
	}
	fmt.Fprintf(&b, "%-18s", "Ratio")
	for _, r := range avg {
		fmt.Fprintf(&b, " | %9s %-11.3f  %-11.3f  %-8.3f", "", safeDiv(r.HV, ppa.HV), safeDiv(r.ADRS, ppa.ADRS), safeDiv(r.Runs, ppa.Runs))
	}
	b.WriteByte('\n')
	return b.String()
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// Figure3 runs PPATuner on Scenario Two in power–delay space, Table 3's
// cell for seed, and returns the two series of the paper's Figure 3 (see
// Figure3Fronts).
func Figure3(seed int64) (golden, learned [][]float64, err error) {
	s, err := ScenarioTwo()
	if err != nil {
		return nil, nil, err
	}
	out, err := RunMethod(PPATuner, s, Spaces()[1], seed)
	if err != nil {
		return nil, nil, err
	}
	golden, learned = Figure3Fronts(s, out)
	return golden, learned, nil
}

// Figure3Fronts returns Figure 3's series for a power–delay outcome on s:
// the golden Pareto front and the learned one, each sorted by delay.
func Figure3Fronts(s *Scenario, out *Outcome) (golden, learned [][]float64) {
	space := Spaces()[1] // Power-Delay
	golden, learned = GoldenFront(s, space), OutcomeFront(s, space, out)
	for _, pts := range [][][]float64{golden, learned} {
		sort.Slice(pts, func(a, b int) bool { return pts[a][1] < pts[b][1] })
	}
	return golden, learned
}
