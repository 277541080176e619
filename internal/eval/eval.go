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

// RunOpts carries optional harness knobs for RunMethodOpts.
type RunOpts struct {
	// Wrap, when non-nil, wraps the pool evaluator before it reaches the
	// tuner — the hook for fault-tolerance middleware (robust.Evaluator,
	// checkpoint caches, chaos injection).
	Wrap func(core.Evaluator) core.Evaluator
	// Workers bounds the PPATuner engine's concurrency (surrogate fits,
	// region sweeps, batched evaluator calls); see core.Options.Workers.
	// 0 keeps the engine's default. A Campaign raises it for its last
	// units, onto the cores its idle lanes free. Results are identical for
	// any value — the parallel sections are deterministic — so this is
	// purely a wall-clock knob.
	Workers int
	// Src, when non-nil, replaces the default seed-derived generator
	// (rand.New(rand.NewSource(seed))) as the run's random source. Sources
	// with serialisable state (core.PCGSource) make the RNG state
	// checkpointable, so a resumed run restores the exact generator state
	// instead of re-deriving it from the seed. nil keeps legacy callers
	// bit-for-bit unchanged.
	Src rand.Source
}

// RunMethod executes one tuner on one scenario and objective space.
func RunMethod(m Method, s *Scenario, space ObjSpace, seed int64) (*Outcome, error) {
	return RunMethodOpts(m, s, space, seed, RunOpts{})
}

// RunMethodOpts is RunMethod with harness options.
func RunMethodOpts(m Method, s *Scenario, space ObjSpace, seed int64, opts RunOpts) (*Outcome, error) {
	var rng *rand.Rand
	if opts.Src != nil {
		rng = rand.New(opts.Src)
	} else {
		rng = rand.New(rand.NewSource(seed))
	}
	pool := s.Target.UnitX()
	objVecs := s.Target.Objectives(space.Metrics)
	var eval core.Evaluator = func(i int) ([]float64, error) { return objVecs[i], nil }
	if opts.Wrap != nil {
		eval = opts.Wrap(eval)
	}
	init := int(s.InitFrac * float64(s.Target.N()))
	if init < 5 {
		init = 5
	}
	budget := s.Budgets[m]

	switch m {
	case PPATuner:
		sx, sy := sourceSlice(s, space.Metrics, rng)
		tn, err := core.New(pool, eval, core.Options{
			NumObjectives: len(space.Metrics),
			SourceX:       sx,
			SourceY:       sy,
			InitTarget:    init,
			MaxIter:       budget - init,
			// Harness settings: τ = 4 (±2σ regions), δ at the default 2% of
			// range (the paper calls δ the user's precision controller), ARD
			// lengthscales so the surrogate can discover which of the 9–12
			// knobs interact.
			DeltaFrac:   0.02,
			Tau:         9,
			ARD:         true,
			FitMaxEvals: 400,
			Workers:     opts.Workers,
			Rng:         rng,
			Src:         opts.Src,
		})
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

// Cell runs a method over several seeds and aggregates the metrics (mean
// plus sample standard deviation). It is a single-method, single-space
// Campaign, so the per-seed results — and the PCG random streams behind
// them — are identical to the matching cells of a full table campaign.
func Cell(m Method, s *Scenario, space ObjSpace, seeds []int64) (Row, error) {
	c := &Campaign{Scenario: s, Seeds: seeds, Spaces: []ObjSpace{space}, Methods: []Method{m}}
	tbl, err := c.Run()
	if err != nil {
		return Row{Method: m}, err
	}
	return tbl.Rows[0][0], nil
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

// BuildTable regenerates one of the paper's comparison tables: a serial,
// uncheckpointed Campaign over the full method and objective-space axes.
func BuildTable(s *Scenario, seeds []int64) (*Table, error) {
	return (&Campaign{Scenario: s, Seeds: seeds}).Run()
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

// Figure3 runs PPATuner on Scenario Two in power–delay space and returns the
// golden Pareto front and the learned front, each sorted by delay — the two
// series of the paper's Figure 3.
func Figure3(seed int64) (golden, learned [][]float64, err error) {
	return Figure3Opts(seed, RunOpts{})
}

// Figure3Opts is Figure3 with harness options (evaluator middleware, engine
// workers, a checkpointable random source). A nil opts.Src is replaced with
// a seed-derived core.PCGSource so the run's RNG state is always
// exportable for crash-safe resume.
func Figure3Opts(seed int64, opts RunOpts) (golden, learned [][]float64, err error) {
	s, err := ScenarioTwo()
	if err != nil {
		return nil, nil, err
	}
	space := Spaces()[1] // Power-Delay
	if opts.Src == nil {
		opts.Src = Figure3Source(seed)
	}
	out, err := RunMethodOpts(PPATuner, s, space, seed, opts)
	if err != nil {
		return nil, nil, err
	}
	objVecs := s.Target.Objectives(space.Metrics)
	golden = pareto.FrontPoints(objVecs)
	for _, i := range out.ParetoIdx {
		learned = append(learned, objVecs[i])
	}
	learned = pareto.FrontPoints(learned)
	byDelay := func(pts [][]float64) {
		sort.Slice(pts, func(a, b int) bool { return pts[a][1] < pts[b][1] })
	}
	byDelay(golden)
	byDelay(learned)
	return golden, learned, nil
}
