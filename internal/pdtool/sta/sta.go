// Package sta implements static timing analysis over a placed, buffered and
// routed design: topological arrival-time propagation with load-dependent
// cell delays and Elmore wire delays, plus the timing-optimisation loop that
// commercial tools run — upsizing cells on (near-)critical paths until the
// target period (less uncertainty margin) is met within the allowed residual
// slack, or the effort budget runs out.
package sta

import (
	"fmt"
	"math"

	"ppatuner/internal/pdtool/drv"
	"ppatuner/internal/pdtool/lib"
	"ppatuner/internal/pdtool/netlist"
	"ppatuner/internal/pdtool/place"
	"ppatuner/internal/pdtool/route"
)

// Options configures analysis and optimisation.
type Options struct {
	// TargetPeriodPS is the clock period implied by the freq parameter.
	TargetPeriodPS float64
	// UncertaintyPS is the optimisation margin (place_uncertainty): the
	// optimiser aims at TargetPeriodPS − UncertaintyPS.
	UncertaintyPS float64
	// RCFactor scales wire RC (place_rcfactor).
	RCFactor float64
	// SkewPS is the clock skew from CTS.
	SkewPS float64
	// MaxAllowedDelayPS is the residual negative slack the tool tolerates
	// (max_AllowedDelay, converted to ps).
	MaxAllowedDelayPS float64
	// OptPasses bounds the sizing passes (effort-derived; 0 = analysis only).
	OptPasses int
	// MaxSize caps the drive-strength multiplier reached by upsizing.
	MaxSize float64
}

// Result reports timing.
type Result struct {
	// CriticalPathPS is the worst launch-to-capture data path delay.
	CriticalPathPS float64
	// AchievedPeriodPS = CriticalPathPS + setup + skew: the fastest clock
	// the design sustains. This is the flow's delay QoR metric.
	AchievedPeriodPS float64
	// SlackPS is TargetPeriodPS − AchievedPeriodPS.
	SlackPS float64
	// MinPathPS is the fastest launch-to-capture path (hold analysis).
	MinPathPS float64
	// HoldSlackPS = MinPathPS − skew − hold time; negative values flag hold
	// risk the router would fix with delay buffers.
	HoldSlackPS float64
	// Passes is the number of optimisation passes executed.
	Passes int
	// Upsized is the number of cell upsizings applied.
	Upsized int
}

// engine holds the propagation state reused across passes.
type engine struct {
	nl   *netlist.Netlist
	lib  *lib.Library
	pl   *place.Result
	fix  *drv.Result
	rt   *route.Result
	opt  Options
	topo *netlist.Topology
	buf  lib.Cell
	// regD lists the D-pin nets of the registers, in cell order: the
	// capture endpoints besides the primary outputs.
	regD []int
	// inCap, driveRes and intrinsic are each cell's Scaled view at its
	// current size. upsizeCritical refreshes the cells it resizes.
	inCap, driveRes, intrinsic []float64
	// dirty marks the nets whose delay is stale: every net before the
	// first pass, then each net whose driver or some sink was resized.
	dirty []bool
	// seen marks the cells one upsizeCritical pass has visited.
	seen []bool
	// arrival[c] is the data arrival time at cell c's output, ps.
	arrival []float64
	// argmax[c] is the input net realising the arrival, for backtracing.
	argmax []int
	// netArrive[n] is the arrival at the sink pins of net n.
	netArrive []float64
	netDelay  []float64
	// minArrival / minNetArrive mirror the above for the earliest (hold)
	// paths.
	minArrival   []float64
	minNetArrive []float64
}

// Analyze runs one STA pass (no optimisation) and returns the timing result.
func Analyze(nl *netlist.Netlist, l *lib.Library, pl *place.Result, fix *drv.Result, rt *route.Result, opt Options) (*Result, error) {
	e, err := newEngine(nl, l, pl, fix, rt, opt)
	if err != nil {
		return nil, err
	}
	e.propagate()
	return e.result(0, 0), nil
}

// Optimize runs STA passes interleaved with critical-path upsizing until the
// timing goal is met or the pass budget is exhausted. Cell sizes in nl are
// mutated — callers pass a per-run copy of the netlist.
func Optimize(nl *netlist.Netlist, l *lib.Library, pl *place.Result, fix *drv.Result, rt *route.Result, opt Options) (*Result, error) {
	e, err := newEngine(nl, l, pl, fix, rt, opt)
	if err != nil {
		return nil, err
	}
	if opt.MaxSize <= 1 {
		opt.MaxSize = 8
		e.opt.MaxSize = 8
	}
	goal := opt.TargetPeriodPS - opt.UncertaintyPS
	upsized := 0
	pass := 0
	for ; ; pass++ {
		e.propagate()
		achieved := e.achievedPeriod()
		if pass >= opt.OptPasses || achieved-goal <= opt.MaxAllowedDelayPS {
			break
		}
		n := e.upsizeCritical()
		if n == 0 {
			break // nothing left to improve
		}
		upsized += n
	}
	return e.result(pass, upsized), nil
}

func newEngine(nl *netlist.Netlist, l *lib.Library, pl *place.Result, fix *drv.Result, rt *route.Result, opt Options) (*engine, error) {
	if opt.TargetPeriodPS <= 0 {
		return nil, fmt.Errorf("sta: target period %g ps", opt.TargetPeriodPS)
	}
	if opt.RCFactor <= 0 {
		opt.RCFactor = 1
	}
	topo, err := nl.Topology()
	if err != nil {
		return nil, err
	}
	nc, nn := len(nl.Cells), len(nl.Nets)
	e := &engine{
		nl: nl, lib: l, pl: pl, fix: fix, rt: rt, opt: opt,
		topo:         topo,
		buf:          l.Cell(lib.Buf),
		inCap:        make([]float64, nc),
		driveRes:     make([]float64, nc),
		intrinsic:    make([]float64, nc),
		dirty:        make([]bool, nn),
		seen:         make([]bool, nc),
		arrival:      make([]float64, nc),
		argmax:       make([]int, nc),
		netArrive:    make([]float64, nn),
		netDelay:     make([]float64, nn),
		minArrival:   make([]float64, nc),
		minNetArrive: make([]float64, nn),
	}
	for ci, c := range nl.Cells {
		e.intrinsic[ci] = l.Cell(c.Kind).Intrinsic
		e.resized(ci)
		if c.Kind == lib.DFF && len(c.Inputs) > 0 {
			e.regD = append(e.regD, c.Inputs[0])
		}
	}
	return e, nil
}

// resized refreshes cell ci's view at its current size and marks stale the
// delay of every net it drives or loads. A net lists a sink once per pin,
// so every input net is marked, repeated pins included.
func (e *engine) resized(ci int) {
	c := &e.nl.Cells[ci]
	e.inCap[ci] = e.lib.InCap(c.Kind, c.Size)
	e.driveRes[ci] = e.lib.DriveRes(c.Kind, c.Size)
	if c.Out >= 0 {
		e.dirty[c.Out] = true
	}
	for _, in := range c.Inputs {
		e.dirty[in] = true
	}
}

// computeNetDelay returns the driver-cell-input to sink-pin delay of the
// net: the driving cell's intrinsic and drive-resistance terms plus the
// Elmore wire delay of each buffered stage. The RC factor scales the
// extracted wire parasitics (place_rcfactor). The pin-cap sum restarts from
// zero in sink order on every call: a running total updated by deltas
// would round differently.
func (e *engine) computeNetDelay(netID int) float64 {
	net := e.nl.Nets[netID]
	f := e.fix.Fix[netID]
	driveRes := 1.2 // pad driver for PI nets
	var intrinsic float64
	if net.Driver >= 0 {
		driveRes = e.driveRes[net.Driver]
		intrinsic = e.intrinsic[net.Driver]
	}
	var pinCap float64
	for _, s := range net.Sinks {
		pinCap += e.inCap[s]
	}
	pinCap /= float64(f.Stages)
	buf := &e.buf
	if f.Stages > 1 {
		pinCap += buf.InCap
	}
	segLen := f.StageLenUm * e.rt.Detour[netID]
	cw := e.lib.WireCapPerUm * segLen * e.opt.RCFactor
	rw := e.lib.WireResPerUm * segLen / 1000.0 * e.opt.RCFactor
	stageCap := pinCap + cw
	wireTerm := rw * (cw/2 + pinCap)
	d := intrinsic + driveRes*stageCap + wireTerm
	for s := 1; s < f.Stages; s++ {
		d += buf.Intrinsic + buf.DriveRes*stageCap + wireTerm
	}
	return d
}

// propagate recomputes the stale net delays, then arrival times in
// topological order.
func (e *engine) propagate() {
	nl := e.nl
	for id, stale := range e.dirty {
		if stale {
			e.netDelay[id] = e.computeNetDelay(id)
			e.dirty[id] = false
		}
	}
	// PI nets launch at t=0 for setup analysis (conservative). For hold
	// analysis, primary inputs come from upstream registered logic, so the
	// earliest they can change is a clk-to-q after the edge.
	for _, pi := range nl.PINets {
		e.netArrive[pi] = e.netDelay[pi]
		e.minNetArrive[pi] = e.lib.ClkToQ + e.netDelay[pi]
	}
	for i := 0; i < e.topo.Len(); i++ {
		ci := e.topo.Order(i)
		c := nl.Cells[ci]
		if c.Kind == lib.DFF {
			// Launch: Q arrives clk-to-q plus its net delay.
			e.arrival[ci] = e.lib.ClkToQ
			e.minArrival[ci] = e.lib.ClkToQ
			if c.Out >= 0 {
				e.netArrive[c.Out] = e.arrival[ci] + e.netDelay[c.Out]
				e.minNetArrive[c.Out] = e.minArrival[ci] + e.netDelay[c.Out]
			}
			continue
		}
		worst := 0.0
		best := math.Inf(1)
		arg := -1
		for _, in := range c.Inputs {
			if a := e.netArrive[in]; a > worst {
				worst = a
				arg = in
			}
			if a := e.minNetArrive[in]; a < best {
				best = a
			}
		}
		if arg < 0 {
			best = 0
		}
		e.arrival[ci] = worst
		e.minArrival[ci] = best
		e.argmax[ci] = arg
		if c.Out >= 0 {
			e.netArrive[c.Out] = worst + e.netDelay[c.Out]
			e.minNetArrive[c.Out] = best + e.netDelay[c.Out]
		}
	}
}

// minEndpointArrival returns the earliest endpoint arrival (hold analysis).
func (e *engine) minEndpointArrival() float64 {
	best := math.Inf(1)
	for _, d := range e.regD {
		if a := e.minNetArrive[d]; a < best {
			best = a
		}
	}
	if math.IsInf(best, 1) {
		best = 0
	}
	return best
}

// criticalArrival returns the worst endpoint arrival (register D pins and
// primary outputs) and that endpoint's net.
func (e *engine) criticalArrival() (float64, int) {
	worst, arg := 0.0, -1
	for _, d := range e.regD {
		if a := e.netArrive[d]; a > worst {
			worst = a
			arg = d
		}
	}
	for _, po := range e.nl.PONets {
		if a := e.netArrive[po]; a > worst {
			worst = a
			arg = po
		}
	}
	return worst, arg
}

func (e *engine) achievedPeriod() float64 {
	crit, _ := e.criticalArrival()
	return crit + e.lib.SetupTime + e.opt.SkewPS
}

// upsizeCritical backtraces the worst timing paths and upsizes the cells on
// them. Sizing is selective — only path cells grow — so the drive-strength
// gain is not cancelled by load growth on off-path sinks, mirroring how a
// real optimiser's sizing converges. Returns the number of sizes changed.
func (e *engine) upsizeCritical() int {
	crit, _ := e.criticalArrival()
	if crit <= 0 {
		return 0
	}
	// Collect endpoints within 3% of the worst arrival.
	var eps []int
	threshold := 0.97 * crit
	for _, d := range e.regD {
		if e.netArrive[d] >= threshold {
			eps = append(eps, d)
		}
	}
	for _, po := range e.nl.PONets {
		if e.netArrive[po] >= threshold {
			eps = append(eps, po)
		}
	}
	const maxEndpoints = 32
	if len(eps) > maxEndpoints {
		eps = eps[:maxEndpoints]
	}
	changed := 0
	clear(e.seen)
	for _, net := range eps {
		for net >= 0 {
			ci := e.nl.Nets[net].Driver
			if ci < 0 {
				break
			}
			c := &e.nl.Cells[ci]
			if c.Kind == lib.DFF {
				break // launch point reached
			}
			if !e.seen[ci] && c.Size < e.opt.MaxSize {
				ns := c.Size * 1.5
				if ns > e.opt.MaxSize {
					ns = e.opt.MaxSize
				}
				c.Size = ns
				e.resized(ci)
				changed++
			}
			e.seen[ci] = true
			net = e.argmax[ci]
		}
	}
	return changed
}

func (e *engine) result(passes, upsized int) *Result {
	crit, _ := e.criticalArrival()
	achieved := crit + e.lib.SetupTime + e.opt.SkewPS
	minPath := e.minEndpointArrival()
	// Hold check: data launched at an edge must not race through before the
	// capture register's hold window (skew makes capture clocks late).
	const holdTimePS = 8
	return &Result{
		CriticalPathPS:   crit,
		AchievedPeriodPS: achieved,
		SlackPS:          e.opt.TargetPeriodPS - achieved,
		MinPathPS:        minPath,
		HoldSlackPS:      minPath - e.opt.SkewPS - holdTimePS,
		Passes:           passes,
		Upsized:          upsized,
	}
}

// PathDepthEstimatePS is a coarse lower bound on the design's critical path
// from logic levels alone (diagnostic aid).
func PathDepthEstimatePS(nl *netlist.Netlist, l *lib.Library) float64 {
	topo, err := nl.Topology()
	if err != nil {
		return math.NaN()
	}
	return float64(topo.MaxLevel()) * l.Cell(lib.Nand2).Intrinsic
}
