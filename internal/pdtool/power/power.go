// Package power implements the power-analysis step of the flow: switching
// (net capacitance), internal (cell energy), leakage, and clock-tree power,
// using per-kind switching activities propagated from a register/PI toggle
// model. Results are in milliwatts at the operating frequency.
package power

import (
	"fmt"

	"ppatuner/internal/pdtool/cts"
	"ppatuner/internal/pdtool/drv"
	"ppatuner/internal/pdtool/lib"
	"ppatuner/internal/pdtool/netlist"
	"ppatuner/internal/pdtool/route"
)

// Options configures power analysis.
type Options struct {
	// FreqMHz is the operating clock frequency.
	FreqMHz float64
	// InputActivity is the toggle rate of primary inputs per cycle
	// (default 0.25).
	InputActivity float64
}

// Breakdown reports power by component, in mW.
type Breakdown struct {
	SwitchingMW float64
	InternalMW  float64
	LeakageMW   float64
	ClockMW     float64
}

// TotalMW sums all components.
func (b Breakdown) TotalMW() float64 {
	return b.SwitchingMW + b.InternalMW + b.LeakageMW + b.ClockMW
}

// activityFor returns the output toggle probability per cycle for each cell
// kind, given the average input activity a. These are standard logic-signal
// probability approximations for random inputs.
func activityFor(k lib.Kind, a float64) float64 {
	switch k {
	case lib.Inv, lib.Buf, lib.ClkBuf:
		return a
	case lib.Nand2, lib.Nor2, lib.And2, lib.Or2:
		return 0.75 * a
	case lib.Xor2:
		return 1.1 * a
	case lib.Aoi22:
		return 0.8 * a
	case lib.HalfAdder, lib.FullAdder:
		return a
	case lib.DFF:
		return 0.5 * a
	default:
		return a
	}
}

// Analyze computes the design's power breakdown. Net switched capacitances
// come from the DRV buffering plan and routed detours; the clock component
// from the CTS result.
func Analyze(nl *netlist.Netlist, l *lib.Library, fix *drv.Result, rt *route.Result, ct *cts.Result, opt Options) (*Breakdown, error) {
	if opt.FreqMHz <= 0 {
		return nil, fmt.Errorf("power: frequency %g MHz", opt.FreqMHz)
	}
	if opt.InputActivity <= 0 {
		opt.InputActivity = 0.25
	}

	// Propagate activities: net activity = driver activity; cell output
	// activity decays per logic stage (signal correlation).
	netAct := make([]float64, len(nl.Nets))
	for _, pi := range nl.PINets {
		netAct[pi] = opt.InputActivity
	}
	topo, err := nl.Topology()
	if err != nil {
		return nil, err
	}
	cellAct := make([]float64, len(nl.Cells))
	for i := 0; i < topo.Len(); i++ {
		ci := topo.Order(i)
		c := nl.Cells[ci]
		if c.Kind == lib.DFF {
			// Register outputs toggle at half the D activity (value changes).
			in := opt.InputActivity
			if len(c.Inputs) > 0 {
				in = netAct[c.Inputs[0]]
				if in == 0 {
					in = opt.InputActivity
				}
			}
			cellAct[ci] = activityFor(lib.DFF, in)
		} else {
			avg := 0.0
			for _, in := range c.Inputs {
				avg += netAct[in]
			}
			if len(c.Inputs) > 0 {
				avg /= float64(len(c.Inputs))
			}
			cellAct[ci] = activityFor(c.Kind, avg)
		}
		if c.Out >= 0 {
			netAct[c.Out] = cellAct[ci]
		}
	}

	vdd2 := l.Vdd * l.Vdd
	f := opt.FreqMHz
	var b Breakdown
	// Switching: act × C_net × Vdd² × f. fF·V²·MHz = nW.
	for id, net := range nl.Nets {
		if net.Driver < 0 && len(net.Sinks) == 0 {
			continue
		}
		act := netAct[id]
		capFF := fix.NetCapFF(l, nl, id, rt.Detour[id])
		b.SwitchingMW += 0.5 * act * capFF * vdd2 * f
	}
	// Internal energy and leakage per cell (plus DRV buffers).
	for ci, c := range nl.Cells {
		sc := l.Scaled(c.Kind, c.Size)
		b.InternalMW += cellAct[ci] * sc.InternalEnergy * f
		b.LeakageMW += sc.Leakage
	}
	buf := l.Cell(lib.Buf)
	b.LeakageMW += fix.BufferLeakage
	b.InternalMW += float64(fix.TotalBuffers) * 0.4 * opt.InputActivity * buf.InternalEnergy * f

	// Clock: toggles twice per cycle (both edges), activity 1.
	clkbuf := l.Cell(lib.ClkBuf)
	b.ClockMW = ct.SwitchedCapFF*vdd2*f + float64(ct.Buffers)*clkbuf.InternalEnergy*f
	b.LeakageMW += ct.LeakageNW

	// nW → mW.
	b.SwitchingMW /= 1e6
	b.InternalMW /= 1e6
	b.LeakageMW /= 1e6
	b.ClockMW /= 1e6
	return &b, nil
}
