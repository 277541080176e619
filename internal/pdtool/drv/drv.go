// Package drv implements the design-rule-violation fixing step of the flow:
// nets violating the tool's max_fanout / max_capacitance / max_transition /
// max_Length limits receive buffer chains. Buffering is modelled at the
// electrical-abstraction level — the netlist is not rewritten; instead each
// net gets a stage model (stage count, per-stage load and length) that the
// timing and power engines consume, plus the aggregate buffer area, leakage
// and capacitance overhead. This matches how pre-route virtual buffering is
// estimated inside commercial flows.
package drv

import (
	"fmt"
	"math"

	"ppatuner/internal/pdtool/lib"
	"ppatuner/internal/pdtool/netlist"
	"ppatuner/internal/pdtool/place"
)

// Limits are the DRV rule parameters of the tool.
type Limits struct {
	MaxFanout  int     // max sinks per stage
	MaxCapFF   float64 // max load per stage, fF
	MaxTransPS float64 // max output transition, ps
	MaxLenUm   float64 // max unbuffered wire length, µm
}

// Validate rejects non-physical limits.
func (lm Limits) Validate() error {
	if lm.MaxFanout < 1 {
		return fmt.Errorf("drv: MaxFanout %d < 1", lm.MaxFanout)
	}
	if lm.MaxCapFF <= 0 || lm.MaxTransPS <= 0 || lm.MaxLenUm <= 0 {
		return fmt.Errorf("drv: non-positive limit %+v", lm)
	}
	return nil
}

// NetFix is the buffering plan of one net.
type NetFix struct {
	// Stages is the number of driver stages (1 = unbuffered).
	Stages int
	// StageLoadFF is the capacitive load seen by each stage driver.
	StageLoadFF float64
	// StageLenUm is the wire length driven per stage.
	StageLenUm float64
}

// Buffers returns the number of inserted buffers on the net.
func (f NetFix) Buffers() int { return f.Stages - 1 }

// Result aggregates the DRV fixing outcome.
type Result struct {
	Fix          []NetFix // indexed by net ID
	TotalBuffers int
	// BufferArea is the added cell area, µm².
	BufferArea float64
	// BufferLeakage is the added leakage, nW.
	BufferLeakage float64
	// Violations counts nets that violated at least one rule pre-fix.
	Violations int
}

// Fix computes the buffering plan for every net.
func Fix(nl *netlist.Netlist, l *lib.Library, pl *place.Result, lm Limits) (*Result, error) {
	if err := lm.Validate(); err != nil {
		return nil, err
	}
	buf := l.Cell(lib.Buf)
	res := &Result{Fix: make([]NetFix, len(nl.Nets))}
	for id, net := range nl.Nets {
		length := pl.NetLen[id]
		var sinkCap float64
		for _, s := range net.Sinks {
			sinkCap += l.InCap(nl.Cells[s].Kind, nl.Cells[s].Size)
		}
		load := sinkCap + l.WireCapPerUm*length

		// Driver resistance: PI nets assume a nominal pad driver.
		driveRes := 1.2
		if net.Driver >= 0 {
			dc := nl.Cells[net.Driver]
			driveRes = l.DriveRes(dc.Kind, dc.Size)
		}
		trans := 2.2 * driveRes * load // RC ramp estimate, ps

		stages := 1
		grow := func(n int) {
			if n > stages {
				stages = n
			}
		}
		if fo := len(net.Sinks); fo > lm.MaxFanout {
			grow(int(math.Ceil(float64(fo) / float64(lm.MaxFanout))))
		}
		if load > lm.MaxCapFF {
			grow(int(math.Ceil(load / lm.MaxCapFF)))
		}
		if trans > lm.MaxTransPS {
			grow(int(math.Ceil(trans / lm.MaxTransPS)))
		}
		if length > lm.MaxLenUm {
			grow(int(math.Ceil(length / lm.MaxLenUm)))
		}
		if stages > 1 {
			res.Violations++
		}
		// Cap the chain: beyond 16 stages the model stops being useful.
		if stages > 16 {
			stages = 16
		}
		stageLen := length / float64(stages)
		stageLoad := load/float64(stages) + buf.InCap*boolTo01(stages > 1)
		res.Fix[id] = NetFix{Stages: stages, StageLoadFF: stageLoad, StageLenUm: stageLen}
		nb := stages - 1
		res.TotalBuffers += nb
		res.BufferArea += float64(nb) * buf.Area
		res.BufferLeakage += float64(nb) * buf.Leakage
	}
	return res, nil
}

func boolTo01(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// NetDelayPS returns the total net delay (driver-output to sink-input) in ps
// under the buffering plan: the driver's stage plus each buffer stage, each
// an Elmore segment, plus buffer intrinsic delays.
func (r *Result) NetDelayPS(l *lib.Library, driveResKOhm float64, netID int, rcFactor float64, routedDetour float64) float64 {
	f := r.Fix[netID]
	buf := l.Cell(lib.Buf)
	segLen := f.StageLenUm * routedDetour
	// First stage driven by the original driver.
	d := l.WireDelayPS(driveResKOhm, segLen, f.StageLoadFF) * rcFactor
	// Subsequent stages driven by buffers.
	for s := 1; s < f.Stages; s++ {
		d += buf.Intrinsic + l.WireDelayPS(buf.DriveRes, segLen, f.StageLoadFF)*rcFactor
	}
	return d
}

// NetCapFF returns the total switched capacitance of the net including
// inserted buffer input pins and the routed wire. Congestion detours are
// damped: scenic routes concentrate on the minority of nets crossing hot
// regions (where they dominate delay), while a net's *average* wirelength —
// what total switched capacitance sees — moves much less.
func (r *Result) NetCapFF(l *lib.Library, nl *netlist.Netlist, netID int, routedDetour float64) float64 {
	f := r.Fix[netID]
	var sinkCap float64
	for _, s := range nl.Nets[netID].Sinks {
		sinkCap += l.InCap(nl.Cells[s].Kind, nl.Cells[s].Size)
	}
	capDetour := 1 + 0.3*(routedDetour-1)
	wire := l.WireCapPerUm * f.StageLenUm * float64(f.Stages) * capDetour
	bufCap := float64(f.Buffers()) * l.Cell(lib.Buf).InCap
	return sinkCap + wire + bufCap
}
