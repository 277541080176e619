// Package route models global routing over the placement bin grid: every
// net's bounding-box demand is smeared over the bins it crosses, congestion
// is demand over capacity, and congested regions force detours that lengthen
// nets. The tool's cong_effort parameter buys rip-up-and-reroute passes that
// spread demand out of hot bins at a small wirelength cost.
package route

import (
	"fmt"
	"math"

	"ppatuner/internal/pdtool/netlist"
	"ppatuner/internal/pdtool/place"
)

// Effort is the congestion-effort ladder of the tool.
type Effort int

const (
	EffortAuto Effort = iota
	EffortMedium
	EffortHigh
)

// ParseEffort maps the tool's enum strings.
func ParseEffort(s string) (Effort, error) {
	switch s {
	case "AUTO":
		return EffortAuto, nil
	case "MEDIUM":
		return EffortMedium, nil
	case "HIGH":
		return EffortHigh, nil
	default:
		return EffortAuto, fmt.Errorf("route: unknown congestion effort %q", s)
	}
}

// Options configures routing.
type Options struct {
	Effort Effort
	// TrackPitchUm is the routing track pitch (default 0.08 µm).
	TrackPitchUm float64
	// Layers is the number of routing layer pairs (default 5).
	Layers int
}

// Result is the routing outcome.
type Result struct {
	// Detour[i] is the routed-length multiplier (≥1) of net i.
	Detour []float64
	// TotalWirelenUm is the sum of routed net lengths.
	TotalWirelenUm float64
	// MaxCongestion is the peak bin demand/capacity ratio.
	MaxCongestion float64
	// AvgCongestion is the mean ratio over occupied bins.
	AvgCongestion float64
	// OverflowUm is the total demand above capacity.
	OverflowUm float64
}

// Route computes per-net detours and congestion statistics.
func Route(nl *netlist.Netlist, pl *place.Result, opt Options) (*Result, error) {
	if opt.TrackPitchUm <= 0 {
		opt.TrackPitchUm = 0.08
	}
	if opt.Layers <= 0 {
		opt.Layers = 5
	}
	bx, by := pl.BinsX, pl.BinsY
	if bx == 0 || by == 0 {
		return nil, fmt.Errorf("route: placement has no bin grid")
	}
	binW := pl.CoreW / float64(bx)
	binH := pl.CoreH / float64(by)
	// Capacity: routable wirelength per bin across all layers.
	capacity := float64(opt.Layers) * (binW/opt.TrackPitchUm*binH + binH/opt.TrackPitchUm*binW) / 2

	demand := make([]float64, bx*by)
	type span struct{ x0, x1, y0, y1 int }
	spans := make([]span, len(nl.Nets))
	addDemand := func(s span, length float64) {
		nb := float64((s.x1 - s.x0 + 1) * (s.y1 - s.y0 + 1))
		per := length / nb
		for y := s.y0; y <= s.y1; y++ {
			for x := s.x0; x <= s.x1; x++ {
				demand[y*bx+x] += per
			}
		}
	}
	binOf := func(xc, yc float64) (int, int) {
		x := int(xc / pl.CoreW * float64(bx))
		y := int(yc / pl.CoreH * float64(by))
		if x < 0 {
			x = 0
		} else if x >= bx {
			x = bx - 1
		}
		if y < 0 {
			y = 0
		} else if y >= by {
			y = by - 1
		}
		return x, y
	}
	lengths := make([]float64, len(nl.Nets))
	for id, net := range nl.Nets {
		if net.Driver < 0 || len(net.Sinks) == 0 {
			spans[id] = span{0, 0, 0, 0}
			continue
		}
		x0, y0 := binOf(pl.X[net.Driver], pl.Y[net.Driver])
		s := span{x0, x0, y0, y0}
		for _, snk := range net.Sinks {
			x, y := binOf(pl.X[snk], pl.Y[snk])
			s.x0 = min(s.x0, x)
			s.x1 = max(s.x1, x)
			s.y0 = min(s.y0, y)
			s.y1 = max(s.y1, y)
		}
		spans[id] = s
		lengths[id] = pl.NetLen[id]
		addDemand(s, lengths[id])
	}

	// Rip-up passes: move demand from overfull bins to their least-loaded
	// neighbour; each unit moved pays a detour tax recorded per bin.
	passes := 1
	switch opt.Effort {
	case EffortMedium:
		passes = 2
	case EffortHigh:
		passes = 4
	}
	moved := make([]float64, bx*by)
	for p := 0; p < passes; p++ {
		changed := false
		for y := 0; y < by; y++ {
			for x := 0; x < bx; x++ {
				b := y*bx + x
				if demand[b] <= capacity {
					continue
				}
				excess := demand[b] - capacity
				// Find least-loaded neighbour.
				bestB, bestD := -1, math.Inf(1)
				for _, d := range [][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
					tx, ty := x+d[0], y+d[1]
					if tx < 0 || tx >= bx || ty < 0 || ty >= by {
						continue
					}
					tb := ty*bx + tx
					if demand[tb] < bestD {
						bestD = demand[tb]
						bestB = tb
					}
				}
				if bestB < 0 || bestD >= demand[b] {
					continue
				}
				shift := math.Min(excess, (demand[b]-bestD)/2)
				demand[b] -= shift
				demand[bestB] += shift
				moved[bestB] += shift
				changed = true
			}
		}
		if !changed {
			break
		}
	}

	res := &Result{Detour: make([]float64, len(nl.Nets))}
	var congSum float64
	occupied := 0
	var overflow float64
	for b, d := range demand {
		ratio := d / capacity
		if d > 0 {
			congSum += ratio
			occupied++
		}
		if ratio > res.MaxCongestion {
			res.MaxCongestion = ratio
		}
		if d > capacity {
			overflow += d - capacity
		}
		_ = b
	}
	if occupied > 0 {
		res.AvgCongestion = congSum / float64(occupied)
	}
	res.OverflowUm = overflow

	// Per-net detour: average congestion over the net's span, plus the
	// rip-up tax of rerouted demand crossing its bins.
	for id := range nl.Nets {
		s := spans[id]
		if lengths[id] == 0 {
			res.Detour[id] = 1
			continue
		}
		var c, m float64
		nb := 0
		for y := s.y0; y <= s.y1; y++ {
			for x := s.x0; x <= s.x1; x++ {
				c += demand[y*bx+x] / capacity
				m += moved[y*bx+x] / capacity
				nb++
			}
		}
		c /= float64(nb)
		m /= float64(nb)
		detour := 1.0
		if c > 0.5 {
			// Congestion-driven scenic routing grows superlinearly: past
			// ~50% track usage, maze routers start taking long ways around,
			// and overflow regions blow up quickly.
			d := c - 0.5
			detour += 0.6*d + 2.2*d*d
		}
		detour += 0.15 * m // rip-up reroutes are slightly longer
		res.Detour[id] = detour
		res.TotalWirelenUm += lengths[id] * detour
	}
	return res, nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
