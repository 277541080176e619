// Package place implements the global-placement step of the flow simulator:
// a levelised initial placement followed by force-directed refinement with
// bin-density legalisation. Its outputs — cell coordinates, bin utilisation,
// half-perimeter wirelength — feed the routing, timing and power engines.
//
// Tool parameters steering it: max_Density sets the core utilisation (die
// size), max_density caps local bin density during spreading,
// uniform_density forces even spreading, and the timing effort adds netlist-
// depth-weighted attraction so critical logic clusters.
package place

import (
	"fmt"
	"math"

	"ppatuner/internal/pdtool/lib"
	"ppatuner/internal/pdtool/netlist"
)

// Options configures a placement run.
type Options struct {
	// TargetUtil is the core utilisation (the tool's max_Density): the die
	// area is cellArea / TargetUtil.
	TargetUtil float64
	// MaxBinDensity caps the local bin utilisation during spreading (the
	// tool's max_density).
	MaxBinDensity float64
	// UniformDensity spreads cells evenly regardless of MaxBinDensity
	// (the tool's uniform_density switch).
	UniformDensity bool
	// TimingWeight in [0, 1] scales extra attraction on deep-logic nets.
	TimingWeight float64
	// Iterations is the number of refine+legalise rounds (effort-derived).
	Iterations int
}

// Result is the placement outcome.
type Result struct {
	X, Y         []float64 // cell positions, µm
	CoreW, CoreH float64   // die dimensions, µm
	BinsX, BinsY int
	BinUtil      []float64 // row-major bin utilisation (area / bin capacity)
	Overflow     float64   // fraction of cell area in overfull bins
	HPWL         float64   // total half-perimeter wirelength, µm
	NetLen       []float64 // per-net half-perimeter wirelength (NetLength), µm
}

// Bin returns the bin index containing coordinate (x, y).
func (r *Result) Bin(x, y float64) int {
	bx := int(x / r.CoreW * float64(r.BinsX))
	by := int(y / r.CoreH * float64(r.BinsY))
	if bx < 0 {
		bx = 0
	} else if bx >= r.BinsX {
		bx = r.BinsX - 1
	}
	if by < 0 {
		by = 0
	} else if by >= r.BinsY {
		by = r.BinsY - 1
	}
	return by*r.BinsX + bx
}

// Place runs global placement. It is deterministic: identical inputs yield
// identical results.
func Place(nl *netlist.Netlist, l *lib.Library, opt Options) (*Result, error) {
	n := len(nl.Cells)
	if n == 0 {
		return nil, fmt.Errorf("place: empty netlist %s", nl.Name)
	}
	if opt.TargetUtil <= 0 || opt.TargetUtil > 1 {
		return nil, fmt.Errorf("place: TargetUtil %g outside (0, 1]", opt.TargetUtil)
	}
	if opt.MaxBinDensity <= 0 {
		return nil, fmt.Errorf("place: MaxBinDensity %g <= 0", opt.MaxBinDensity)
	}
	if opt.Iterations <= 0 {
		opt.Iterations = 8
	}

	topo, err := nl.Topology()
	if err != nil {
		return nil, err
	}
	cellArea := make([]float64, n)
	var area float64
	for ci, c := range nl.Cells {
		cellArea[ci] = l.Area(c.Kind, c.Size)
		area += cellArea[ci]
	}
	coreArea := area / opt.TargetUtil
	side := math.Sqrt(coreArea)
	res := &Result{
		X:     make([]float64, n),
		Y:     make([]float64, n),
		CoreW: side,
		CoreH: side,
	}

	// Initial placement: snake cells across the core in topological order so
	// connected logic starts near its neighbours.
	cols := int(math.Ceil(math.Sqrt(float64(n))))
	pitchX := side / float64(cols)
	rows := (n + cols - 1) / cols
	pitchY := side / float64(rows)
	for i := 0; i < topo.Len(); i++ {
		ci := topo.Order(i)
		r, c := i/cols, i%cols
		if r%2 == 1 {
			c = cols - 1 - c
		}
		res.X[ci] = (float64(c) + 0.5) * pitchX
		res.Y[ci] = (float64(r) + 0.5) * pitchY
	}

	// Net weights: deeper logic gets stronger attraction under timing-driven
	// placement.
	maxLvl := max(1, topo.MaxLevel())
	netW := make([]float64, len(nl.Nets))
	for id, net := range nl.Nets {
		w := 1.0
		if net.Driver >= 0 && opt.TimingWeight > 0 {
			w += opt.TimingWeight * float64(topo.Level(net.Driver)) / float64(maxLvl)
		}
		// Huge-fanout nets (e.g. operand broadcasts) attract weakly per pin.
		if len(net.Sinks) > 8 {
			w *= 8 / float64(len(net.Sinks))
		}
		netW[id] = w
	}

	// Bin grid for legalisation.
	bins := int(math.Sqrt(float64(n)/12)) + 4
	res.BinsX, res.BinsY = bins, bins

	p := &placer{
		nl: nl, res: res, netW: netW, cellArea: cellArea,
		densCap: opt.MaxBinDensity,
		sx:      make([]float64, n), sy: make([]float64, n), sw: make([]float64, n),
		util:    make([]float64, bins*bins),
		members: make([][]int, bins*bins),
	}
	if opt.UniformDensity {
		// Even distribution: allow only a little headroom above average.
		avg := area / (res.CoreW * res.CoreH)
		p.densCap = math.Min(p.densCap, avg*1.15+0.02)
	}
	for iter := 0; iter < opt.Iterations; iter++ {
		step := 0.7 * math.Pow(0.85, float64(iter))
		p.forceStep(step)
		p.spread(iter == opt.Iterations-1)
	}

	res.BinUtil, res.Overflow = binStats(res, cellArea, area, opt)
	res.NetLen = make([]float64, len(nl.Nets))
	for id := range nl.Nets {
		res.NetLen[id] = NetLength(nl, res, id)
		res.HPWL += res.NetLen[id]
	}
	return res, nil
}

// placer holds the refinement state, and the buffers forceStep and spread
// reuse across rounds.
type placer struct {
	nl       *netlist.Netlist
	res      *Result
	netW     []float64
	cellArea []float64
	// densCap is the bin utilisation spread enforces.
	densCap float64
	// sx, sy, sw are forceStep's weighted pull sums per cell.
	sx, sy, sw []float64
	// util and members are spread's per-bin utilisation and cells.
	util    []float64
	members [][]int
}

// forceStep moves every cell a fraction of the way toward the weighted
// centroid of its connected cells.
func (p *placer) forceStep(step float64) {
	nl, res, sx, sy, sw := p.nl, p.res, p.sx, p.sy, p.sw
	clear(sx)
	clear(sy)
	clear(sw)
	for id, net := range nl.Nets {
		if net.Driver < 0 {
			continue
		}
		w := p.netW[id]
		a := net.Driver
		for _, b := range net.Sinks {
			if b == a {
				continue
			}
			sx[a] += w * res.X[b]
			sy[a] += w * res.Y[b]
			sw[a] += w
			sx[b] += w * res.X[a]
			sy[b] += w * res.Y[a]
			sw[b] += w
		}
	}
	for ci := range sw {
		if sw[ci] == 0 {
			continue
		}
		cx := sx[ci] / sw[ci]
		cy := sy[ci] / sw[ci]
		res.X[ci] += step * (cx - res.X[ci])
		res.Y[ci] += step * (cy - res.Y[ci])
		res.X[ci] = clamp(res.X[ci], 0, res.CoreW)
		res.Y[ci] = clamp(res.Y[ci], 0, res.CoreH)
	}
}

// neighbours are the eight bins around a bin, in the order spread tries
// them.
var neighbours = [8][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}, {1, 1}, {-1, -1}, {1, -1}, {-1, 1}}

// spread legalises bin density: cells in overfull bins are pushed to the
// least-full neighbouring bin. The density cap is MaxBinDensity, or the
// average utilisation when UniformDensity is set (even spreading). The final
// round always enforces the cap so the result respects the constraint.
func (p *placer) spread(final bool) {
	res, util, members, cellArea, cap := p.res, p.util, p.members, p.cellArea, p.densCap
	bx, by := res.BinsX, res.BinsY
	binW := res.CoreW / float64(bx)
	binH := res.CoreH / float64(by)
	binCap := binW * binH

	clear(util)
	for b := range members {
		members[b] = members[b][:0]
	}
	for ci := range cellArea {
		b := res.Bin(res.X[ci], res.Y[ci])
		util[b] += cellArea[ci] / binCap
		members[b] = append(members[b], ci)
	}
	passes := 1
	if final {
		passes = 3
	}
	for pass := 0; pass < passes; pass++ {
		moved := false
		for b := 0; b < bx*by; b++ {
			if util[b] <= cap {
				continue
			}
			cx, cy := b%bx, b/bx
			// Move the latest-arrived cells out to the least-full neighbour.
			for util[b] > cap && len(members[b]) > 1 {
				ci := members[b][len(members[b])-1]
				members[b] = members[b][:len(members[b])-1]
				nb, nx, ny := b, cx, cy
				bestU := math.Inf(1)
				for _, d := range neighbours {
					tx, ty := cx+d[0], cy+d[1]
					if tx < 0 || tx >= bx || ty < 0 || ty >= by {
						continue
					}
					tb := ty*bx + tx
					if util[tb] < bestU {
						bestU = util[tb]
						nb, nx, ny = tb, tx, ty
					}
				}
				if nb == b {
					break
				}
				frac := cellArea[ci] / binCap
				util[b] -= frac
				util[nb] += frac
				members[nb] = append(members[nb], ci)
				res.X[ci] = (float64(nx) + 0.5) * binW
				res.Y[ci] = (float64(ny) + 0.5) * binH
				moved = true
			}
		}
		if !moved {
			break
		}
	}
}

// binStats recomputes final utilisation and the overflow fraction of the
// total cell area.
func binStats(res *Result, cellArea []float64, total float64, opt Options) ([]float64, float64) {
	bx, by := res.BinsX, res.BinsY
	binCap := (res.CoreW / float64(bx)) * (res.CoreH / float64(by))
	util := make([]float64, bx*by)
	for ci, a := range cellArea {
		util[res.Bin(res.X[ci], res.Y[ci])] += a / binCap
	}
	var over float64
	for _, u := range util {
		if u > opt.MaxBinDensity {
			over += (u - opt.MaxBinDensity) * binCap
		}
	}
	return util, over / total
}

// NetLength estimates the routed length of one net as its half-perimeter.
func NetLength(nl *netlist.Netlist, res *Result, netID int) float64 {
	net := nl.Nets[netID]
	if net.Driver < 0 || len(net.Sinks) == 0 {
		return 0
	}
	minX, maxX := res.X[net.Driver], res.X[net.Driver]
	minY, maxY := res.Y[net.Driver], res.Y[net.Driver]
	for _, s := range net.Sinks {
		minX = math.Min(minX, res.X[s])
		maxX = math.Max(maxX, res.X[s])
		minY = math.Min(minY, res.Y[s])
		maxY = math.Max(maxY, res.Y[s])
	}
	return (maxX - minX) + (maxY - minY)
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
