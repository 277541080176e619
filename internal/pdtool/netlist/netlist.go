// Package netlist provides the gate-level circuit model consumed by the
// flow simulator — cells, single-driver nets, primary I/O — plus generators
// for the multiply-accumulate (MAC) designs that stand in for the paper's
// industrial benchmarks.
package netlist

import (
	"fmt"

	"ppatuner/internal/pdtool/lib"
)

// Cell is one placed instance. Size is the drive-strength multiplier the
// timing optimiser may raise above 1.
type Cell struct {
	Kind   lib.Kind
	Size   float64
	Inputs []int // net IDs feeding the input pins (D pin for DFFs)
	Out    int   // net ID driven by the output pin, -1 if none
}

// Net connects one driver to its sinks. Driver is a cell ID, or -1 when the
// net is driven by a primary input.
type Net struct {
	Driver int
	Sinks  []int // sink cell IDs (one entry per sink pin)
}

// Netlist is a combinationally acyclic gate-level circuit.
type Netlist struct {
	Name  string
	Cells []Cell
	Nets  []Net
	// PINets are nets driven by primary inputs.
	PINets []int
	// PONets are nets observed by primary outputs.
	PONets []int

	// topo is the topology Build recorded; nil for a netlist assembled
	// without Build.
	topo *Topology
}

// Builder incrementally constructs a Netlist.
type Builder struct {
	nl Netlist
}

// NewBuilder starts an empty design.
func NewBuilder(name string) *Builder {
	return &Builder{nl: Netlist{Name: name}}
}

// PI adds a primary input and returns its net ID.
func (b *Builder) PI() int {
	id := len(b.nl.Nets)
	b.nl.Nets = append(b.nl.Nets, Net{Driver: -1})
	b.nl.PINets = append(b.nl.PINets, id)
	return id
}

// PO marks net as a primary output.
func (b *Builder) PO(net int) { b.nl.PONets = append(b.nl.PONets, net) }

// Add instantiates a cell of the given kind reading the input nets, and
// returns the cell's output net ID.
func (b *Builder) Add(kind lib.Kind, inputs ...int) int {
	cellID := len(b.nl.Cells)
	outNet := len(b.nl.Nets)
	b.nl.Nets = append(b.nl.Nets, Net{Driver: cellID})
	b.nl.Cells = append(b.nl.Cells, Cell{Kind: kind, Size: 1, Inputs: append([]int(nil), inputs...), Out: outNet})
	for _, in := range inputs {
		b.nl.Nets[in].Sinks = append(b.nl.Nets[in].Sinks, cellID)
	}
	return outNet
}

// AddDeferred instantiates a cell whose inputs will be wired later with
// Connect (needed for register feedback loops). It returns the cell ID and
// its output net ID.
func (b *Builder) AddDeferred(kind lib.Kind) (cellID, outNet int) {
	cellID = len(b.nl.Cells)
	outNet = len(b.nl.Nets)
	b.nl.Nets = append(b.nl.Nets, Net{Driver: cellID})
	b.nl.Cells = append(b.nl.Cells, Cell{Kind: kind, Size: 1, Out: outNet})
	return cellID, outNet
}

// Connect appends net as the next input pin of cell cellID.
func (b *Builder) Connect(cellID, net int) {
	b.nl.Cells[cellID].Inputs = append(b.nl.Cells[cellID].Inputs, net)
	b.nl.Nets[net].Sinks = append(b.nl.Nets[net].Sinks, cellID)
}

// Build finalises and validates the netlist, and records its topology.
func (b *Builder) Build() (*Netlist, error) {
	nl := b.nl
	if err := nl.Validate(); err != nil {
		return nil, err
	}
	topo, err := nl.computeTopology()
	if err != nil {
		return nil, err
	}
	nl.topo = topo
	return &nl, nil
}

// Validate checks structural invariants: every net has a live driver or is a
// primary input, every referenced net exists, and the combinational graph is
// acyclic.
func (nl *Netlist) Validate() error {
	isPI := make(map[int]bool, len(nl.PINets))
	for _, n := range nl.PINets {
		isPI[n] = true
	}
	for id, net := range nl.Nets {
		if net.Driver == -1 {
			if !isPI[id] {
				return fmt.Errorf("netlist %s: net %d has no driver and is not a PI", nl.Name, id)
			}
			continue
		}
		if net.Driver < 0 || net.Driver >= len(nl.Cells) {
			return fmt.Errorf("netlist %s: net %d driver %d out of range", nl.Name, id, net.Driver)
		}
		if nl.Cells[net.Driver].Out != id {
			return fmt.Errorf("netlist %s: net %d driver cell %d drives net %d", nl.Name, id, net.Driver, nl.Cells[net.Driver].Out)
		}
	}
	for ci, c := range nl.Cells {
		for _, in := range c.Inputs {
			if in < 0 || in >= len(nl.Nets) {
				return fmt.Errorf("netlist %s: cell %d input net %d out of range", nl.Name, ci, in)
			}
		}
	}
	if _, err := nl.Levels(); err != nil {
		return err
	}
	return nil
}

// Levels returns the combinational depth of every cell — the number of
// combinational cells on the longest path from a launch point (primary input
// or register output) up to and including the cell — and errors on
// combinational cycles. Registers have level 0; their D fan-in terminates
// paths.
func (nl *Netlist) Levels() ([]int, error) {
	lvl := make([]int, len(nl.Cells))
	state := make([]int8, len(nl.Cells)) // 0 unvisited, 1 in progress, 2 done
	var visit func(int) error
	visit = func(ci int) error {
		switch state[ci] {
		case 1:
			return fmt.Errorf("netlist %s: combinational cycle through cell %d", nl.Name, ci)
		case 2:
			return nil
		}
		if isSequential(nl.Cells[ci].Kind) {
			state[ci] = 2
			lvl[ci] = 0
			return nil
		}
		state[ci] = 1
		max := 0
		for _, in := range nl.Cells[ci].Inputs {
			d := nl.Nets[in].Driver
			cand := 1 // launched at a PI or a register output
			if d != -1 {
				if err := visit(d); err != nil {
					return err
				}
				if !isSequential(nl.Cells[d].Kind) {
					cand = lvl[d] + 1
				}
			}
			if cand > max {
				max = cand
			}
		}
		lvl[ci] = max
		state[ci] = 2
		return nil
	}
	for ci := range nl.Cells {
		if err := visit(ci); err != nil {
			return nil, err
		}
	}
	return lvl, nil
}

func isSequential(k lib.Kind) bool { return k == lib.DFF }

// Topology is the combinational structure of a netlist: every cell's logic
// level (as Levels reports it) and a topological cell order, registers
// first, then increasing logic depth. Sizing never changes it, so a built
// netlist computes it once and every flow stage shares it. It is read-only:
// its accessors return values, never slices.
type Topology struct {
	level    []int
	order    []int
	maxLevel int
}

// Topology returns the topology Build recorded, or computes one for a
// netlist assembled without Build. The connectivity of a built netlist
// (Inputs, Out, Driver, Sinks, Kind) must not be edited afterwards; cell
// sizes may be.
func (nl *Netlist) Topology() (*Topology, error) {
	if nl.topo != nil {
		return nl.topo, nil
	}
	return nl.computeTopology()
}

// computeTopology levels the netlist and counting-sorts the cells by level,
// registers first, for determinism and O(n).
func (nl *Netlist) computeTopology() (*Topology, error) {
	lvl, err := nl.Levels()
	if err != nil {
		return nil, err
	}
	t := &Topology{level: lvl}
	for _, l := range lvl {
		t.maxLevel = max(t.maxLevel, l)
	}
	buckets := make([][]int, t.maxLevel+1)
	for ci, l := range lvl {
		buckets[l] = append(buckets[l], ci)
	}
	t.order = make([]int, 0, len(lvl))
	for _, b := range buckets {
		t.order = append(t.order, b...)
	}
	return t, nil
}

// Len returns the number of cells.
func (t *Topology) Len() int { return len(t.order) }

// Order returns the i-th cell of the topological order.
func (t *Topology) Order(i int) int { return t.order[i] }

// Level returns the combinational depth of cell ci.
func (t *Topology) Level(ci int) int { return t.level[ci] }

// MaxLevel returns the deepest cell's level.
func (t *Topology) MaxLevel() int { return t.maxLevel }

// Registers returns the cell IDs of all sequential cells.
func (nl *Netlist) Registers() []int {
	var regs []int
	for ci, c := range nl.Cells {
		if isSequential(c.Kind) {
			regs = append(regs, ci)
		}
	}
	return regs
}

// Stats summarises the design.
type Stats struct {
	Cells     int
	Registers int
	Nets      int
	PIs, POs  int
	MaxLevel  int
	ByKind    map[lib.Kind]int
}

// Stats computes design statistics.
func (nl *Netlist) Stats() Stats {
	s := Stats{
		Cells:  len(nl.Cells),
		Nets:   len(nl.Nets),
		PIs:    len(nl.PINets),
		POs:    len(nl.PONets),
		ByKind: map[lib.Kind]int{},
	}
	for _, c := range nl.Cells {
		s.ByKind[c.Kind]++
		if isSequential(c.Kind) {
			s.Registers++
		}
	}
	if lvl, err := nl.Levels(); err == nil {
		for _, l := range lvl {
			if l > s.MaxLevel {
				s.MaxLevel = l
			}
		}
	}
	return s
}

// TotalArea returns the summed cell area (µm²) at current sizes.
func (nl *Netlist) TotalArea(l *lib.Library) float64 {
	var a float64
	for _, c := range nl.Cells {
		a += l.Area(c.Kind, c.Size)
	}
	return a
}
