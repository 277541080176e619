package netlist

import (
	"testing"

	"ppatuner/internal/pdtool/lib"
)

func TestBuilderBasic(t *testing.T) {
	b := NewBuilder("tiny")
	a := b.PI()
	c := b.PI()
	and := b.Add(lib.And2, a, c)
	q := b.Add(lib.DFF, and)
	b.PO(q)
	nl, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(nl.Cells) != 2 || len(nl.Nets) != 4 {
		t.Errorf("cells=%d nets=%d, want 2, 4", len(nl.Cells), len(nl.Nets))
	}
	if len(nl.PINets) != 2 || len(nl.PONets) != 1 {
		t.Errorf("PIs=%d POs=%d, want 2, 1", len(nl.PINets), len(nl.PONets))
	}
	// The AND cell must appear as a sink of both PI nets.
	for _, pi := range nl.PINets {
		if len(nl.Nets[pi].Sinks) != 1 || nl.Nets[pi].Sinks[0] != 0 {
			t.Errorf("PI net %d sinks = %v", pi, nl.Nets[pi].Sinks)
		}
	}
}

func TestDeferredFeedbackLoop(t *testing.T) {
	// acc <= acc XOR in : a legal sequential loop.
	b := NewBuilder("loop")
	in := b.PI()
	ff, q := b.AddDeferred(lib.DFF)
	x := b.Add(lib.Xor2, in, q)
	b.Connect(ff, x)
	b.PO(q)
	nl, err := b.Build()
	if err != nil {
		t.Fatalf("sequential loop rejected: %v", err)
	}
	lvl, err := nl.Levels()
	if err != nil {
		t.Fatal(err)
	}
	if lvl[ff] != 0 {
		t.Errorf("register level = %d, want 0", lvl[ff])
	}
}

func TestCombinationalCycleRejected(t *testing.T) {
	b := NewBuilder("cyc")
	in := b.PI()
	c1, o1 := b.AddDeferred(lib.Nand2)
	o2 := b.Add(lib.Nand2, o1, in)
	b.Connect(c1, o2)
	b.Connect(c1, in)
	if _, err := b.Build(); err == nil {
		t.Fatal("combinational cycle accepted")
	}
}

func TestLevels(t *testing.T) {
	b := NewBuilder("lv")
	a := b.PI()
	n1 := b.Add(lib.Inv, a)       // level 1
	n2 := b.Add(lib.Inv, n1)      // level 2
	n3 := b.Add(lib.And2, n1, n2) // level 3
	_ = n3
	nl, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	lvl, err := nl.Levels()
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	for i, w := range want {
		if lvl[i] != w {
			t.Errorf("cell %d level = %d, want %d", i, lvl[i], w)
		}
	}
}

func TestTopoOrderRespectsLevels(t *testing.T) {
	nl, err := MAC("m", 6)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := nl.Topology()
	if err != nil {
		t.Fatal(err)
	}
	if topo.Len() != len(nl.Cells) {
		t.Fatalf("order has %d cells, want %d", topo.Len(), len(nl.Cells))
	}
	lvl, _ := nl.Levels()
	pos := make([]int, topo.Len())
	for i := range pos {
		pos[topo.Order(i)] = i
	}
	for ci, c := range nl.Cells {
		if c.Kind == lib.DFF {
			continue
		}
		for _, in := range c.Inputs {
			d := nl.Nets[in].Driver
			if d >= 0 && lvl[d] < lvl[ci] && pos[d] > pos[ci] {
				t.Fatalf("cell %d (level %d) precedes its fan-in %d (level %d)", ci, lvl[ci], d, lvl[d])
			}
		}
	}
}

// TestTopologyMatchesLevels: the topology Build records agrees with Levels,
// is shared by copies of the netlist, and Levels hands out a fresh slice.
// A netlist assembled without Build computes its own, equal topology.
func TestTopologyMatchesLevels(t *testing.T) {
	nl, err := MAC("m", 6)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := nl.Topology()
	if err != nil {
		t.Fatal(err)
	}
	cp := *nl
	if again, _ := cp.Topology(); again != topo {
		t.Error("a copy of a built netlist recomputed its topology")
	}
	lvl, _ := nl.Levels()
	maxL := 0
	for ci := range nl.Cells {
		if topo.Level(ci) != lvl[ci] {
			t.Fatalf("cell %d: topology level %d, Levels %d", ci, topo.Level(ci), lvl[ci])
		}
		maxL = max(maxL, lvl[ci])
	}
	if topo.MaxLevel() != maxL {
		t.Errorf("MaxLevel %d, want %d", topo.MaxLevel(), maxL)
	}
	lvl[0] = -1
	if topo.Level(0) == -1 {
		t.Error("Levels aliases the shared topology")
	}
	hand := &Netlist{Name: "hand", Cells: nl.Cells, Nets: nl.Nets, PINets: nl.PINets, PONets: nl.PONets}
	fresh, err := hand.Topology()
	if err != nil {
		t.Fatal(err)
	}
	if fresh == topo {
		t.Fatal("a hand-assembled netlist reused a built one's topology")
	}
	for i := 0; i < topo.Len(); i++ {
		if fresh.Order(i) != topo.Order(i) {
			t.Fatalf("position %d: hand-assembled topology has cell %d, built %d", i, fresh.Order(i), topo.Order(i))
		}
	}
}

func TestMACStructure(t *testing.T) {
	for _, width := range []int{4, 8, 16} {
		nl, err := MAC("mac", width)
		if err != nil {
			t.Fatalf("width %d: %v", width, err)
		}
		s := nl.Stats()
		// 2w input FFs + (2w+4) accumulator FFs.
		wantRegs := 2*width + 2*width + 4
		if s.Registers != wantRegs {
			t.Errorf("width %d: registers = %d, want %d", width, s.Registers, wantRegs)
		}
		if s.ByKind[lib.And2] < width*width {
			t.Errorf("width %d: AND2 count %d < %d partial products", width, s.ByKind[lib.And2], width*width)
		}
		if s.ByKind[lib.FullAdder] == 0 {
			t.Errorf("width %d: no full adders in reduction tree", width)
		}
		if s.PIs != 2*width || s.POs != 2*width+4 {
			t.Errorf("width %d: PIs=%d POs=%d, want %d, %d", width, s.PIs, s.POs, 2*width, 2*width+4)
		}
		if s.MaxLevel < width/2 {
			t.Errorf("width %d: max logic depth %d suspiciously shallow", width, s.MaxLevel)
		}
	}
}

func TestMACSizesScale(t *testing.T) {
	small, err := MAC("small", 24)
	if err != nil {
		t.Fatal(err)
	}
	large, err := MAC("large", 44)
	if err != nil {
		t.Fatal(err)
	}
	ns, nL := len(small.Cells), len(large.Cells)
	ratio := float64(nL) / float64(ns)
	if ns < 1500 || ns > 4000 {
		t.Errorf("small MAC has %d cells, want ~2k", ns)
	}
	if nL < 5000 || nL > 12000 {
		t.Errorf("large MAC has %d cells, want ~7k", nL)
	}
	if ratio < 2.5 || ratio > 4.5 {
		t.Errorf("size ratio = %.2f, want ≈3.3 like the paper's 20k/67k", ratio)
	}
}

func TestMACWidthTooSmall(t *testing.T) {
	if _, err := MAC("bad", 1); err == nil {
		t.Fatal("width 1 accepted")
	}
}

func TestTotalArea(t *testing.T) {
	nl, err := MAC("m", 4)
	if err != nil {
		t.Fatal(err)
	}
	l := lib.Default7nm()
	a1 := nl.TotalArea(l)
	if a1 <= 0 {
		t.Fatalf("area = %g", a1)
	}
	// Upsizing one cell increases total area.
	nl.Cells[0].Size = 4
	if a2 := nl.TotalArea(l); !(a2 > a1) {
		t.Errorf("area after upsizing %g !> %g", a2, a1)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	nl, err := MAC("m", 4)
	if err != nil {
		t.Fatal(err)
	}
	nl.Nets[nl.Cells[0].Out].Driver = 1 // wrong driver
	if err := nl.Validate(); err == nil {
		t.Fatal("corrupted driver accepted")
	}
}

func TestRegisters(t *testing.T) {
	nl, err := MAC("m", 4)
	if err != nil {
		t.Fatal(err)
	}
	regs := nl.Registers()
	if len(regs) != nl.Stats().Registers {
		t.Errorf("Registers() returned %d, stats say %d", len(regs), nl.Stats().Registers)
	}
	for _, r := range regs {
		if nl.Cells[r].Kind != lib.DFF {
			t.Errorf("cell %d in Registers() is %v", r, nl.Cells[r].Kind)
		}
	}
}
