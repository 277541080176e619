package netlist

import (
	"math/rand"
	"testing"
	"testing/quick"

	"ppatuner/internal/pdtool/lib"
)

// evalNets computes the boolean value of every net given primary-input
// values, for purely combinational designs built from the gate semantics
// the adder uses. It is a test aid — the flow itself never simulates logic.
func evalNets(t *testing.T, nl *Netlist, piVals []bool) []bool {
	t.Helper()
	vals := make([]bool, len(nl.Nets))
	set := make([]bool, len(nl.Nets))
	for i, pi := range nl.PINets {
		vals[pi] = piVals[i]
		set[pi] = true
	}
	topo, err := nl.Topology()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < topo.Len(); i++ {
		ci := topo.Order(i)
		c := nl.Cells[ci]
		in := func(k int) bool {
			if !set[c.Inputs[k]] {
				t.Fatalf("cell %d reads unset net %d", ci, c.Inputs[k])
			}
			return vals[c.Inputs[k]]
		}
		var out bool
		switch c.Kind {
		case lib.Inv:
			out = !in(0)
		case lib.Buf:
			out = in(0)
		case lib.And2:
			out = in(0) && in(1)
		case lib.Or2:
			out = in(0) || in(1)
		case lib.Nand2:
			out = !(in(0) && in(1))
		case lib.Nor2:
			out = !(in(0) || in(1))
		case lib.Xor2:
			out = in(0) != in(1)
		default:
			t.Fatalf("evalNets: unsupported kind %v", c.Kind)
		}
		if c.Out >= 0 {
			vals[c.Out] = out
			set[c.Out] = true
		}
	}
	return vals
}

// buildAdder constructs a width-bit prefix adder fed directly by PIs.
func buildAdder(t *testing.T, width int) (*Netlist, []int, int) {
	t.Helper()
	b := NewBuilder("adder")
	xs := make([]int, width)
	ys := make([]int, width)
	for i := 0; i < width; i++ {
		xs[i] = b.PI()
	}
	for i := 0; i < width; i++ {
		ys[i] = b.PI()
	}
	sum, cout := PrefixAdder(b, xs, ys)
	nl, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return nl, sum, cout
}

// TestPrefixAdderAddsExhaustive: every input pair of a 4-bit adder.
func TestPrefixAdderAddsExhaustive(t *testing.T) {
	const width = 4
	nl, sumNets, coutNet := buildAdder(t, width)
	for a := 0; a < 1<<width; a++ {
		for bb := 0; bb < 1<<width; bb++ {
			pi := make([]bool, 2*width)
			for i := 0; i < width; i++ {
				pi[i] = a>>i&1 == 1
				pi[width+i] = bb>>i&1 == 1
			}
			vals := evalNets(t, nl, pi)
			got := 0
			for i, n := range sumNets {
				if vals[n] {
					got |= 1 << i
				}
			}
			if vals[coutNet] {
				got |= 1 << width
			}
			if got != a+bb {
				t.Fatalf("%d + %d = %d, adder says %d", a, bb, a+bb, got)
			}
		}
	}
}

// Property: random operands on a 16-bit adder.
func TestQuickPrefixAdder16(t *testing.T) {
	const width = 16
	nl, sumNets, coutNet := buildAdder(t, width)
	f := func(a, bb uint16) bool {
		pi := make([]bool, 2*width)
		for i := 0; i < width; i++ {
			pi[i] = a>>i&1 == 1
			pi[width+i] = bb>>i&1 == 1
		}
		vals := evalNets(t, nl, pi)
		got := uint32(0)
		for i, n := range sumNets {
			if vals[n] {
				got |= 1 << i
			}
		}
		if vals[coutNet] {
			got |= 1 << width
		}
		return got == uint32(a)+uint32(bb)
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(13))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestPrefixAdderDepthLogarithmic: the whole point of the Kogge–Stone
// structure is O(log n) depth; a 32-bit adder must stay well under the
// ~35 levels a ripple chain would need.
func TestPrefixAdderDepthLogarithmic(t *testing.T) {
	nl, _, _ := buildAdder(t, 32)
	lvl, err := nl.Levels()
	if err != nil {
		t.Fatal(err)
	}
	maxL := 0
	for _, v := range lvl {
		if v > maxL {
			maxL = v
		}
	}
	if maxL > 14 {
		t.Errorf("32-bit adder depth %d, want logarithmic (<= 14)", maxL)
	}
}

func TestPrefixAdderWidthMismatchPanics(t *testing.T) {
	b := NewBuilder("bad")
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched operand widths did not panic")
		}
	}()
	PrefixAdder(b, []int{b.PI()}, []int{b.PI(), b.PI()})
}
