package lib

import (
	"math"
	"testing"
)

func TestDefault7nmCellsDefined(t *testing.T) {
	l := Default7nm()
	for _, k := range l.Kinds() {
		c := l.Cell(k)
		if c.Area <= 0 {
			t.Errorf("%v: area %g <= 0", k, c.Area)
		}
		if c.InCap <= 0 || c.DriveRes <= 0 || c.Leakage <= 0 || c.InternalEnergy <= 0 {
			t.Errorf("%v: non-positive electrical parameter: %+v", k, c)
		}
		if c.NumInputs < 1 {
			t.Errorf("%v: NumInputs = %d", k, c.NumInputs)
		}
	}
	if !l.Cell(DFF).IsSequential {
		t.Error("DFF not marked sequential")
	}
	if l.Cell(Nand2).IsSequential {
		t.Error("NAND2 marked sequential")
	}
}

func TestCellKindString(t *testing.T) {
	if DFF.String() != "DFF" || FullAdder.String() != "FA" {
		t.Errorf("kind names wrong: %s, %s", DFF, FullAdder)
	}
}

func TestUnknownKindPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Cell(bad kind) did not panic")
		}
	}()
	Default7nm().Cell(Kind(99))
}

func TestScaled(t *testing.T) {
	l := Default7nm()
	base := l.Cell(Inv)
	s2 := l.Scaled(Inv, 2)
	if math.Abs(s2.Area-2*base.Area) > 1e-12 {
		t.Errorf("area scaling: %g, want %g", s2.Area, 2*base.Area)
	}
	if math.Abs(s2.DriveRes-base.DriveRes/2) > 1e-12 {
		t.Errorf("drive scaling: %g, want %g", s2.DriveRes, base.DriveRes/2)
	}
	if math.Abs(s2.InCap-2*base.InCap) > 1e-12 || math.Abs(s2.Leakage-2*base.Leakage) > 1e-12 {
		t.Error("cap/leakage scaling wrong")
	}
	// Sub-unity sizes clamp to 1.
	s0 := l.Scaled(Inv, 0.5)
	if s0.Area != base.Area {
		t.Errorf("size<1 not clamped: area %g", s0.Area)
	}
}

// TestFieldAccessorsMatchScaled: InCap, DriveRes and Area must return the
// bits of the matching Scaled field, below-X1 clamp included.
func TestFieldAccessorsMatchScaled(t *testing.T) {
	l := Default7nm()
	for _, k := range l.Kinds() {
		for _, size := range []float64{0, 0.5, 1, 1.5, 2.25, 3.375, 6, 8} {
			sc := l.Scaled(k, size)
			if got := l.InCap(k, size); got != sc.InCap {
				t.Errorf("%v@%g: InCap %v, Scaled %v", k, size, got, sc.InCap)
			}
			if got := l.DriveRes(k, size); got != sc.DriveRes {
				t.Errorf("%v@%g: DriveRes %v, Scaled %v", k, size, got, sc.DriveRes)
			}
			if got := l.Area(k, size); got != sc.Area {
				t.Errorf("%v@%g: Area %v, Scaled %v", k, size, got, sc.Area)
			}
		}
	}
}

func TestWireDelayMonotone(t *testing.T) {
	l := Default7nm()
	d1 := l.WireDelayPS(1.5, 10, 2)
	d2 := l.WireDelayPS(1.5, 100, 2)
	d3 := l.WireDelayPS(1.5, 100, 20)
	d4 := l.WireDelayPS(0.5, 100, 20)
	if !(d2 > d1) {
		t.Errorf("longer wire not slower: %g vs %g", d2, d1)
	}
	if !(d3 > d2) {
		t.Errorf("bigger load not slower: %g vs %g", d3, d2)
	}
	if !(d4 < d3) {
		t.Errorf("stronger driver not faster: %g vs %g", d4, d3)
	}
}

func TestWireDelayPlausibleMagnitude(t *testing.T) {
	l := Default7nm()
	// A 50 µm net with a 5 fF load driven at 1.5 kΩ should cost tens of ps,
	// not ns or fs — the magnitude the 7nm-class MAC timing relies on.
	d := l.WireDelayPS(1.5, 50, 5)
	if d < 5 || d > 200 {
		t.Errorf("50µm wire delay = %g ps, want O(10ps)", d)
	}
}

func TestSetupClkQPositive(t *testing.T) {
	l := Default7nm()
	if l.SetupTime <= 0 || l.ClkToQ <= 0 || l.Vdd <= 0 || l.RowHeight <= 0 {
		t.Errorf("library technology constants must be positive: %+v", l)
	}
}
