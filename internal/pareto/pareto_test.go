package pareto

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDominates(t *testing.T) {
	cases := []struct {
		a, b   []float64
		dom    bool
		weak   bool
		revDom bool
	}{
		{[]float64{1, 1}, []float64{2, 2}, true, true, false},
		{[]float64{1, 2}, []float64{2, 1}, false, false, false},
		{[]float64{1, 1}, []float64{1, 1}, false, true, false},
		{[]float64{1, 2}, []float64{1, 3}, true, true, false},
		{[]float64{3, 3}, []float64{1, 1}, false, false, true},
	}
	for _, c := range cases {
		if got := Dominates(c.a, c.b); got != c.dom {
			t.Errorf("Dominates(%v, %v) = %v, want %v", c.a, c.b, got, c.dom)
		}
		if got := WeaklyDominates(c.a, c.b); got != c.weak {
			t.Errorf("WeaklyDominates(%v, %v) = %v, want %v", c.a, c.b, got, c.weak)
		}
		if got := Dominates(c.b, c.a); got != c.revDom {
			t.Errorf("Dominates(%v, %v) = %v, want %v", c.b, c.a, got, c.revDom)
		}
	}
}

func TestDominatesDimMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on dim mismatch")
		}
	}()
	Dominates([]float64{1}, []float64{1, 2})
}

func TestFront(t *testing.T) {
	pts := [][]float64{
		{1, 5}, // front
		{2, 2}, // front
		{3, 3}, // dominated by (2,2)
		{5, 1}, // front
		{2, 2}, // duplicate of front point: kept
		{6, 6}, // dominated
	}
	idx := Front(pts)
	want := map[int]bool{0: true, 1: true, 3: true, 4: true}
	if len(idx) != len(want) {
		t.Fatalf("front = %v, want indices %v", idx, want)
	}
	for _, i := range idx {
		if !want[i] {
			t.Errorf("unexpected front index %d", i)
		}
	}
}

func TestFrontKeys(t *testing.T) {
	pts := map[int][]float64{
		40: {6, 6}, // dominated
		7:  {2, 2}, // front
		3:  {3, 3}, // dominated by (2,2)
		12: {5, 1}, // front
		9:  {2, 2}, // duplicate of a front point: kept
		25: {1, 5}, // front
	}
	want := []int{7, 9, 12, 25}
	for rep := 0; rep < 20; rep++ {
		got := FrontKeys(pts)
		if len(got) != len(want) {
			t.Fatalf("FrontKeys = %v, want %v", got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("FrontKeys = %v, want %v", got, want)
			}
		}
	}
	if got := FrontKeys(nil); len(got) != 0 {
		t.Errorf("FrontKeys(nil) = %v", got)
	}
}

func TestFrontEmptyAndSingle(t *testing.T) {
	if got := Front(nil); len(got) != 0 {
		t.Errorf("Front(nil) = %v", got)
	}
	if got := Front([][]float64{{1, 2, 3}}); len(got) != 1 || got[0] != 0 {
		t.Errorf("Front(single) = %v", got)
	}
}

func TestHypervolume1D(t *testing.T) {
	hv := Hypervolume([][]float64{{3}, {5}, {2}}, []float64{10})
	if hv != 8 {
		t.Errorf("1-D HV = %g, want 8", hv)
	}
}

func TestHypervolume2DKnown(t *testing.T) {
	// Staircase front vs ref (4,4):
	// (1,3): contributes (4-1)*(4-3)=3; (2,2): (4-2)*(3-2)=2; (3,1): (4-3)*(2-1)=1.
	pts := [][]float64{{1, 3}, {2, 2}, {3, 1}}
	hv := Hypervolume(pts, []float64{4, 4})
	if math.Abs(hv-6) > 1e-12 {
		t.Errorf("2-D HV = %g, want 6", hv)
	}
}

func TestHypervolume2DDominatedIgnored(t *testing.T) {
	pts := [][]float64{{1, 1}, {2, 2}, {3, 0.5}}
	hv := Hypervolume(pts, []float64{4, 4})
	// (2,2) dominated by (1,1). Union of boxes (1,1)-(4,4) and (3,0.5)-(4,4):
	// 9 + (4-3)*(1-0.5) = 9.5
	if math.Abs(hv-9.5) > 1e-12 {
		t.Errorf("2-D HV = %g, want 9.5", hv)
	}
}

func TestHypervolumePointsBeyondRefClipped(t *testing.T) {
	pts := [][]float64{{5, 5}, {1, 1}}
	hv := Hypervolume(pts, []float64{4, 4})
	if math.Abs(hv-9) > 1e-12 {
		t.Errorf("HV with out-of-box point = %g, want 9", hv)
	}
	if got := Hypervolume([][]float64{{5, 5}}, []float64{4, 4}); got != 0 {
		t.Errorf("HV of only out-of-box points = %g, want 0", got)
	}
}

func TestHypervolume3DKnown(t *testing.T) {
	// Single point: box volume.
	hv := Hypervolume([][]float64{{1, 2, 3}}, []float64{4, 4, 4})
	if math.Abs(hv-3*2*1) > 1e-12 {
		t.Errorf("3-D single-point HV = %g, want 6", hv)
	}
	// Two incomparable points; inclusion-exclusion by hand:
	// a=(1,3,3), b=(3,1,1), ref=(4,4,4).
	// vol(a)=3*1*1=3, vol(b)=1*3*3=9, intersection=(max coords)=(3,3,3)->1*1*1=1.
	hv = Hypervolume([][]float64{{1, 3, 3}, {3, 1, 1}}, []float64{4, 4, 4})
	if math.Abs(hv-11) > 1e-12 {
		t.Errorf("3-D two-point HV = %g, want 11", hv)
	}
}

// cross-check the 3-D sweep against the generic WFG recursion on random sets.
func TestHypervolume3DMatchesWFG(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(12)
		pts := make([][]float64, n)
		for i := range pts {
			pts[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		}
		ref := []float64{1.1, 1.1, 1.1}
		sweep := hv3(FrontPoints(pts), ref)
		wfg := hvWFG(FrontPoints(pts), ref)
		if math.Abs(sweep-wfg) > 1e-9 {
			t.Fatalf("trial %d: hv3 = %.12f, hvWFG = %.12f", trial, sweep, wfg)
		}
	}
}

// Property: adding a point never decreases hyper-volume, and HV is bounded
// by the ref box volume.
func TestQuickHVMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := 2 + rng.Intn(2)
		ref := make([]float64, d)
		for i := range ref {
			ref[i] = 1
		}
		n := 1 + rng.Intn(10)
		pts := make([][]float64, 0, n)
		prev := 0.0
		box := 1.0
		for i := 0; i < n; i++ {
			p := make([]float64, d)
			for j := range p {
				p[j] = rng.Float64()
			}
			pts = append(pts, p)
			hv := Hypervolume(pts, ref)
			if hv+1e-12 < prev || hv > box+1e-12 {
				return false
			}
			prev = hv
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestHVError(t *testing.T) {
	golden := [][]float64{{1, 3}, {2, 2}, {3, 1}}
	ref := []float64{4, 4}
	if e := HVError(golden, golden, ref); e != 0 {
		t.Errorf("HVError(golden, golden) = %g, want 0", e)
	}
	worse := [][]float64{{2, 2}}
	e := HVError(golden, worse, ref)
	// H(golden)=6, H(worse)=4 -> e = 2/6
	if math.Abs(e-1.0/3.0) > 1e-12 {
		t.Errorf("HVError = %g, want 1/3", e)
	}
	if e := HVError(golden, nil, ref); math.Abs(e-1) > 1e-12 {
		t.Errorf("HVError(golden, empty) = %g, want 1", e)
	}
}

func TestADRS(t *testing.T) {
	golden := [][]float64{{1, 2}, {2, 1}}
	if got := ADRS(golden, golden); got != 0 {
		t.Errorf("ADRS(g, g) = %g, want 0", got)
	}
	// approx point (1.1, 2.2): delta vs (1,2) = max(0.1, 0.1) = 0.1
	// vs (2,1): max(0.45, 1.2) = 1.2 -> min is 0.1 for first golden point.
	// second golden point (2,1) vs (1.1,2.2): max(0.45, 1.2) = 1.2
	approx := [][]float64{{1.1, 2.2}}
	want := (0.1 + 1.2) / 2
	if got := ADRS(golden, approx); math.Abs(got-want) > 1e-9 {
		t.Errorf("ADRS = %g, want %g", got, want)
	}
	if got := ADRS(golden, nil); !math.IsInf(got, 1) {
		t.Errorf("ADRS vs empty = %g, want +Inf", got)
	}
	if got := ADRS(nil, approx); got != 0 {
		t.Errorf("ADRS of empty golden = %g, want 0", got)
	}
}

// Property: ADRS(golden, approx) == 0 iff approx contains every golden point.
func TestQuickADRSZeroOnSuperset(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		golden := make([][]float64, n)
		for i := range golden {
			golden[i] = []float64{1 + rng.Float64(), 1 + rng.Float64()}
		}
		approx := append([][]float64{{5, 5}}, golden...)
		return ADRS(golden, approx) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestReferencePoint(t *testing.T) {
	pts := [][]float64{{1, 10}, {3, 20}}
	ref := ReferencePoint(pts, 0.1)
	if math.Abs(ref[0]-(3+0.2)) > 1e-12 || math.Abs(ref[1]-(20+1)) > 1e-12 {
		t.Errorf("ref = %v, want [3.2 21]", ref)
	}
	if ReferencePoint(nil, 0.1) != nil {
		t.Error("ReferencePoint(nil) should be nil")
	}
	// Degenerate span falls back to |max| (or 1).
	ref = ReferencePoint([][]float64{{2, 0}, {2, 0}}, 0.5)
	if ref[0] != 3 || ref[1] != 0.5 {
		t.Errorf("degenerate ref = %v, want [3 0.5]", ref)
	}
}

func TestFrontPointsAreCopies(t *testing.T) {
	pts := [][]float64{{1, 1}}
	fp := FrontPoints(pts)
	fp[0][0] = 99
	if pts[0][0] == 99 {
		t.Error("FrontPoints returned views, want copies")
	}
}
