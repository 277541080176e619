package simd

import (
	"math"
	"math/rand"
	"testing"
)

func TestDot4MatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 3, 4, 7, 8, 9, 15, 16, 31, 64, 127, 200} {
		p := make([]float64, n)
		qs := make([][]float64, 4)
		for k := range qs {
			qs[k] = make([]float64, n)
		}
		for i := 0; i < n; i++ {
			p[i] = rng.NormFloat64()
			for k := range qs {
				qs[k][i] = rng.NormFloat64()
			}
		}
		s0, s1, s2, s3 := Dot4(p, qs[0], qs[1], qs[2], qs[3], n)
		got := []float64{s0, s1, s2, s3}
		for k := range qs {
			var want float64
			for i := 0; i < n; i++ {
				want += p[i] * qs[k][i]
			}
			if diff := math.Abs(got[k] - want); diff > 1e-12*(1+math.Abs(want)) {
				t.Fatalf("n=%d col=%d: got %g want %g (diff %g)", n, k, got[k], want, diff)
			}
		}
	}
}

// edgeLens are the lengths the kernel dispatchers branch on: empty input,
// scalar-tail-only inputs (1, 3), and one each side of the 4-lane and 8-lane
// block sizes (4k±1), plus a few longer mixed cases.
var edgeLens = []int{0, 1, 3, 4, 5, 7, 8, 9, 11, 12, 13, 15, 16, 17, 31, 32, 33, 63, 64, 65}

// TestDot4EdgeLengths drives Dot4 through every dispatch boundary on
// whatever path (asm or portable) is live in this binary; the amd64-only
// TestKernelsAcrossPaths re-runs it with each path forced.
func TestDot4EdgeLengths(t *testing.T) { testDot4EdgeLengths(t) }

func testDot4EdgeLengths(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range edgeLens {
		p := make([]float64, n)
		qs := make([][]float64, 4)
		for k := range qs {
			qs[k] = make([]float64, n)
		}
		for i := 0; i < n; i++ {
			p[i] = rng.NormFloat64()
			for k := range qs {
				qs[k][i] = rng.NormFloat64()
			}
		}
		s0, s1, s2, s3 := Dot4(p, qs[0], qs[1], qs[2], qs[3], n)
		got := []float64{s0, s1, s2, s3}
		for k := range qs {
			want := 0.0
			for i := 0; i < n; i++ {
				want += p[i] * qs[k][i]
			}
			if diff := math.Abs(got[k] - want); diff > 1e-12*(1+math.Abs(want)) {
				t.Fatalf("n=%d col=%d: got %g want %g (diff %g)", n, k, got[k], want, diff)
			}
			// Below 8 elements every path returns DotUnroll itself.
			if n < 8 && !sameBits(got[k], DotUnroll(p, qs[k])) {
				t.Fatalf("n=%d col=%d: got %v, DotUnroll %v", n, k, got[k], DotUnroll(p, qs[k]))
			}
		}
	}
	// An operand shorter than n is a caller bug on every path, not a read
	// past its end in the assembly, even when its capacity would cover n.
	ok := make([]float64, 16)
	short := make([]float64, 16)[:8]
	for k := 0; k < 5; k++ {
		ops := [5][]float64{ok, ok, ok, ok, ok}
		ops[k] = short
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Dot4 with operand %d of length 8 and n=16 did not panic", k)
				}
			}()
			Dot4(ops[0], ops[1], ops[2], ops[3], ops[4], 16)
		}()
	}
}

// wildFloat draws the operands of the bit-identity tests: magnitudes from
// about 1e-15 to 1e15 of either sign, mixed with signed zeros and
// subnormals, so rounding, cancellation and gradual underflow all occur.
func wildFloat(rng *rand.Rand) float64 {
	switch rng.Intn(10) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		// A subnormal: zero exponent field, random mantissa and sign.
		return math.Float64frombits(rng.Uint64() & (1<<63 | 1<<52 - 1))
	default:
		return rng.NormFloat64() * math.Pow(10, 30*rng.Float64()-15)
	}
}

// TestDotUnroll4Bitwise pins DotUnroll4 to four DotUnroll calls bit for
// bit at every length 0–70, so every main-loop count and every 0–3 tail is
// covered. In half of the trials the columns are one element longer than a:
// DotUnroll4, like DotUnroll, reads only the first len(a) entries.
func TestDotUnroll4Bitwise(t *testing.T) { testDotUnroll4Bitwise(t) }

func testDotUnroll4Bitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for n := 0; n <= 70; n++ {
		for trial := 0; trial < 8; trial++ {
			extra := trial % 2
			a := make([]float64, n)
			var bs [4][]float64
			for c := range bs {
				bs[c] = make([]float64, n+extra)
				for k := range bs[c] {
					bs[c][k] = wildFloat(rng)
				}
			}
			for k := range a {
				a[k] = wildFloat(rng)
			}
			var got [4]float64
			got[0], got[1], got[2], got[3] = DotUnroll4(a, bs[0], bs[1], bs[2], bs[3])
			for c := range bs {
				want := DotUnroll(a, bs[c])
				if math.Float64bits(got[c]) != math.Float64bits(want) {
					t.Fatalf("n=%d trial=%d col=%d: DotUnroll4 %v (%#x), DotUnroll %v (%#x)",
						n, trial, c, got[c], math.Float64bits(got[c]), want, math.Float64bits(want))
				}
			}
		}
	}
}

// TestDotUnrollLanes4Bitwise pins the lane sums: finished with the tail
// products added from zero in index order, as DotUnroll adds them, each
// column's lanes give DotUnroll(a, b_c) bit for bit, at every length 0–70.
func TestDotUnrollLanes4Bitwise(t *testing.T) { testDotUnrollLanes4Bitwise(t) }

func testDotUnrollLanes4Bitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for n := 0; n <= 70; n++ {
		a := make([]float64, n)
		for k := range a {
			a[k] = wildFloat(rng)
		}
		var bs [4][]float64
		for c := range bs {
			bs[c] = make([]float64, n+c%2)
			for k := range bs[c] {
				bs[c][k] = wildFloat(rng)
			}
		}
		var l [16]float64
		for k := range l {
			l[k] = math.NaN() // every lane must be written
		}
		DotUnrollLanes4(a, bs[0], bs[1], bs[2], bs[3], &l)
		for c, b := range bs {
			var s float64
			for k := n &^ 3; k < n; k++ {
				s += float64(a[k] * b[k])
			}
			got := s + l[4*c] + l[4*c+1] + l[4*c+2] + l[4*c+3]
			if want := DotUnroll(a, b); !sameBits(got, want) {
				t.Fatalf("n=%d col=%d: lanes give %v, DotUnroll %v", n, c, got, want)
			}
		}
	}
}

// TestDot4x4MatchesDot4 pins the sixteen-sum block to four Dot4 calls bit
// for bit at every n in 0–300, so every 8-element loop count, the masked
// 4-element step and every 0–3 tail are covered. Operands run past n
// with NaN, which any read beyond n would carry into a sum. One trial per
// n draws every operand from ±0, so the signs of zero sums are checked
// too.
func TestDot4x4MatchesDot4(t *testing.T) { testDot4x4MatchesDot4(t) }

func testDot4x4MatchesDot4(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for n := 0; n <= 300; n++ {
		for trial := 0; trial < 3; trial++ {
			var ops [8][]float64
			for o := range ops {
				ops[o] = make([]float64, n+1+o%3)
				for k := range ops[o] {
					switch {
					case k >= n:
						ops[o][k] = math.NaN()
					case trial == 2:
						ops[o][k] = math.Copysign(0, float64(rng.Intn(2))-0.5)
					default:
						ops[o][k] = wildFloat(rng)
					}
				}
			}
			p, q := ops[:4], ops[4:]
			var got [16]float64
			Dot4x4(p[0], p[1], p[2], p[3], q[0], q[1], q[2], q[3], n, &got)
			for r := range p {
				var want [4]float64
				want[0], want[1], want[2], want[3] = Dot4(p[r], q[0], q[1], q[2], q[3], n)
				for c := range want {
					if g := got[4*r+c]; !sameBits(g, want[c]) {
						t.Fatalf("n=%d trial=%d row=%d col=%d: Dot4x4 %v (%#x), Dot4 %v (%#x)",
							n, trial, r, c, g, math.Float64bits(g), want[c], math.Float64bits(want[c]))
					}
				}
			}
		}
	}
	// An operand shorter than n is a caller bug on every path.
	ok := make([]float64, 16)
	for o := 0; o < 8; o++ {
		var ops [8][]float64
		for k := range ops {
			ops[k] = ok
		}
		ops[o] = ok[:15]
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Dot4x4 with operand %d of length 15 and n=16 did not panic", o)
				}
			}()
			var out [16]float64
			Dot4x4(ops[0], ops[1], ops[2], ops[3], ops[4], ops[5], ops[6], ops[7], 16, &out)
		}()
	}
}

// TestDot4x4NoAlloc backs the //ppalint:noalloc annotations of Dot4x4 and
// DotUnrollLanes4.
func TestDot4x4NoAlloc(t *testing.T) {
	a := make([]float64, 67)
	for k := range a {
		a[k] = float64(k)
	}
	var out, lanes [16]float64
	if allocs := testing.AllocsPerRun(100, func() {
		Dot4x4(a, a, a, a, a, a, a, a, len(a), &out)
		DotUnrollLanes4(a, a, a, a, a, &lanes)
	}); allocs != 0 {
		t.Fatalf("Dot4x4 and DotUnrollLanes4 allocate %v times per call", allocs)
	}
}

// TestDotUnroll4ShortColumnPanics: a column shorter than a is a caller bug
// on every path, not an out-of-bounds read in the assembly.
func TestDotUnroll4ShortColumnPanics(t *testing.T) {
	a := make([]float64, 9)
	ok := make([]float64, 9)
	defer func() {
		if recover() == nil {
			t.Fatal("DotUnroll4 with a short column did not panic")
		}
	}()
	DotUnroll4(a, ok, ok, ok[:8], ok)
}

// TestDotUnroll4NoAlloc backs the //ppalint:noalloc annotation: the lane
// buffer handed to the assembly stays on the stack.
func TestDotUnroll4NoAlloc(t *testing.T) {
	a := make([]float64, 67)
	b := make([]float64, 67)
	for k := range a {
		a[k], b[k] = float64(k), float64(2*k)
	}
	var sink float64
	if allocs := testing.AllocsPerRun(100, func() {
		r0, r1, r2, r3 := DotUnroll4(a, b, a, b, a)
		sink += r0 + r1 + r2 + r3
	}); allocs != 0 {
		t.Fatalf("DotUnroll4 allocates %v times per call", allocs)
	}
	_ = sink
}

// BenchmarkDotUnroll4 compares the one-pass kernel with the four DotUnroll
// calls it replaces, on one row of the exact GP's factor mid-campaign.
func BenchmarkDotUnroll4(b *testing.B) {
	const n = 300
	rng := rand.New(rand.NewSource(12))
	a := make([]float64, n)
	var cols [4][]float64
	for c := range cols {
		cols[c] = make([]float64, n)
		for k := range cols[c] {
			cols[c][k] = rng.NormFloat64()
		}
	}
	for k := range a {
		a[k] = rng.NormFloat64()
	}
	var sink float64
	b.Run("fused", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r0, r1, r2, r3 := DotUnroll4(a, cols[0], cols[1], cols[2], cols[3])
			sink += r0 + r1 + r2 + r3
		}
	})
	b.Run("four-calls", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for c := range cols {
				sink += DotUnroll(a, cols[c])
			}
		}
	})
	_ = sink
}
