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

// specialFloat is wildFloat with IEEE specials mixed in: ±Inf and NaN.
func specialFloat(rng *rand.Rand) float64 {
	switch rng.Intn(12) {
	case 0:
		return math.Inf(1)
	case 1:
		return math.Inf(-1)
	case 2:
		return math.NaN()
	}
	return wildFloat(rng)
}

// sameOrNaN is sameBits, except that any two NaNs match: which operand's
// payload a NaN result carries is not pinned.
func sameOrNaN(a, b float64) bool { return sameBits(a, b) || math.IsNaN(a) && math.IsNaN(b) }

// refDot4x4Solve is factorRows' block step as it ran row by row before
// Dot4x4Solve: one Dot4 call, then the row's triangular coupling.
func refDot4x4Solve(p, q [4][]float64, n int) {
	c0, c1, c2, c3 := q[0], q[1], q[2], q[3]
	for _, row := range p {
		s0, s1, s2, s3 := Dot4(row, c0, c1, c2, c3, n)
		v0 := (row[n] - s0) / c0[n]
		row[n] = v0
		s1 += v0 * c1[n]
		v1 := (row[n+1] - s1) / c1[n+1]
		row[n+1] = v1
		s2 += v0*c2[n] + v1*c2[n+1]
		v2 := (row[n+2] - s2) / c2[n+2]
		row[n+2] = v2
		s3 += v0*c3[n] + v1*c3[n+1] + v2*c3[n+2]
		row[n+3] = (row[n+3] - s3) / c3[n+3]
	}
}

// TestDot4x4SolveMatchesReference pins the block step to four Dot4 calls
// and the Go coupling, row by row, bit for bit (any NaN matches any NaN)
// at every n in 0–300, so every 8-element loop count, the masked
// 4-element step and every 0–3 tail are covered. Operands run past the
// lengths the kernel may read with NaN, which any read beyond them would
// carry into a result. Of the four trials per n, one draws every operand
// from ±0, so the signs of zero sums are checked, and one mixes in ±Inf
// and NaN.
func TestDot4x4SolveMatchesReference(t *testing.T) { testDot4x4SolveMatchesReference(t) }

func testDot4x4SolveMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for n := 0; n <= 300; n++ {
		for trial := 0; trial < 4; trial++ {
			var p, q, ref [4][]float64
			fill := func(v []float64, used int) {
				for k := range v {
					switch {
					case k >= used:
						v[k] = math.NaN()
					case trial == 2:
						v[k] = math.Copysign(0, float64(rng.Intn(2))-0.5)
					case trial == 3:
						v[k] = specialFloat(rng)
					default:
						v[k] = wildFloat(rng)
					}
				}
			}
			for r := range p {
				p[r] = make([]float64, n+4+1+r%3)
				fill(p[r], n+4)
				ref[r] = append([]float64(nil), p[r]...)
			}
			for c := range q {
				q[c] = make([]float64, n+c+1+1+c%2)
				fill(q[c], n+c+1)
			}
			Dot4x4Solve(&p, &q, n)
			refDot4x4Solve(ref, q, n)
			for r := range p {
				for k := range p[r] {
					if g, w := p[r][k], ref[r][k]; !sameOrNaN(g, w) {
						t.Fatalf("n=%d trial=%d row=%d entry %d: Dot4x4Solve %v (%#x), reference %v (%#x)",
							n, trial, r, k, g, math.Float64bits(g), w, math.Float64bits(w))
					}
				}
			}
		}
	}
	// An operand shorter than it must be is a caller bug on every path.
	long := make([]float64, 20)
	for o := 0; o < 8; o++ {
		p := [4][]float64{long, long, long, long}
		q := p
		if o < 4 {
			p[o] = long[:16+3] // rows need n+4
		} else {
			q[o-4] = long[:16+o-4] // column c needs n+c+1
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Dot4x4Solve with operand %d one element short and n=16 did not panic", o)
				}
			}()
			Dot4x4Solve(&p, &q, 16)
		}()
	}
}

// TestSubScaledBitwise pins SubScaled to the scalar loop x[k] −= y[k]·a
// bit for bit (any NaN matches any NaN) at every length 0–70, with ±0,
// ±Inf and NaN among the operands, and checks that it leaves x's backing
// array past len(x) alone.
func TestSubScaledBitwise(t *testing.T) { testSubScaledBitwise(t) }

func testSubScaledBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for n := 0; n <= 70; n++ {
		for trial := 0; trial < 6; trial++ {
			draw := wildFloat
			if trial%2 == 1 {
				draw = specialFloat
			}
			x := make([]float64, n+3)
			y := make([]float64, n+trial%3)
			for k := range x {
				x[k] = draw(rng)
			}
			for k := range y {
				y[k] = draw(rng)
			}
			a := draw(rng)
			want := append([]float64(nil), x...)
			for k := 0; k < n; k++ {
				want[k] -= y[k] * a
			}
			SubScaled(x[:n], y, a)
			for k := range x {
				if !sameOrNaN(x[k], want[k]) {
					t.Fatalf("n=%d trial=%d k=%d: SubScaled %v (%#x), scalar %v (%#x)",
						n, trial, k, x[k], math.Float64bits(x[k]), want[k], math.Float64bits(want[k]))
				}
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SubScaled with y shorter than x did not panic")
		}
	}()
	SubScaled(make([]float64, 9), make([]float64, 8), 1)
}

// TestDot4x4SolveNoAlloc backs the //ppalint:noalloc annotations of
// Dot4x4Solve, SubScaled and DotUnrollLanes4.
func TestDot4x4SolveNoAlloc(t *testing.T) {
	a := make([]float64, 71)
	for k := range a {
		a[k] = float64(k + 1)
	}
	var p [4][]float64
	for r := range p {
		p[r] = make([]float64, len(a))
	}
	q := [4][]float64{a, a, a, a}
	var lanes [16]float64
	if allocs := testing.AllocsPerRun(100, func() {
		Dot4x4Solve(&p, &q, 67)
		Dot4x4Solve(&p, &q, 4)
		Dot4x4Solve(&p, &q, 5)
		SubScaled(p[0], a, 1e-3)
		DotUnrollLanes4(a, a, a, a, a, &lanes)
	}); allocs != 0 {
		t.Fatalf("Dot4x4Solve, SubScaled and DotUnrollLanes4 allocate %v times per call", allocs)
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
