package mat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ppatuner/internal/simd"
)

// naiveCholesky is the textbook per-row-slice factorisation the flat layout
// replaced. It is the reference the flat factor must match entry for entry.
func naiveCholesky(a *Matrix) ([][]float64, bool) {
	l := make([][]float64, 0, a.Rows)
	for i := 0; i < a.Rows; i++ {
		row := make([]float64, i+1)
		copy(row, a.Data[i*a.Cols:i*a.Cols+i+1])
		for j := 0; j <= i; j++ {
			lj := row
			if j < i {
				lj = l[j]
			}
			sum := row[j]
			for k := 0; k < j; k++ {
				sum -= row[k] * lj[k]
			}
			if j == i {
				if sum <= 0 {
					return nil, false
				}
				row[i] = math.Sqrt(sum)
			} else {
				row[j] = sum / lj[j]
			}
		}
		l = append(l, row)
	}
	return l, true
}

// TestFlatMatchesNaive checks the flat blocked factor against the textbook
// per-row recurrence across sizes that exercise every block-remainder path
// (dot4 main loop, <4-column leftovers, scalar tails).
func TestFlatMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 13, 33, 64, 127, 200} {
		a := randomSPD(rng, n)
		ch, err := NewCholesky(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		ref, ok := naiveCholesky(a)
		if !ok {
			t.Fatalf("n=%d: naive factorisation failed", n)
		}
		for i := 0; i < n; i++ {
			row := ch.LRow(i)
			for j := 0; j <= i; j++ {
				if d := math.Abs(row[j] - ref[i][j]); d > 1e-9*(1+math.Abs(ref[i][j])) {
					t.Fatalf("n=%d L[%d][%d]: flat %g naive %g", n, i, j, row[j], ref[i][j])
				}
			}
		}
		// Round-trip through Reconstruct as an independent check.
		if d := MaxAbsDiff(ch.Reconstruct(), a); d > 1e-8 {
			t.Fatalf("n=%d: reconstruct error %g", n, d)
		}
	}
}

// TestFactorizePackedMatchesNew checks that the zero-allocation refit path
// produces the same factor as a fresh NewCholesky, and that re-using the
// receiver across different matrices and sizes is safe.
func TestFactorizePackedMatchesNew(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	var ws Cholesky
	for _, n := range []int{50, 20, 61} { // shrink then grow: exercises resize
		a := randomSPD(rng, n)
		packed := make([]float64, PackedLen(n))
		for i := 0; i < n; i++ {
			copy(packed[rowOff(i):rowOff(i)+i+1], a.Data[i*a.Cols:i*a.Cols+i+1])
		}
		if err := ws.FactorizePacked(packed, n, 1e-8, 6); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		ref, err := NewCholesky(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for i := 0; i < n; i++ {
			got, want := ws.LRow(i), ref.LRow(i)
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("n=%d L[%d][%d]: packed %g fresh %g", n, i, j, got[j], want[j])
				}
			}
		}
	}
}

// TestFactorizePackedJitterRecovers feeds a singular matrix and checks the
// jitter ladder rescues it, matching CholeskyWithJitter's behaviour.
func TestFactorizePackedJitterRecovers(t *testing.T) {
	// Rank-1: x xᵀ with x = (1,2,3) — singular, needs jitter.
	x := []float64{1, 2, 3}
	n := len(x)
	packed := make([]float64, PackedLen(n))
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			packed[rowOff(i)+j] = x[i] * x[j]
		}
	}
	var ws Cholesky
	if err := ws.FactorizePacked(packed, n, 1e-8, 6); err != nil {
		t.Fatalf("jitter did not recover: %v", err)
	}
	if ws.Size() != n {
		t.Fatalf("size %d after recovery, want %d", ws.Size(), n)
	}
	// With no attempts allowed it must fail and leave an empty factor.
	if err := ws.FactorizePacked(packed, n, 0, 0); err == nil {
		t.Fatal("expected failure with maxAttempts=0")
	}
	if ws.Size() != 0 {
		t.Fatalf("size %d after failure, want 0", ws.Size())
	}
}

// TestExtendRollbackFlat appends two rows where the second has a non-PD
// pivot and verifies the flat factor truncates back to its pre-Extend state,
// byte for byte, and still solves correctly afterwards.
func TestExtendRollbackFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := randomSPD(rng, 6)
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	before := make([]float64, len(ch.l))
	copy(before, ch.l)

	// First appended row is fine; the second duplicates the first appended
	// point exactly but with its diagonal reduced, which forces the pivot
	// negative (a duplicated point gives pivot 0 in exact arithmetic).
	good := make([]float64, 7)
	for j := 0; j < 6; j++ {
		good[j] = a.At(0, j) * 0.5
	}
	good[6] = a.At(0, 0) + 1 // safely dominant diagonal
	bad := make([]float64, 8)
	copy(bad, good[:6])
	bad[6] = good[6]
	bad[7] = good[6] - 1e-6

	if err := ch.Extend([][]float64{good, bad}); err == nil {
		t.Fatal("expected non-PD failure")
	}
	if ch.Size() != 6 {
		t.Fatalf("size %d after rollback, want 6", ch.Size())
	}
	if len(ch.l) != len(before) {
		t.Fatalf("backing length %d after rollback, want %d", len(ch.l), len(before))
	}
	for i := range before {
		if ch.l[i] != before[i] {
			t.Fatalf("backing[%d] changed across rollback: %g vs %g", i, ch.l[i], before[i])
		}
	}
	// The factor must still be usable.
	b := make([]float64, 6)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	got := ch.Solve(b)
	res := MulVec(a, got)
	for i := range b {
		if math.Abs(res[i]-b[i]) > 1e-8 {
			t.Fatalf("solve after rollback: residual %g at %d", res[i]-b[i], i)
		}
	}
}

// TestReserveNoRealloc checks that after Reserve(n) a campaign of Extend
// calls up to dimension n never moves the backing array.
func TestReserveNoRealloc(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	const start, final = 8, 40
	a := randomSPD(rng, final)
	sub := NewMatrix(start, start)
	for i := 0; i < start; i++ {
		for j := 0; j < start; j++ {
			sub.Set(i, j, a.At(i, j))
		}
	}
	ch, err := NewCholesky(sub)
	if err != nil {
		t.Fatal(err)
	}
	ch.Reserve(final)
	base := &ch.l[0]
	for n := start; n < final; n++ {
		row := make([]float64, n+1)
		for j := 0; j <= n; j++ {
			row[j] = a.At(n, j)
		}
		if err := ch.Extend([][]float64{row}); err != nil {
			t.Fatalf("extend to %d: %v", n+1, err)
		}
		if &ch.l[0] != base {
			t.Fatalf("backing array moved at n=%d despite Reserve", n+1)
		}
	}
	if d := MaxAbsDiff(ch.Reconstruct(), a); d > 1e-7 {
		t.Fatalf("reconstruct after reserved extends: error %g", d)
	}
}

// TestSolveIntoAliasing checks the Into solve variants tolerate x aliasing b.
func TestSolveIntoAliasing(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := randomSPD(rng, 17)
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, 17)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	want := ch.Solve(b)
	got := make([]float64, len(b))
	copy(got, b)
	ch.SolveInto(got, got) // aliased
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("aliased SolveInto differs at %d: %g vs %g", i, got[i], want[i])
		}
	}
	wantL := ch.SolveL(b)
	gotL := make([]float64, len(b))
	copy(gotL, b)
	ch.SolveLInto(gotL, gotL)
	for i := range wantL {
		if gotL[i] != wantL[i] {
			t.Fatalf("aliased SolveLInto differs at %d: %g vs %g", i, gotL[i], wantL[i])
		}
	}
}

// TestSolveLInto4MatchesSolveLInto pins the four-column forward substitution
// to four SolveLInto calls bit for bit, at sizes that cover every DotUnroll4
// main-loop/tail split, both into separate outputs and with each x_c
// aliasing its own b_c.
func TestSolveLInto4MatchesSolveLInto(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 13, 16, 17, 33, 70} {
		ch, err := NewCholesky(randomSPD(rng, n))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		var bs, want, sep, alias [4][]float64
		for c := range bs {
			bs[c] = make([]float64, n)
			for i := range bs[c] {
				bs[c][i] = rng.NormFloat64() * math.Pow(10, 6*rng.Float64()-3)
			}
			want[c] = make([]float64, n)
			ch.SolveLInto(want[c], bs[c])
			sep[c] = make([]float64, n)
			alias[c] = append([]float64(nil), bs[c]...)
		}
		ch.SolveLInto4(sep[0], sep[1], sep[2], sep[3], bs[0], bs[1], bs[2], bs[3])
		ch.SolveLInto4(alias[0], alias[1], alias[2], alias[3], alias[0], alias[1], alias[2], alias[3])
		for c := range bs {
			for i := 0; i < n; i++ {
				w := math.Float64bits(want[c][i])
				if math.Float64bits(sep[c][i]) != w {
					t.Fatalf("n=%d col=%d row=%d: SolveLInto4 %g, SolveLInto %g", n, c, i, sep[c][i], want[c][i])
				}
				if math.Float64bits(alias[c][i]) != w {
					t.Fatalf("n=%d col=%d row=%d: aliased SolveLInto4 %g, SolveLInto %g", n, c, i, alias[c][i], want[c][i])
				}
			}
		}
	}
}

// TestSolveLInto4NoAlloc backs the //ppalint:noalloc annotation.
func TestSolveLInto4NoAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	const n = 37
	ch, err := NewCholesky(randomSPD(rng, n))
	if err != nil {
		t.Fatal(err)
	}
	var x [4][]float64
	for c := range x {
		x[c] = make([]float64, n)
		for i := range x[c] {
			x[c][i] = rng.NormFloat64()
		}
	}
	if allocs := testing.AllocsPerRun(50, func() {
		ch.SolveLInto4(x[0], x[1], x[2], x[3], x[0], x[1], x[2], x[3])
	}); allocs != 0 {
		t.Fatalf("SolveLInto4 allocates %v times per call", allocs)
	}
}

// TestSolveLInto4LengthPanics: a right-hand side of the wrong length is
// rejected before any row is solved.
func TestSolveLInto4LengthPanics(t *testing.T) {
	ch, err := NewCholesky(randomSPD(rand.New(rand.NewSource(15)), 5))
	if err != nil {
		t.Fatal(err)
	}
	ok, short := make([]float64, 5), make([]float64, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("SolveLInto4 with a short right-hand side did not panic")
		}
	}()
	ch.SolveLInto4(ok, ok, ok, ok, ok, ok, short, ok)
}

// refFactorRows is the row-at-a-time recurrence factorRows replaced, kept
// as the reference the four-row groups must match bit for bit. It
// factors rows [start, end) of c.l in place, rows before start already
// factored.
func refFactorRows(c *Cholesky, start, end int) (pivot int, d float64, ok bool) {
	l := c.l
	for i := start; i < end; i++ {
		off := rowOff(i)
		row := l[off : off+i+1]
		j := 0
		for ; j+4 <= i; j += 4 {
			c0 := l[rowOff(j):]
			c1 := l[rowOff(j+1):]
			c2 := l[rowOff(j+2):]
			c3 := l[rowOff(j+3):]
			s0, s1, s2, s3 := simd.Dot4(row, c0, c1, c2, c3, j)
			v0 := (row[j] - s0) / c0[j]
			row[j] = v0
			s1 += v0 * c1[j]
			v1 := (row[j+1] - s1) / c1[j+1]
			row[j+1] = v1
			s2 += v0*c2[j] + v1*c2[j+1]
			v2 := (row[j+2] - s2) / c2[j+2]
			row[j+2] = v2
			s3 += v0*c3[j] + v1*c3[j+1] + v2*c3[j+2]
			row[j+3] = (row[j+3] - s3) / c3[j+3]
		}
		for ; j < i; j++ {
			jo := rowOff(j)
			lj := l[jo : jo+j+1]
			row[j] = (row[j] - simd.DotUnroll(row[:j], lj[:j])) / lj[j]
		}
		diag := row[i] - simd.DotUnroll(row[:i], row[:i])
		if diag <= 0 {
			return i, diag, false
		}
		row[i] = math.Sqrt(diag)
	}
	return 0, 0, true
}

// refSolveLInto is the row-at-a-time forward substitution SolveLInto
// replaced, the reference for its four-row groups.
func refSolveLInto(c *Cholesky, x, b []float64) {
	for i := 0; i < c.n; i++ {
		off := rowOff(i)
		li := c.l[off : off+i+1]
		x[i] = (b[i] - simd.DotUnroll(li[:i], x[:i])) / li[i]
	}
}

// groupSizes and groupStarts cover every position of a row in its group
// of four, groups cut short by n, and Extend starts at and off a group
// boundary.
var groupSizes = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 13, 33, 64, 127, 140, 141, 200, 215}

func groupStarts(n int) []int {
	var out []int
	for _, s := range []int{0, 1, 2, 3, 5, n / 2, n - 1} {
		if s < n && (len(out) == 0 || s > out[len(out)-1]) {
			out = append(out, s)
		}
	}
	return out
}

// packedSPD returns the packed lower triangle of a random SPD matrix.
func packedSPD(rng *rand.Rand, n int) []float64 {
	a := randomSPD(rng, n)
	p := make([]float64, PackedLen(n))
	for i := 0; i < n; i++ {
		copy(p[rowOff(i):rowOff(i)+i+1], a.Data[i*n:i*n+i+1])
	}
	return p
}

// sameFactor fails t unless got and want hold the same bits.
func sameFactor(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d entries, reference %d", what, len(got), len(want))
	}
	for k := range want {
		if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
			t.Fatalf("%s: entry %d is %v (%#x), reference %v (%#x)",
				what, k, got[k], math.Float64bits(got[k]), want[k], math.Float64bits(want[k]))
		}
	}
}

// TestFactorRowsMatchesReference pins the grouped factorisation to the
// row-at-a-time recurrence bit for bit: whole factorisations, and Extend
// from every start in groupStarts on top of a prefix factored by the
// reference.
func TestFactorRowsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, n := range groupSizes {
		a := packedSPD(rng, n)
		ref := &Cholesky{l: append([]float64(nil), a...)}
		if _, _, ok := refFactorRows(ref, 0, n); !ok {
			t.Fatalf("n=%d: reference factorisation failed", n)
		}
		for _, start := range groupStarts(n) {
			got := &Cholesky{l: append([]float64(nil), ref.l[:rowOff(start)]...)}
			got.l = append(got.l, a[rowOff(start):]...)
			if piv, d, ok := got.factorRows(start, n); !ok {
				t.Fatalf("n=%d start=%d: pivot %d failed at %v", n, start, piv, d)
			}
			sameFactor(t, fmt.Sprintf("n=%d start=%d", n, start), got.l, ref.l)
		}
	}
}

// TestFactorRowsNotPDMatchesReference makes the matrix non-positive-
// definite at a row in every position of its group and checks that the
// grouped factorisation stops at the same pivot with the same pivot value
// as the reference, and leaves the rows before start as they were.
func TestFactorRowsNotPDMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, n := range groupSizes {
		a := packedSPD(rng, n)
		for _, start := range groupStarts(n) {
			for bad := start; bad < min(start+5, n); bad++ {
				b := append([]float64(nil), a...)
				// The row's pivot is A_ii minus a sum of squares: a small
				// A_ii makes it negative.
				b[rowOff(bad)+bad] = 1e-3 * float64(bad)
				ref := &Cholesky{l: append([]float64(nil), b...)}
				if _, _, ok := refFactorRows(ref, 0, start); !ok {
					t.Fatalf("n=%d start=%d: reference prefix failed", n, start)
				}
				prefix := append([]float64(nil), ref.l[:rowOff(start)]...)
				got := &Cholesky{l: append([]float64(nil), ref.l...)}
				wantPiv, wantD, wantOK := refFactorRows(ref, start, n)
				piv, d, ok := got.factorRows(start, n)
				what := fmt.Sprintf("n=%d start=%d bad=%d", n, start, bad)
				if ok != wantOK || piv != wantPiv || math.Float64bits(d) != math.Float64bits(wantD) {
					t.Fatalf("%s: factorRows = (%d, %v, %v), reference (%d, %v, %v)", what, piv, d, ok, wantPiv, wantD, wantOK)
				}
				sameFactor(t, what+" rows before start", got.l[:rowOff(start)], prefix)
			}
		}
	}
}

// TestSolveLIntoMatchesReference pins the grouped forward substitution to
// the row-at-a-time one bit for bit, into a separate x and with x aliasing
// b.
func TestSolveLIntoMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, n := range append([]int{0}, groupSizes...) {
		ch := &Cholesky{l: packedSPD(rng, n), n: n}
		if _, _, ok := ch.factorRows(0, n); !ok {
			t.Fatalf("n=%d: factorisation failed", n)
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64() * math.Pow(10, 6*rng.Float64()-3)
		}
		want := make([]float64, n)
		refSolveLInto(ch, want, b)
		got := make([]float64, n)
		ch.SolveLInto(got, b)
		sameFactor(t, fmt.Sprintf("n=%d", n), got, want)
		alias := append([]float64(nil), b...)
		ch.SolveLInto(alias, alias)
		sameFactor(t, fmt.Sprintf("n=%d aliased", n), alias, want)
	}
}

// refSolveLTInto is the scalar column loop SolveLTInto replaced, the
// reference for its simd.SubScaled updates.
func refSolveLTInto(c *Cholesky, x, b []float64) {
	copy(x, b)
	for i := c.n - 1; i >= 0; i-- {
		li := c.LRow(i)
		x[i] /= li[i]
		xi := x[i]
		for k := 0; k < i; k++ {
			x[k] -= li[k] * xi
		}
	}
}

// TestSolveLTIntoMatchesReference pins the back-substitution to the scalar
// column loop bit for bit at every n from 0 to 215, so every 4- and
// 8-element step count and every remainder of the column updates occurs,
// into a separate x and with x aliasing b.
func TestSolveLTIntoMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for n := 0; n <= 215; n++ {
		ch := &Cholesky{l: packedSPD(rng, n), n: n}
		if _, _, ok := ch.factorRows(0, n); !ok {
			t.Fatalf("n=%d: factorisation failed", n)
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64() * math.Pow(10, 6*rng.Float64()-3)
		}
		want := make([]float64, n)
		refSolveLTInto(ch, want, b)
		got := make([]float64, n)
		ch.SolveLTInto(got, b)
		sameFactor(t, fmt.Sprintf("n=%d", n), got, want)
		alias := append([]float64(nil), b...)
		ch.SolveLTInto(alias, alias)
		sameFactor(t, fmt.Sprintf("n=%d aliased", n), alias, want)
	}
}

// TestFactorizeInPlaceJitterRetry runs FactorizePacked's jitter ladder by
// hand through Packed and FactorizeInPlace, refilling the storage before
// each attempt, on matrices that need no jitter, some jitter and more than
// the ladder has. Each attempt must leave the factor FactorizePacked
// leaves: the same bits and size on success, an empty factor on failure.
func TestFactorizeInPlaceJitterRetry(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	const n = 37
	spd := packedSPD(rng, n)
	// Rank one, x xᵀ: singular, so only jitter makes it positive definite.
	rank1 := make([]float64, PackedLen(n))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
		for j := 0; j <= i; j++ {
			rank1[rowOff(i)+j] = x[i] * x[j]
		}
	}
	// Indefinite beyond any jitter on the ladder.
	indef := append([]float64(nil), spd...)
	indef[rowOff(n/2)+n/2] = -1
	for _, tc := range []struct {
		name string
		a    []float64
	}{{"spd", spd}, {"rank1", rank1}, {"indefinite", indef}} {
		var want Cholesky
		wantErr := want.FactorizePacked(tc.a, n, 1e-8, 6)
		var got Cholesky
		ok := false
		tries := 0
		for attempt := -1; attempt < 6 && !ok; attempt++ {
			copy(got.Packed(n), tc.a)
			if got.Size() != 0 {
				t.Fatalf("%s: Packed left Size %d", tc.name, got.Size())
			}
			ok = got.FactorizeInPlace(n, 1e-8, attempt)
			tries++
			if !ok && got.Size() != 0 {
				t.Fatalf("%s attempt %d: failed attempt left Size %d", tc.name, attempt, got.Size())
			}
		}
		if ok != (wantErr == nil) {
			t.Fatalf("%s: in place ok=%v after %d attempts, FactorizePacked err=%v", tc.name, ok, tries, wantErr)
		}
		if tc.name == "rank1" && (!ok || tries < 2) {
			t.Fatalf("rank1: ok=%v after %d attempts; the case must need a retry", ok, tries)
		}
		if ok {
			if got.Size() != n {
				t.Fatalf("%s: Size %d, want %d", tc.name, got.Size(), n)
			}
			sameFactor(t, tc.name, got.l, want.l)
		}
	}
}

// factorSizes are the Gram sizes table3's campaigns factorise: 35, 74 and
// 214 points, and the 140-point fit subsample (about half of all
// factorisations), plus the 200 the benchmark ran at before.
var factorSizes = []int{35, 74, 140, 200, 214}

func BenchmarkFactorizePacked(b *testing.B) {
	for _, n := range factorSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			packed := packedSPD(rand.New(rand.NewSource(12)), n)
			var ws Cholesky
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := ws.FactorizePacked(packed, n, 1e-8, 6); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExtendOneRow140 appends one row to a 140-row factor, the path
// of every AddTarget.
func BenchmarkExtendOneRow140(b *testing.B) {
	const n = 140
	a := packedSPD(rand.New(rand.NewSource(12)), n+1)
	var ch Cholesky
	if err := ch.FactorizePacked(a[:PackedLen(n)], n, 0, 0); err != nil {
		b.Fatal(err)
	}
	ch.Reserve(n + 1)
	rows := [][]float64{a[PackedLen(n):]}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ch.Extend(rows); err != nil {
			b.Fatal(err)
		}
		ch.reset(n)
	}
}

// BenchmarkSolveInto140 is one A x = b solve against a 140-row factor.
func BenchmarkSolveInto140(b *testing.B) {
	const n = 140
	rng := rand.New(rand.NewSource(12))
	ch, err := NewCholesky(randomSPD(rng, n))
	if err != nil {
		b.Fatal(err)
	}
	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = rng.NormFloat64()
	}
	x := make([]float64, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch.SolveInto(x, rhs)
	}
}
