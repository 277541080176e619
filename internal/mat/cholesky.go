package mat

import (
	"ppatuner/internal/simd"

	"errors"
	"fmt"
	"math"
)

// ErrNotPositiveDefinite is returned when a Cholesky factorisation encounters
// a non-positive pivot even after jitter has been applied.
var ErrNotPositiveDefinite = errors.New("mat: matrix is not positive definite")

// Cholesky holds a lower-triangular factor L with A = L Lᵀ.
//
// The factor supports incremental extension (Extend): appending k rows and
// columns to A updates L in O(n²k) instead of refactorising in O((n+k)³).
// This is the operation that makes PAL-style active-learning loops cheap —
// each tool evaluation appends one row to the Gram matrix.
//
// L lives in a single flat backing array in packed row-major order (row i
// starts at i(i+1)/2 and has i+1 entries), so a full factorisation walks
// contiguous memory and Extend is an append. Reserve pre-sizes the backing
// array for a known number of future Extend calls so a whole campaign of
// incremental updates never reallocates.
type Cholesky struct {
	n int
	// l is the packed lower triangle: row i occupies l[rowOff(i):rowOff(i)+i+1].
	l []float64
}

// rowOff returns the offset of row i in the packed lower-triangular layout.
func rowOff(i int) int { return i * (i + 1) / 2 }

// PackedLen returns the number of entries in the packed lower triangle of an
// n×n matrix, i.e. the length callers must size packed buffers to.
func PackedLen(n int) int { return rowOff(n) }

// NewCholesky factorises the symmetric positive-definite matrix a.
// Only the lower triangle of a is read.
func NewCholesky(a *Matrix) (*Cholesky, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("mat: Cholesky of non-square %dx%d matrix", a.Rows, a.Cols)
	}
	c := &Cholesky{}
	c.packFrom(a, 0)
	if piv, d, ok := c.factorRows(0, a.Rows); !ok {
		c.reset(0)
		return nil, fmt.Errorf("%w (pivot %d: %g)", ErrNotPositiveDefinite, piv, d)
	}
	c.n = a.Rows
	return c, nil
}

// packFrom copies the lower triangle of a into c.l (resized to fit) and adds
// jitter to every diagonal entry.
func (c *Cholesky) packFrom(a *Matrix, jitter float64) {
	n := a.Rows
	c.resize(n)
	idx := 0
	for i := 0; i < n; i++ {
		copy(c.l[idx:idx+i+1], a.Data[i*a.Cols:i*a.Cols+i+1])
		idx += i + 1
		c.l[idx-1] += jitter
	}
}

// resize sets len(c.l) = PackedLen(n), reusing capacity when possible.
func (c *Cholesky) resize(n int) {
	need := rowOff(n)
	if cap(c.l) >= need {
		c.l = c.l[:need]
	} else {
		c.l = make([]float64, need)
	}
}

// reset truncates the factor back to n rows (rollback aid).
func (c *Cholesky) reset(n int) {
	c.l = c.l[:rowOff(n)]
	c.n = n
}

// Reserve grows the backing array's capacity to hold an n×n factor without
// changing the current contents, so future Extend calls up to dimension n
// append in place instead of reallocating.
func (c *Cholesky) Reserve(n int) {
	if need := rowOff(n); cap(c.l) < need {
		nl := make([]float64, len(c.l), need)
		copy(nl, c.l)
		c.l = nl
	}
}

// Size returns the current dimension of the factorised matrix.
func (c *Cholesky) Size() int { return c.n }

// LRow returns row i of the factor L (length i+1). The slice is a view; do
// not modify it. Views are invalidated by the next Extend/Factorize call.
func (c *Cholesky) LRow(i int) []float64 {
	off := rowOff(i)
	return c.l[off : off+i+1]
}

// factorRows runs the left-looking Cholesky recurrence over rows
// [start, end), which must already hold the packed source values of A; rows
// before start must already be factored. On a non-positive pivot it stops
// and reports the row and pivot value; rows before start are untouched
// either way.
//
// Rows are factored in aligned groups [g, g+4), g a multiple of 4, whatever
// start is. Every entry keeps the operations, and the order of them, of the
// row-at-a-time recurrence, so the factor is the same to the bit:
//
//   - Columns [0, g) of a row are solved in blocks of four: the block's dot
//     products and its triangular coupling. A full group takes a block from
//     one simd.Dot4x4Solve call; a row of a group cut short by start or end
//     takes one Dot4 call and the coupling per block, row by row (the rows
//     are independent there).
//   - Two full groups go together, rows [g, g+8): their blocks j < g are
//     independent, so both groups' blocks are issued column block by
//     column block, then group g's diagonal block, then group g+4's block
//     g and diagonal block.
//   - A row's entries in [g, i) and its diagonal are DotUnroll sums whose
//     stride-4 lanes cover [0, g) and whose tails, at most three products,
//     cover [g, j). One DotUnrollLanes4 call per row gives the lanes of all
//     of them; the tails and the final sums are added here in DotUnroll's
//     order.
func (c *Cholesky) factorRows(start, end int) (pivot int, d float64, ok bool) {
	var a, b, q [4][]float64 // two groups' rows and a column block's
	for g := start &^ 3; g < end; {
		if g >= start && g+8 <= end {
			c.group(&a, g, 0, 4)
			c.group(&b, g+4, 0, 4)
			for j := 0; j < g; j += 4 {
				c.group(&q, j, 0, 4)
				simd.Dot4x4Solve(&a, &q, j)
				simd.Dot4x4Solve(&b, &q, j)
			}
			if pivot, d, ok = c.diagBlock(g, 0, 4, &a); !ok {
				return pivot, d, false
			}
			simd.Dot4x4Solve(&b, &a, g)
			if pivot, d, ok = c.diagBlock(g+4, 0, 4, &b); !ok {
				return pivot, d, false
			}
			g += 8
			continue
		}
		lo, hi := max(g, start)-g, min(g+4, end)-g // the group's rows factored here, less g
		c.group(&a, g, lo, hi)
		if hi-lo == 4 {
			for j := 0; j < g; j += 4 {
				c.group(&q, j, 0, 4)
				simd.Dot4x4Solve(&a, &q, j)
			}
		} else {
			for r := lo; r < hi; r++ {
				c.rowBlocks(a[r], g)
			}
		}
		if pivot, d, ok = c.diagBlock(g, lo, hi, &a); !ok {
			return pivot, d, false
		}
		g += 4
	}
	return 0, 0, true
}

// group sets rows[lo:hi] to rows g+lo..g+hi-1 of the packed factor; a
// full group's rows are also the columns of its column block.
func (c *Cholesky) group(rows *[4][]float64, g, lo, hi int) {
	for r := lo; r < hi; r++ {
		rows[r] = c.l[rowOff(g+r) : rowOff(g+r)+g+r+1]
	}
}

// rowBlocks solves columns [0, g) of one row block by block: per block
// Dot4, then the triangular coupling, where each solved entry feeds the
// dots of the columns to its right (the k ∈ [j, j+3) terms Dot4 could not
// see).
func (c *Cholesky) rowBlocks(row []float64, g int) {
	l := c.l
	for j := 0; j < g; j += 4 {
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
}

// diagBlock factors the entries [g, i] of rows g+lo..g+hi-1, i = g+r,
// whose columns [0, g) are solved: column block g's rows are the group's
// rows up to i, factored by now, and row i itself in the slots past it.
func (c *Cholesky) diagBlock(g, lo, hi int, rows *[4][]float64) (pivot int, d float64, ok bool) {
	l := c.l
	var lanes [16]float64
	for r := lo; r < hi; r++ {
		i, row := g+r, rows[r]
		var b [4][]float64
		for q := range b {
			m := min(g+q, i)
			b[q] = l[rowOff(m) : rowOff(m)+m+1]
		}
		simd.DotUnrollLanes4(row[:g], b[0], b[1], b[2], b[3], &lanes)
		for j := g; j < i; j++ {
			lj := b[j-g]
			var t float64
			for k := g; k < j; k++ {
				t += float64(row[k] * lj[k])
			}
			m := 4 * (j - g)
			row[j] = (row[j] - (t + lanes[m] + lanes[m+1] + lanes[m+2] + lanes[m+3])) / lj[j]
		}
		var t float64
		for k := g; k < i; k++ {
			t += float64(row[k] * row[k])
		}
		m := 4 * (i - g)
		diag := row[i] - (t + lanes[m] + lanes[m+1] + lanes[m+2] + lanes[m+3])
		if diag <= 0 {
			return i, diag, false
		}
		row[i] = math.Sqrt(diag)
	}
	return 0, 0, true
}

// Extend appends the rows newRows to the factor. newRows[i] must contain the
// lower-triangular part of the appended rows of A: its length must be
// c.Size()+i+1 (covariances against all previous points, then against the
// previously appended new points, then the diagonal).
func (c *Cholesky) Extend(newRows [][]float64) error {
	for i, row := range newRows {
		if len(row) != c.n+i+1 {
			return fmt.Errorf("mat: Extend row %d has length %d, want %d", i, len(row), c.n+i+1)
		}
	}
	start := c.n
	end := start + len(newRows)
	c.Reserve(end)
	c.l = c.l[:rowOff(end)]
	idx := rowOff(start)
	for _, src := range newRows {
		copy(c.l[idx:idx+len(src)], src)
		idx += len(src)
	}
	if piv, d, ok := c.factorRows(start, end); !ok {
		// Roll back any rows appended in this call so the factor stays
		// consistent.
		c.reset(start)
		return fmt.Errorf("%w (pivot %d: %g)", ErrNotPositiveDefinite, piv, d)
	}
	c.n = end
	return nil
}

// FactorizePacked refactorises the receiver from the packed lower triangle a
// of an n×n matrix (length PackedLen(n)), reusing the receiver's backing
// array so repeated refactorisations allocate nothing. On a non-positive
// pivot it retries with jitter·10^attempt added to the diagonal, up to
// maxAttempts times, mirroring CholeskyWithJitter. a is never modified.
func (c *Cholesky) FactorizePacked(a []float64, n int, jitter float64, maxAttempts int) error {
	if len(a) != rowOff(n) {
		return fmt.Errorf("mat: FactorizePacked got %d entries, want %d", len(a), rowOff(n))
	}
	var lastPiv int
	var lastD float64
	for attempt := -1; attempt < maxAttempts; attempt++ {
		copy(c.Packed(n), a)
		piv, d, ok := c.factorAttempt(n, jitter, attempt)
		if ok {
			return nil
		}
		lastPiv, lastD = piv, d
	}
	c.reset(0)
	return fmt.Errorf("%w (pivot %d: %g)", ErrNotPositiveDefinite, lastPiv, lastD)
}

// Packed empties the factor and returns its backing array resized to the
// packed lower triangle of an n×n matrix (PackedLen(n) entries), for the
// caller to write A into and FactorizeInPlace to factorise without a copy.
// It allocates only when the array must grow.
func (c *Cholesky) Packed(n int) []float64 {
	c.resize(n)
	c.n = 0
	return c.l
}

// FactorizeInPlace factorises the n×n matrix whose packed lower triangle
// the caller has written into Packed(n), in place: attempt of
// FactorizePacked's jitter ladder, which adds nothing to the diagonal for
// attempt < 0 and jitter·10^attempt otherwise. The factor has the bits
// FactorizePacked gives at that attempt. On a non-positive pivot it
// reports false and leaves the factor empty and its storage partly
// factored: write A into Packed(n) again before the next attempt.
//
//ppalint:noalloc
func (c *Cholesky) FactorizeInPlace(n int, jitter float64, attempt int) bool {
	_, _, ok := c.factorAttempt(n, jitter, attempt)
	return ok
}

// factorAttempt is FactorizeInPlace, reporting a failed pivot.
func (c *Cholesky) factorAttempt(n int, jitter float64, attempt int) (pivot int, d float64, ok bool) {
	if len(c.l) != rowOff(n) {
		panic(fmt.Sprintf("mat: FactorizeInPlace of %d rows over %d packed entries", n, len(c.l)))
	}
	if attempt >= 0 {
		add := jitter * math.Pow(10, float64(attempt))
		for i := 0; i < n; i++ {
			c.l[rowOff(i)+i] += add
		}
	}
	c.n = 0
	if pivot, d, ok = c.factorRows(0, n); ok {
		c.n = n
	}
	return pivot, d, ok
}

// SolveLInto solves L x = b into x, which must have length Size() and may
// alias b. Rows go in aligned groups of four, as in factorRows: one
// DotUnrollLanes4 pass over x[:g] gives the lanes of all four rows' dot
// products, and each row adds its tail over [g, i) and finishes the sum in
// DotUnroll's order, so x is the row-by-row substitution's to the bit.
func (c *Cholesky) SolveLInto(x, b []float64) {
	n := c.n
	if len(b) != n || len(x) != n {
		panic(fmt.Sprintf("mat: SolveLInto lengths %d/%d, want %d", len(x), len(b), n))
	}
	var lanes [16]float64
	for g := 0; g < n; g += 4 {
		// rows[r] is row g+r of L; past the last row, a placeholder.
		var rows [4][]float64
		for r := range rows {
			i := min(g+r, n-1)
			rows[r] = c.l[rowOff(i) : rowOff(i)+i+1]
		}
		simd.DotUnrollLanes4(x[:g], rows[0], rows[1], rows[2], rows[3], &lanes)
		for i := g; i < min(g+4, n); i++ {
			li := rows[i-g]
			var t float64
			for k := g; k < i; k++ {
				t += float64(li[k] * x[k])
			}
			m := 4 * (i - g)
			x[i] = (b[i] - (t + lanes[m] + lanes[m+1] + lanes[m+2] + lanes[m+3])) / li[i]
		}
	}
}

// SolveLInto4 solves L x_c = b_c for four right-hand sides at once, loading
// each row of L once for all four instead of once per solve. Every x_c and
// b_c must have length Size(), and each x_c may alias its own b_c. The
// results equal four SolveLInto calls bit for bit (simd.DotUnroll4 is
// DotUnroll exactly).
//
//ppalint:noalloc
func (c *Cholesky) SolveLInto4(x0, x1, x2, x3, b0, b1, b2, b3 []float64) {
	n := c.n
	if len(x0) != n || len(x1) != n || len(x2) != n || len(x3) != n ||
		len(b0) != n || len(b1) != n || len(b2) != n || len(b3) != n {
		panic(fmt.Sprintf("mat: SolveLInto4 lengths %d/%d/%d/%d and %d/%d/%d/%d, want %d",
			len(x0), len(x1), len(x2), len(x3), len(b0), len(b1), len(b2), len(b3), n))
	}
	for i := 0; i < n; i++ {
		off := rowOff(i)
		li := c.l[off : off+i+1]
		d0, d1, d2, d3 := simd.DotUnroll4(li[:i], x0[:i], x1[:i], x2[:i], x3[:i])
		x0[i] = (b0[i] - d0) / li[i]
		x1[i] = (b1[i] - d1) / li[i]
		x2[i] = (b2[i] - d2) / li[i]
		x3[i] = (b3[i] - d3) / li[i]
	}
}

// SolveL solves L x = b and returns a freshly allocated x.
func (c *Cholesky) SolveL(b []float64) []float64 {
	x := make([]float64, c.n)
	c.SolveLInto(x, b)
	return x
}

// SolveLTInto solves Lᵀ x = b into x, which must have length Size() and may
// alias b. Column by column from the last, it divides x_i by L_ii and
// subtracts x_i times column i of L, row i's first i entries, from x[:i]
// in one simd.SubScaled call, each entry the scalar loop's to the bit.
//
//ppalint:noalloc
func (c *Cholesky) SolveLTInto(x, b []float64) {
	if len(b) != c.n || len(x) != c.n {
		panic(fmt.Sprintf("mat: SolveLTInto lengths %d/%d, want %d", len(x), len(b), c.n))
	}
	copy(x, b)
	for i := c.n - 1; i >= 0; i-- {
		off := rowOff(i)
		li := c.l[off : off+i+1]
		x[i] /= li[i]
		simd.SubScaled(x[:i], li, x[i])
	}
}

// SolveLT solves Lᵀ x = b and returns a freshly allocated x.
func (c *Cholesky) SolveLT(b []float64) []float64 {
	x := make([]float64, c.n)
	c.SolveLTInto(x, b)
	return x
}

// SolveInto solves A x = b into x via the factor (two triangular solves).
// x may alias b.
func (c *Cholesky) SolveInto(x, b []float64) {
	c.SolveLInto(x, b)
	c.SolveLTInto(x, x)
}

// Solve solves A x = b via the factor and returns a freshly allocated x.
func (c *Cholesky) Solve(b []float64) []float64 {
	x := make([]float64, c.n)
	c.SolveInto(x, b)
	return x
}

// LogDet returns log|A| = 2 Σ log L_ii.
func (c *Cholesky) LogDet() float64 {
	var s float64
	for i := 0; i < c.n; i++ {
		s += math.Log(c.l[rowOff(i)+i])
	}
	return 2 * s
}

// ExtendSolveL extends an existing partial solution of L x = b with the
// solution entries for newly appended rows. x must be the solution for the
// first len(x) rows; bTail supplies b entries for rows len(x)..Size()-1.
// It returns the full solution of length Size().
func (c *Cholesky) ExtendSolveL(x []float64, bTail []float64) []float64 {
	out := make([]float64, c.n)
	c.ExtendSolveLInto(out, x, bTail)
	return out
}

// ExtendSolveLInto is ExtendSolveL writing into out (length Size()), which
// may alias x's backing array (out[:len(x)] is only read after being copied).
func (c *Cholesky) ExtendSolveLInto(out, x, bTail []float64) {
	if len(x)+len(bTail) != c.n || len(out) != c.n {
		panic(fmt.Sprintf("mat: ExtendSolveL %d+%d != %d", len(x), len(bTail), c.n))
	}
	copy(out, x)
	for i := len(x); i < c.n; i++ {
		off := rowOff(i)
		li := c.l[off : off+i+1]
		out[i] = (bTail[i-len(x)] - simd.DotUnroll(li[:i], out[:i])) / li[i]
	}
}

// Reconstruct multiplies L Lᵀ back into a dense matrix (testing aid).
func (c *Cholesky) Reconstruct() *Matrix {
	a := NewMatrix(c.n, c.n)
	for i := 0; i < c.n; i++ {
		li := c.LRow(i)
		for j := 0; j <= i; j++ {
			lj := c.LRow(j)
			var s float64
			for k := 0; k <= j; k++ {
				s += li[k] * lj[k]
			}
			a.Set(i, j, s)
			a.Set(j, i, s)
		}
	}
	return a
}

// SolveSPD factorises a and solves a x = b in one call, applying growing
// jitter to the diagonal if the factorisation fails. It is the convenience
// path for one-shot solves (hyper-parameter fitting evaluates many small
// candidate matrices this way).
func SolveSPD(a *Matrix, b []float64) ([]float64, *Cholesky, error) {
	ch, err := CholeskyWithJitter(a, 1e-10, 8)
	if err != nil {
		return nil, nil, err
	}
	return ch.Solve(b), ch, nil
}

// CholeskyWithJitter attempts NewCholesky, adding jitter·10^attempt to the
// diagonal on failure, up to maxAttempts times.
func CholeskyWithJitter(a *Matrix, jitter float64, maxAttempts int) (*Cholesky, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("mat: Cholesky of non-square %dx%d matrix", a.Rows, a.Cols)
	}
	c := &Cholesky{}
	var lastPiv int
	var lastD float64
	added := 0.0
	for attempt := -1; attempt < maxAttempts; attempt++ {
		if attempt >= 0 {
			added = jitter * math.Pow(10, float64(attempt))
		}
		c.packFrom(a, added)
		piv, d, ok := c.factorRows(0, a.Rows)
		if ok {
			c.n = a.Rows
			return c, nil
		}
		lastPiv, lastD = piv, d
	}
	c.reset(0)
	return nil, fmt.Errorf("%w (pivot %d: %g)", ErrNotPositiveDefinite, lastPiv, lastD)
}
