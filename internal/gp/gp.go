package gp

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"ppatuner/internal/mat"
	"ppatuner/internal/par"
	"ppatuner/internal/simd"
)

// GP is an exact Gaussian-process regressor over one QoR metric, optionally
// coupling a fixed source-task dataset with a growing target-task dataset
// through the transfer kernel of Eq. (5)–(7):
//
//	K̃(x_n, x_m) = k(x_n, x_m) · (2(1/(1+a))^b − 1)   across tasks,
//	K̃(x_n, x_m) = k(x_n, x_m)                         within a task,
//
// with heteroscedastic task noise Λ = diag(βs⁻¹ I_N, βt⁻¹ I_M) as in
// Eq. (8). A GP without source data degenerates to a standard GP — that is
// exactly the surrogate of the TCAD'19 baseline.
type GP struct {
	cov            *Cov
	noiseT, noiseS float64 // βt⁻¹ and βs⁻¹ (variances)
	a, b           float64 // Gamma dissimilarity parameters of Eq. (6)

	dim       int
	hasSource bool

	xs [][]float64 // source inputs (fixed after SetSource)
	ys []float64   // raw source outputs
	xt [][]float64 // target inputs (grow during tuning)
	yt []float64   // raw target outputs

	// Per-task output standardisation: a systematic offset or scale gap
	// between the tasks (a larger design burns more power everywhere) would
	// otherwise masquerade as task dissimilarity and destroy the cross-task
	// correlation the transfer kernel needs. Each task is z-scored with its
	// own constants; the kernel then correlates response *shapes*.
	yMeanS, yStdS float64
	yMeanT, yStdT float64

	chol  *mat.Cholesky
	alpha []float64

	pool    [][]float64
	poolK   [][]float64 // poolK[p][i] = k̃(x_i, pool_p)
	poolV   [][]float64 // poolV[p]    = L⁻¹ poolK[p]
	poolKpp []float64   // prior variance k(p,p) + βt⁻¹
	// live lists, in ascending order, the candidates whose poolK and poolV
	// are kept current: every candidate after AttachPool, fewer after
	// KeepPool. The others' slots are nil.
	live []int

	// Reused buffers: the packed Gram workspace and standardised-output /
	// Extend-row scratch. They make Rebuild and AddTarget allocation-free
	// once warm (the pool caches above are persistent state, not scratch).
	gramBuf []float64
	yBuf    []float64
	rowBuf  []float64

	// growth is the expected number of future AddTarget calls; Rebuild and
	// the pool cache size their backing arrays for it so a whole campaign of
	// incremental adds appends without reallocating (ReserveAdds).
	growth int
	// workers bounds the goroutines used for pool-cache rebuilds and
	// extensions (SetWorkers); <=1 keeps everything on the calling goroutine.
	workers int
}

// ReserveAdds declares how many future AddTarget observations the posterior
// should make room for. The next Rebuild (and every pool-cache build) then
// preallocates Cholesky, target-set and per-candidate cache capacity so the
// incremental updates of a whole tuning campaign append in place: with one
// worker, AddTarget then allocates nothing.
func (g *GP) ReserveAdds(n int) {
	if n > 0 {
		g.growth = n
	}
}

// SetWorkers bounds the worker goroutines used when rebuilding the pool
// cache and when AddTarget extends it. Results are applied per candidate,
// so any worker count produces bit-identical caches; n <= 1 (the default)
// stays fully sequential.
func (g *GP) SetWorkers(n int) { g.workers = n }

// New returns a GP over dim-dimensional inputs with the RBF covariance;
// kind must be RBF. ard selects per-dimension lengthscales.
func New(kind CovKind, dim int, ard bool) *GP {
	return &GP{
		cov:    NewCov(kind, dim, ard),
		noiseT: 1e-4,
		noiseS: 1e-4,
		a:      0.1,
		b:      1.0,
		dim:    dim,
		yStdS:  1,
		yStdT:  1,
	}
}

// SetSource installs the source-task dataset (historical configurations and
// their QoR values). Must be called before Fit; enables the transfer kernel.
func (g *GP) SetSource(x [][]float64, y []float64) error {
	if len(x) != len(y) {
		return fmt.Errorf("gp: source has %d inputs, %d outputs", len(x), len(y))
	}
	for _, xi := range x {
		if len(xi) != g.dim {
			return fmt.Errorf("gp: source input dim %d, want %d", len(xi), g.dim)
		}
	}
	g.xs = x
	g.ys = y
	g.hasSource = len(x) > 0
	return nil
}

// SetTarget installs the initial target-task observations.
func (g *GP) SetTarget(x [][]float64, y []float64) error {
	if len(x) != len(y) {
		return fmt.Errorf("gp: target has %d inputs, %d outputs", len(x), len(y))
	}
	for _, xi := range x {
		if len(xi) != g.dim {
			return fmt.Errorf("gp: target input dim %d, want %d", len(xi), g.dim)
		}
	}
	g.xt = append([][]float64(nil), x...)
	g.yt = append([]float64(nil), y...)
	return nil
}

// Rho returns the current cross-task correlation factor of Eq. (7).
func (g *GP) Rho() float64 {
	if !g.hasSource {
		return 1
	}
	return TransferFactor(g.a, g.b)
}

// Cov returns the covariance function (for inspection in tests/ablations).
func (g *GP) Cov() *Cov { return g.cov }

// Noise returns the target and source noise variances (βt⁻¹, βs⁻¹).
func (g *GP) Noise() (noiseT, noiseS float64) { return g.noiseT, g.noiseS }

// N returns the current number of training points (source + target).
func (g *GP) N() int { return len(g.xs) + len(g.xt) }

// NTarget returns the number of target-task training points.
func (g *GP) NTarget() int { return len(g.xt) }

// trainX returns training input i in source-then-target order, plus whether
// it belongs to the source task.
func (g *GP) trainX(i int) ([]float64, bool) {
	if i < len(g.xs) {
		return g.xs[i], true
	}
	return g.xt[i-len(g.xs)], false
}

// ktrain evaluates the transfer kernel between training points i and j.
func (g *GP) ktrain(i, j int) float64 {
	xi, si := g.trainX(i)
	xj, sj := g.trainX(j)
	v := g.cov.Eval(xi, xj)
	if si != sj {
		v *= g.Rho()
	}
	return v
}

// kvecTarget evaluates k̃(x, x_i) for a *target-task* test point against all
// training points, writing into dst (len N).
func (g *GP) kvecTarget(x []float64, dst []float64) {
	g.kvecInto(x, dst, g.Rho())
}

// kvecInto is kvecTarget with the cross-task factor hoisted by the caller,
// so sweeps over many test points pay TransferFactor's math.Pow once. It
// writes every training point's r² first and transforms them in one
// Cov.fromR2 call, then scales the source block by ρ: per entry the same
// operations as ρ·Cov.Eval(x, x_i), so the column is bit-identical to the
// per-point one.
func (g *GP) kvecInto(x []float64, dst []float64, rho float64) {
	if len(x) != g.dim {
		panic(fmt.Sprintf("gp: Eval dim mismatch %d vs %d", len(x), g.dim))
	}
	ns := len(g.xs)
	for i, xi := range g.xs {
		dst[i] = g.cov.r2(x, xi)
	}
	for i, xi := range g.xt {
		dst[ns+i] = g.cov.r2(x, xi)
	}
	g.cov.fromR2(dst[:ns+len(g.xt)])
	for i := range dst[:ns] {
		dst[i] *= rho
	}
}

// standardise recomputes the per-task output normalisation constants.
func (g *GP) standardise() {
	g.yMeanS, g.yStdS = meanStd(g.ys)
	g.yMeanT, g.yStdT = meanStd(g.yt)
	// With very few target observations the target scale estimate is
	// unreliable; borrow the source scale, which describes the same kind of
	// quantity.
	if len(g.yt) < 4 && len(g.ys) >= 4 {
		g.yStdT = g.yStdS
	}
}

func meanStd(y []float64) (mean, std float64) {
	if len(y) == 0 {
		return 0, 1
	}
	for _, v := range y {
		mean += v
	}
	mean /= float64(len(y))
	for _, v := range y {
		std += (v - mean) * (v - mean)
	}
	std = math.Sqrt(std / float64(len(y)))
	if std < 1e-12 {
		std = 1
	}
	return mean, std
}

// yStdAll returns all outputs in training order, standardised per task.
func (g *GP) yStdAll() []float64 {
	return g.yStdInto(nil)
}

// yStdInto is yStdAll writing into buf, which is grown (with ReserveAdds
// headroom) only when too small.
func (g *GP) yStdInto(buf []float64) []float64 {
	n := g.N()
	if cap(buf) < n {
		buf = make([]float64, n, n+g.growth)
	} else {
		buf = buf[:n]
	}
	i := 0
	for _, y := range g.ys {
		buf[i] = (y - g.yMeanS) / g.yStdS
		i++
	}
	for _, y := range g.yt {
		buf[i] = (y - g.yMeanT) / g.yStdT
		i++
	}
	return buf
}

// gram builds the full noisy Gram matrix K̃ + Λ for the current data and
// hyper-parameters.
func (g *GP) gram() *mat.Matrix {
	n := g.N()
	k := mat.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			v := g.ktrain(i, j)
			k.Set(i, j, v)
			k.Set(j, i, v)
		}
		if i < len(g.xs) {
			k.Data[i*n+i] += g.noiseS
		} else {
			k.Data[i*n+i] += g.noiseT
		}
		k.Data[i*n+i] += 1e-8 // numerical jitter
	}
	return k
}

// fillGramPacked writes the packed lower triangle of the full noisy Gram
// matrix K̃ + Λ into dst (length mat.PackedLen(N)), with the cross-task
// factor ρ hoisted out of the pair loop.
func (g *GP) fillGramPacked(dst []float64) {
	n := g.N()
	rho := g.Rho()
	idx := 0
	for i := 0; i < n; i++ {
		xi, si := g.trainX(i)
		for j := 0; j <= i; j++ {
			xj, sj := g.trainX(j)
			v := g.cov.Eval(xi, xj)
			if si != sj {
				v *= rho
			}
			dst[idx] = v
			idx++
		}
		if si {
			dst[idx-1] += g.noiseS
		} else {
			dst[idx-1] += g.noiseT
		}
		dst[idx-1] += 1e-8 // numerical jitter
	}
}

// Rebuild refactorises the posterior from scratch for the current data and
// hyper-parameters, and recomputes the pool cache if a pool is attached.
// All posterior buffers (packed Gram, Cholesky, alpha) are reused, with
// ReserveAdds headroom so the incremental updates that follow append in
// place.
func (g *GP) Rebuild() error {
	n := g.N()
	if n == 0 {
		return errors.New("gp: no training data")
	}
	g.standardise()
	np := mat.PackedLen(n)
	if cap(g.gramBuf) < np {
		g.gramBuf = make([]float64, np, mat.PackedLen(n+g.growth))
	}
	g.gramBuf = g.gramBuf[:np]
	g.fillGramPacked(g.gramBuf)
	if g.chol == nil {
		g.chol = &mat.Cholesky{}
	}
	g.chol.Reserve(n + g.growth)
	if err := g.chol.FactorizePacked(g.gramBuf, n, 1e-8, 8); err != nil {
		return fmt.Errorf("gp: posterior factorisation: %w", err)
	}
	g.yBuf = g.yStdInto(g.yBuf)
	if cap(g.alpha) < n {
		g.alpha = make([]float64, n, n+g.growth)
	}
	g.alpha = g.alpha[:n]
	g.chol.SolveInto(g.alpha, g.yBuf)
	// The target set and Extend's row buffer get the same headroom, so
	// AddTarget allocates nothing within the reserve.
	if g.growth > 0 {
		g.xt = slices.Grow(g.xt, g.growth)
		g.yt = slices.Grow(g.yt, g.growth)
		if cap(g.rowBuf) < n+1 {
			g.rowBuf = make([]float64, 0, n+1+g.growth)
		}
	}
	if g.pool != nil {
		g.rebuildPool()
	}
	return nil
}

// AddTarget appends one target-task observation and updates the posterior
// and pool cache incrementally.
func (g *GP) AddTarget(x []float64, y float64) error {
	if len(x) != g.dim {
		return fmt.Errorf("gp: AddTarget input dim %d, want %d", len(x), g.dim)
	}
	if g.chol == nil {
		g.xt = append(g.xt, x)
		g.yt = append(g.yt, y)
		return g.Rebuild()
	}
	n := g.N()
	if cap(g.rowBuf) < n+1 {
		g.rowBuf = make([]float64, n+1, n+1+g.growth)
	}
	row := g.rowBuf[:n+1]
	g.kvecInto(x, row[:n], g.Rho())
	row[n] = g.cov.Eval(x, x) + g.noiseT + 1e-8
	if err := g.chol.Extend([][]float64{row}); err != nil {
		// The new row's pivot is not positive. Fit keeps the target noise
		// at 1e-4 or more and the row adds 1e-8 of jitter, so no real
		// point, a duplicate included, fails here; a noise set below zero
		// can. Fall back to a full rebuild, whose factorisation retries
		// with growing jitter.
		g.xt = append(g.xt, x)
		g.yt = append(g.yt, y)
		g.chol = nil
		return g.Rebuild()
	}
	g.xt = append(g.xt, x)
	g.yt = append(g.yt, y)
	g.yBuf = append(g.yBuf, (y-g.yMeanT)/g.yStdT)
	if cap(g.alpha) < n+1 {
		g.alpha = make([]float64, n+1, n+1+g.growth)
	}
	g.alpha = g.alpha[:n+1]
	g.chol.SolveInto(g.alpha, g.yBuf)

	// Extend the kept candidates' caches with one entry each, sharded like
	// rebuildPool. AttachPool sized the per-candidate columns with
	// ReserveAdds headroom, so these appends stay in place for a whole
	// campaign. A single worker calls extendPools directly: the closure
	// par.Do takes would escape to the heap on every add.
	if g.pool != nil {
		ln := g.chol.LRow(n)
		if g.workers <= 1 {
			g.extendPools(x, ln, g.live)
		} else {
			par.Do(g.workers, len(g.live), func(lo, hi int) { g.extendPools(x, ln, g.live[lo:hi]) })
		}
	}
	return nil
}

// extendPools extends the caches of candidates ps with the new training
// point x, four candidates per pass over ln, the new row of L, and the last
// one to three singly (the same bits either way).
func (g *GP) extendPools(x, ln []float64, ps []int) {
	n := len(ln) - 1
	for ; len(ps) >= 4; ps = ps[4:] {
		p := [4]int(ps)
		v := g.poolV
		d0, d1, d2, d3 := simd.DotUnroll4(ln[:n], v[p[0]], v[p[1]], v[p[2]], v[p[3]])
		var kp [4]float64
		for c, pc := range p {
			kp[c] = g.cov.r2(x, g.pool[pc])
		}
		g.cov.fromR2(kp[:])
		g.extendPool(p[0], ln, kp[0], d0)
		g.extendPool(p[1], ln, kp[1], d1)
		g.extendPool(p[2], ln, kp[2], d2)
		g.extendPool(p[3], ln, kp[3], d3)
	}
	for _, p := range ps {
		g.extendPool(p, ln, g.cov.Eval(x, g.pool[p]), mat.Dot(ln[:n], g.poolV[p]))
	}
}

// extendPool appends the new training point's entries to candidate p's
// cache, given ln (the new row of L, diagonal last), the point's kernel
// value kp against the candidate and d = ln[:n]·poolV[p].
func (g *GP) extendPool(p int, ln []float64, kp, d float64) {
	g.poolK[p] = append(g.poolK[p], kp)
	g.poolV[p] = append(g.poolV[p], (kp-d)/ln[len(ln)-1])
}

// AttachPool installs the candidate pool (target-task points, normalised
// coordinates) whose posterior will be queried repeatedly. Must be called
// after the posterior exists (Fit or Rebuild).
func (g *GP) AttachPool(pool [][]float64) error {
	if g.chol == nil {
		return errors.New("gp: AttachPool before Rebuild/Fit")
	}
	for _, p := range pool {
		if len(p) != g.dim {
			return fmt.Errorf("gp: pool point dim %d, want %d", len(p), g.dim)
		}
	}
	g.pool = pool
	g.live = g.live[:0]
	for p := range pool {
		g.live = append(g.live, p)
	}
	g.rebuildPool()
	return nil
}

// KeepPool restricts the pool cache to the candidates in live, which must
// be an ascending subset of the candidates kept so far (every candidate
// after AttachPool); it panics otherwise. The other candidates' kernel
// columns and solve vectors are released: later AddTarget and Rebuild calls
// no longer update them, and PredictPool or PredictPool4 on one of them
// panics on its length check instead of reading a stale cache. The kept
// candidates' caches, and so their predictions, keep their bits.
func (g *GP) KeepPool(live []int) {
	j := 0
	for _, p := range live {
		for j < len(g.live) && g.live[j] < p {
			j++
		}
		if j == len(g.live) || g.live[j] != p {
			panic(fmt.Sprintf("gp: KeepPool: candidate %d is out of order or not kept", p))
		}
		j++
	}
	k := 0
	for _, p := range g.live {
		if k < len(live) && live[k] == p {
			k++
			continue
		}
		g.poolK[p], g.poolV[p] = nil, nil
	}
	g.live = append(g.live[:0], live...)
}

// rebuildPool recomputes the kept candidates' kernel columns and solve
// vectors. The live list is sharded across SetWorkers goroutines, and each
// shard solves four candidates per pass over L (SolveLInto4, bit-identical
// to four SolveLInto calls) and the last one to three singly. Every worker
// writes only its own candidates' slots and the per-candidate arithmetic is
// identical in any sharding or grouping, so the cache is bit-identical for
// any worker count and any live set. Existing per-candidate buffers are
// reused when the training size still fits (a refit at constant N
// allocates nothing).
func (g *GP) rebuildPool() {
	n := g.N()
	m := len(g.pool)
	if len(g.poolK) != m {
		g.poolK = make([][]float64, m)
		g.poolV = make([][]float64, m)
		g.poolKpp = make([]float64, m)
	}
	rho := g.Rho()
	par.Do(g.workers, len(g.live), func(lo, hi int) {
		ps := g.live[lo:hi]
		for ; len(ps) >= 4; ps = ps[4:] {
			p := [4]int(ps)
			for _, pc := range p {
				g.fillPoolCol(pc, n, rho)
			}
			v, k := g.poolV, g.poolK
			g.chol.SolveLInto4(v[p[0]], v[p[1]], v[p[2]], v[p[3]], k[p[0]], k[p[1]], k[p[2]], k[p[3]])
		}
		for _, p := range ps {
			g.fillPoolCol(p, n, rho)
			g.chol.SolveLInto(g.poolV[p], g.poolK[p])
		}
	})
}

// fillPoolCol sizes candidate p's cache slots for n training points, fills
// its kernel column and prior variance, and leaves poolV[p] (length n) for
// the caller's forward substitution.
func (g *GP) fillPoolCol(p, n int, rho float64) {
	xp := g.pool[p]
	col := g.poolK[p]
	if cap(col) < n {
		col = make([]float64, n, n+g.growth)
	}
	col = col[:n]
	g.kvecInto(xp, col, rho)
	g.poolK[p] = col
	v := g.poolV[p]
	if cap(v) < n {
		v = make([]float64, n, n+g.growth)
	}
	g.poolV[p] = v[:n]
	g.poolKpp[p] = g.cov.Eval(xp, xp) + g.noiseT
}

// PredictPool returns the posterior mean and standard deviation (in raw
// output units) for pool candidate p, per Eq. (8).
func (g *GP) PredictPool(p int) (mu, sd float64) {
	kp := g.poolK[p]
	vp := g.poolV[p]
	return rawPosterior(g.yMeanT, g.yStdT, mat.Dot(g.alpha, kp), g.poolKpp[p]-mat.Dot(vp, vp))
}

// rawPosterior converts a standardised posterior mean and variance into
// raw output units of a task with mean yMean and scale yStd, flooring the
// variance at 1e-12.
func rawPosterior(yMean, yStd, muStd, varStd float64) (mu, sd float64) {
	if varStd < 1e-12 {
		varStd = 1e-12
	}
	return yMean + yStd*muStd, yStd * math.Sqrt(varStd)
}

// PredictPool4 returns PredictPool(p[0]) … PredictPool(p[3]), bit for bit,
// with the four means from one simd.DotUnroll4 pass over α and the four
// variances from one simd.DotSelf4 pass over the solve vectors.
func (g *GP) PredictPool4(p [4]int) (mu, sd [4]float64) {
	k, v := g.poolK, g.poolV
	var m, q [4]float64
	m[0], m[1], m[2], m[3] = simd.DotUnroll4(g.alpha, k[p[0]], k[p[1]], k[p[2]], k[p[3]])
	q[0], q[1], q[2], q[3] = simd.DotSelf4(v[p[0]], v[p[1]], v[p[2]], v[p[3]])
	for c, pc := range p {
		mu[c], sd[c] = rawPosterior(g.yMeanT, g.yStdT, m[c], g.poolKpp[pc]-q[c])
	}
	return mu, sd
}

// Predict returns the posterior mean and standard deviation for an arbitrary
// target-task point (raw units).
func (g *GP) Predict(x []float64) (mu, sd float64) {
	if g.chol == nil {
		panic("gp: Predict before Rebuild/Fit")
	}
	n := g.N()
	kv := make([]float64, n)
	g.kvecTarget(x, kv)
	muStd := mat.Dot(g.alpha, kv)
	v := g.chol.SolveL(kv)
	return rawPosterior(g.yMeanT, g.yStdT, muStd, g.cov.Eval(x, x)+g.noiseT-mat.Dot(v, v))
}

// NLML returns the negative log marginal likelihood of the standardised data
// under the current hyper-parameters (lower is better). Used by Fit and
// exposed for tests and diagnostics.
func (g *GP) NLML() float64 {
	n := g.N()
	if n == 0 {
		return math.Inf(1)
	}
	return newFitWS(g).nlml(g)
}

// FitOptions bounds the hyper-parameter search.
type FitOptions struct {
	// MaxEvals caps Nelder–Mead objective evaluations (default 240).
	MaxEvals int
	// FixTransfer keeps (a, b) at their current values instead of fitting
	// them (ablation hook).
	FixTransfer bool
	// Subsample caps the number of training points entering each marginal-
	// likelihood evaluation (0 = use all). Large active-learning loops use
	// this: each NLML evaluation is O(n³), so fitting on a deterministic
	// stride subsample keeps refits cheap while the full posterior still
	// uses every point.
	Subsample int
}

// subsampled returns a copy of g whose data is a deterministic stride
// subsample of at most n points, split proportionally between tasks.
func (g *GP) subsampled(n int) *GP {
	total := g.N()
	if n <= 0 || total <= n {
		return g
	}
	sub := New(RBF, g.dim, len(g.cov.Len) > 1)
	sub.cov = g.cov // share: Fit mutates these in place
	sub.noiseT, sub.noiseS = g.noiseT, g.noiseS
	sub.a, sub.b = g.a, g.b
	take := func(x [][]float64, y []float64, k int) ([][]float64, []float64) {
		if k >= len(x) {
			return x, y
		}
		xs := make([][]float64, 0, k)
		ys := make([]float64, 0, k)
		stride := float64(len(x)) / float64(k)
		for i := 0; i < k; i++ {
			j := int(float64(i) * stride)
			xs = append(xs, x[j])
			ys = append(ys, y[j])
		}
		return xs, ys
	}
	ns := n * len(g.xs) / total
	if g.hasSource && ns < 1 {
		ns = 1 // keep the task structure so the packed hyper layout matches
	}
	nt := n - ns
	sub.xs, sub.ys = take(g.xs, g.ys, ns)
	sub.xt, sub.yt = take(g.xt, g.yt, nt)
	sub.hasSource = len(sub.xs) > 0
	return sub
}

// Fit maximises the marginal likelihood over the covariance hyper-parameters,
// the task noises and (when source data is present) the transfer Gamma
// parameters, then rebuilds the posterior.
func (g *GP) Fit(opts FitOptions) error { return g.fit(opts, (*fitWS).nlml) }

// fit is Fit with the workspace's NLML evaluation as a parameter, so the
// tests can drive the same optimisation through a reference Gram fill.
func (g *GP) fit(opts FitOptions, nlml func(*fitWS, *GP) float64) error {
	if g.N() == 0 {
		return errors.New("gp: no training data")
	}
	if opts.MaxEvals <= 0 {
		opts.MaxEvals = 240
	}
	g.standardise()

	fitTransfer := g.hasSource && !opts.FixTransfer
	// NLML is evaluated on a subsample when the training set is large; the
	// winning hyper-parameters are copied back to g before the full rebuild.
	work := g.subsampled(opts.Subsample)
	work.standardise()
	// The workspace caches pairwise distances and standardised outputs once;
	// every Nelder–Mead evaluation below is then a scalar transform plus one
	// packed factorisation into reused buffers.
	ws := newFitWS(work)
	pack := func() []float64 {
		h := g.cov.hyper()
		h = append(h, math.Log(g.noiseT))
		if g.hasSource {
			h = append(h, math.Log(g.noiseS))
		}
		if fitTransfer {
			h = append(h, math.Log(g.a), math.Log(g.b))
		}
		return h
	}
	unpackInto := func(t *GP, h []float64) {
		nc := 1 + len(t.cov.Len)
		t.cov.setHyper(h[:nc])
		i := nc
		// The outputs are standardised, so 1e-4 is a 1%-of-σ noise floor: it
		// keeps the posterior honest when few points make "noise-free" fits
		// look attractive.
		t.noiseT = clampExp(h[i], 1e-4, 1e2)
		i++
		if t.hasSource {
			t.noiseS = clampExp(h[i], 1e-4, 1e2)
			i++
		}
		if fitTransfer {
			t.a = clampExp(h[i], 1e-4, 1e3)
			t.b = clampExp(h[i+1], 1e-4, 1e3)
		}
	}
	obj := func(h []float64) float64 {
		unpackInto(work, h)
		if work.cov.Var > 1e4 || work.cov.Var < 1e-6 {
			return math.Inf(1)
		}
		// Inputs live in the normalised [0,1]^d parameter space, so
		// lengthscales far outside it are degenerate extrapolators.
		for _, l := range work.cov.Len {
			if l > 8 || l < 0.02 {
				return math.Inf(1)
			}
		}
		// Weak log-normal priors guard against the overconfident optima
		// (huge variance, tiny noise) that small active-learning training
		// sets invite; they barely move well-identified fits.
		penalty := 0.0
		for _, l := range work.cov.Len {
			d := (math.Log(l) - math.Log(0.7)) / 1.2
			penalty += 0.5 * d * d
		}
		dv := math.Log(work.cov.Var) / 2.0
		penalty += 0.5 * dv * dv
		return nlml(ws, work) + penalty
	}
	// Multi-start: the marginal-likelihood surface is shallow along the
	// transfer-dissimilarity direction, so a single simplex run can stall
	// with a mediocre rho. Restart from the current parameters and from a
	// "tasks are similar" initialisation, keep the best.
	starts := [][]float64{pack()}
	if fitTransfer {
		saveA, saveB := g.a, g.b
		g.a, g.b = 0.01, 1
		starts = append(starts, pack())
		g.a, g.b = saveA, saveB
	}
	// Reserve part of the budget to re-run the simplex from the best point
	// found: a restart re-inflates the collapsed simplex and reliably walks
	// the remaining shallow directions (noise, dissimilarity).
	per := opts.MaxEvals / (len(starts) + 1)
	bestV := math.Inf(1)
	var best []float64
	for _, s := range starts {
		x, v := NelderMead(obj, s, 0.5, per)
		if v < bestV {
			bestV = v
			best = x
		}
	}
	if x, v := NelderMead(obj, best, 0.25, opts.MaxEvals-per*len(starts)); v < bestV {
		best = x
	}
	unpackInto(g, best)
	return g.Rebuild()
}

func clampExp(logv, lo, hi float64) float64 {
	v := math.Exp(logv)
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
