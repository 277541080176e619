package gp

import (
	"math"
	"sort"

	"ppatuner/internal/mat"
	"ppatuner/internal/simd"
)

// sparseFitWS is the scratch space behind SparseGP's NLML loop. It mirrors
// fitWS for the DTC objective: the inducing set is frozen at construction
// (selected under the entry lengthscales, so the objective is continuous in
// the hyper-parameters) and the hyper-independent squared differences between
// training and inducing inputs are cached once. Each evaluation is then the
// Woodbury form of the DTC marginal likelihood,
//
//	log det(Q_ff + Λ) = log det Λ + log det B,   B = I + Σ_i c_i v_i v_iᵀ
//	yᵀ(Q_ff + Λ)⁻¹ y  = Σ_i c_i y_i² − ‖L_B⁻¹ z‖²,  z = Σ_i c_i y_i v_i
//
// with v_i = L_m⁻¹ k_u(x_i) and c_i = 1/λ_i, at O(n·m²) per evaluation and
// zero allocation in the hot loop. Memory is O(n·m·d) for the distance cache.
type sparseFitWS struct {
	n, ns   int
	m, uSrc int

	// squu caches the packed inducing pairs, squf the training×inducing
	// pairs [i*m+r], both laid out by Cov.cachePair: dim-major squared
	// differences with ARD lengthscales, raw squared distances otherwise.
	squu, squf []float64

	y              []float64 // standardised per task, training order
	sumY2S, sumY2T float64   // Σ y² per task (for the Λ⁻¹ quadratic)

	kuu  []float64 // packed K_uu workspace
	kfu  []float64 // n×m covariance workspace
	bmat []float64 // packed B workspace
	zvec []float64
	vbuf []float64
	inv2 []float64
	lm   mat.Cholesky
	lb   mat.Cholesky
}

// newSparseFitWS freezes s's inducing set under the current lengthscales and
// caches every hyper-independent quantity. Call s.standardise() first.
func newSparseFitWS(s *SparseGP) (*sparseFitWS, error) {
	n := s.N()
	all := make([][]float64, n)
	for i := range all {
		all[i], _ = s.trainX(i)
	}
	m := s.m
	if m > n {
		m = n
	}
	idx, err := SelectInducing(all, s.cov.Len, m, s.seed)
	if err != nil {
		return nil, err
	}
	// Ascending order = source-first, giving contiguous ρ blocks.
	sort.Ints(idx)
	u := make([][]float64, m)
	uSrc := 0
	for r, i := range idx {
		u[r] = all[i]
		if i < len(s.xs) {
			uSrc++
		}
	}

	w := &sparseFitWS{n: n, ns: len(s.xs), m: m, uSrc: uSrc}
	mp := mat.PackedLen(m)
	w.squu = make([]float64, mp*len(s.cov.Len))
	p := 0
	for i := 0; i < m; i++ {
		for j := 0; j <= i; j++ {
			s.cov.cachePair(w.squu, mp, p, u[i], u[j])
			p++
		}
	}
	w.squf = make([]float64, n*m*len(s.cov.Len))
	for i, xi := range all {
		for r, ur := range u {
			s.cov.cachePair(w.squf, n*m, i*m+r, xi, ur)
		}
	}

	w.y = make([]float64, n)
	for i, yv := range s.ys {
		w.y[i] = (yv - s.yMeanS) / s.yStdS
		w.sumY2S += w.y[i] * w.y[i]
	}
	for j, yv := range s.yt {
		i := len(s.ys) + j
		w.y[i] = (yv - s.yMeanT) / s.yStdT
		w.sumY2T += w.y[i] * w.y[i]
	}

	w.kuu = make([]float64, mp)
	w.kfu = make([]float64, n*m)
	w.bmat = make([]float64, mp)
	w.zvec = make([]float64, m)
	w.vbuf = make([]float64, m)
	w.inv2 = make([]float64, s.dim)
	return w, nil
}

// fillCov rewrites the K_uu and K_fu workspaces for s's current
// hyper-parameters from the cached distances, including the ρ factor on
// cross-task entries and the diagonal jitter on K_uu.
//
//ppalint:noalloc
func (w *sparseFitWS) fillCov(s *SparseGP) {
	m := w.m
	s.cov.fromDist(w.kuu, w.squu, w.inv2)
	s.cov.fromDist(w.kfu, w.squf, w.inv2)
	if s.hasSource {
		if rho := TransferFactor(s.a, s.b); rho != 1 {
			// K_uu: target-inducing rows × source-inducing columns.
			for i := w.uSrc; i < m; i++ {
				off := mat.PackedLen(i)
				seg := w.kuu[off : off+w.uSrc]
				for k := range seg {
					seg[k] *= rho
				}
			}
			// K_fu: source rows cross target-inducing columns; target rows
			// cross source-inducing columns.
			for i := 0; i < w.n; i++ {
				row := w.kfu[i*m : i*m+m]
				if i < w.ns {
					for r := w.uSrc; r < m; r++ {
						row[r] *= rho
					}
				} else {
					for r := 0; r < w.uSrc; r++ {
						row[r] *= rho
					}
				}
			}
		}
	}
	for i := 0; i < m; i++ {
		w.kuu[mat.PackedLen(i)+i] += 1e-8
	}
}

// nlml evaluates the DTC negative log marginal likelihood under s's current
// hyper-parameters, reusing all workspace buffers. Returns +Inf when either
// m×m factorisation fails even with jitter.
//
//ppalint:noalloc
func (w *sparseFitWS) nlml(s *SparseGP) float64 {
	w.fillCov(s)
	m := w.m
	if err := w.lm.FactorizePacked(w.kuu, m, 1e-8, 6); err != nil {
		return math.Inf(1)
	}
	// B starts at identity; z at zero.
	for p := range w.bmat {
		w.bmat[p] = 0
	}
	for i := 0; i < m; i++ {
		w.bmat[mat.PackedLen(i)+i] = 1
	}
	for r := range w.zvec {
		w.zvec[r] = 0
	}
	cS := 1 / s.noiseS
	cT := 1 / s.noiseT
	for i := 0; i < w.n; i++ {
		c := cT
		if i < w.ns {
			c = cS
		}
		w.lm.SolveLInto(w.vbuf, w.kfu[i*m:i*m+m])
		mat.AddScaledOuterPacked(w.bmat, w.vbuf, c)
		simd.Axpy(w.zvec, w.vbuf, c*w.y[i])
	}
	if err := w.lb.FactorizePacked(w.bmat, m, 1e-10, 6); err != nil {
		return math.Inf(1)
	}
	w.lb.SolveLInto(w.vbuf, w.zvec)
	quad := cS*w.sumY2S + cT*w.sumY2T - mat.Dot(w.vbuf, w.vbuf)
	logdet := float64(w.ns)*math.Log(s.noiseS) + float64(w.n-w.ns)*math.Log(s.noiseT) + w.lb.LogDet()
	return 0.5*quad + 0.5*logdet + 0.5*float64(w.n)*log2pi
}
