package gp

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"ppatuner/internal/simd"
)

// fitPins holds the SHA-256 of fitPinDigest per (GOARCH, SIMD path,
// GOAMD64 level) triple on which it was recorded. The fit's arithmetic may
// depend on all three: simd.Dot4's assembly fuses the multiply-adds that
// its portable fallback rounds twice, and a compiler may fuse a*b + c in
// the Go code around the kernels at GOAMD64=v3 (Go 1.24 does not, so v1
// and v3 record the same digest). The AVX-512 kernels give the AVX2 ones'
// bits, so both are the "asm" path and check one digest.
var fitPins = map[string]string{
	"amd64/asm/v1":      "55e34ac19cbb2aa45b04de0e30b72fbeaf12794c42c7b1d65e14686c0bb7ea89",
	"amd64/asm/v3":      "55e34ac19cbb2aa45b04de0e30b72fbeaf12794c42c7b1d65e14686c0bb7ea89",
	"amd64/portable/v1": "d3dcb59ad17cfaea462e225e5b1c9b56a0239396dd5bb0e7d1ec7e6f4b4cd237",
}

// simdPath names the path the simd kernels take in this process.
func simdPath() string {
	if simd.Enabled() {
		return "asm"
	}
	return "portable"
}

// fitPinDigest fits PPATuner's surrogate, an RBF ARD transfer GP at
// d = 12, to 200 source and 15 target points with the campaign's fit
// options (400 Nelder–Mead evaluations, each on a 140-point stride
// subsample), and hashes the IEEE bits of the fitted hyper-parameters, the
// NLML on all 215 points and the posterior at eight fresh points.
func fitPinDigest(t *testing.T) string {
	t.Helper()
	const dim = 12
	rng := rand.New(rand.NewSource(24))
	xs, ys, xt, yt := transferSet(rng, 200, 15, dim)
	g := New(RBF, dim, true)
	if err := g.SetSource(xs, ys); err != nil {
		t.Fatal(err)
	}
	if err := g.SetTarget(xt, yt); err != nil {
		t.Fatal(err)
	}
	if err := g.Fit(FitOptions{MaxEvals: 400, Subsample: 140}); err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	var buf [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	put(g.cov.Var)
	for _, l := range g.cov.Len {
		put(l)
	}
	put(g.noiseT)
	put(g.noiseS)
	put(g.a)
	put(g.b)
	put(g.NLML())
	x := make([]float64, dim)
	for i := 0; i < 8; i++ {
		for k := range x {
			x[k] = rng.Float64()
		}
		mu, sd := g.Predict(x)
		put(mu)
		put(sd)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestFitPins holds the transfer GP's likelihood fit bit for bit: a change
// to the order of any sum in the Gram fill, the factorisation, the solves
// or the Nelder–Mead search moves the digest. Only the combinations with a
// recorded digest are checked; the others log their digest and skip.
func TestFitPins(t *testing.T) {
	key := runtime.GOARCH + "/" + simdPath() + "/" + goamd64
	got := fitPinDigest(t)
	want, ok := fitPins[key]
	if !ok {
		t.Skipf("no digest recorded for %s (this build gives %s)", key, got)
	}
	if got != want {
		t.Errorf("%s: digest %s, pinned %s", key, got, want)
	}
}
