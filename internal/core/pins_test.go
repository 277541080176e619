package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"ppatuner/internal/simd"
)

// pinObj is a 6-knob problem with up to three conflicting objectives. The
// source task tilts the first objective along knob 1, the way a related
// design shifts one QoR metric, so the transfer GP has a real ρ to learn.
func pinObj(x []float64, m int, tilt float64) []float64 {
	y := []float64{
		x[0] + 0.3*x[1]*x[2] + 0.2*math.Sin(4*x[3]+x[4]) + 0.1*x[5] + tilt*x[1],
		1 - x[0] + 0.3*(1-x[1])*(1-x[1]) + 0.2*math.Cos(3*x[2]-2*x[5]) + 0.1*x[4],
		(x[0]-0.5)*(x[0]-0.5) + 0.5*x[3] + 0.2*math.Sin(5*x[1]-x[4]),
	}
	return y[:m]
}

func pinPoints(seed int64, n int) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = make([]float64, 6)
		for d := range pts[i] {
			pts[i][d] = rng.Float64()
		}
	}
	return pts
}

// simdPath names the path the simd kernels take in this process.
func simdPath() string {
	if simd.Enabled() {
		return "asm"
	}
	return "portable"
}

// tunerPinsAmd64 holds the digests of every recorded amd64 key: the asm
// and portable paths gave the same bits at GOAMD64 v1 and v3.
var tunerPinsAmd64 = map[string]string{
	"ppatuner/m2/seed1": "41cb0509182c79abc89ed7037b672aa4fca84ce9a5b583500f1b8f5e343acc6c",
	"ppatuner/m2/seed2": "23d03f1f41888fa664ecdefa7deaa6c704fae1afee0fce27c3b9017253b85202",
	"ppatuner/m2/seed3": "cbe90bd6277ce0e638375c71c6123e83553133b92b9825696be46e741a3c10e7",
	"ppatuner/m2/seed4": "86fa1105de60a883fa22bd29abab5a7a55715b51611f13e2bb9010c5b523df2d",
	"ppatuner/m3/seed1": "f3dda5e300bd72d7fb660377e053dc7118821e173ca27d57e5aa66a874272ddf",
	"ppatuner/m3/seed2": "0c892100fc5d25e8bbb672f76427d2a3616e787eb898923048ce517a73f85be5",
	"ppatuner/m3/seed3": "64751c4388051d52590f31042917deca7328cfd70d0a3e09070048064e1939ee",
	"ppatuner/m3/seed4": "491f7abb1ff91d62157047ac223d5bc23a8e1c8767da20a092035362db0edd30",
	"pal/m2/seed1":      "9231ed1ed0d3b1feb182a3088fa24efe61e101c1acb8b91748e142828fc87a83",
	"pal/m2/seed2":      "0cc3be52d4a918f8c41c7dc5abcc3b61ba7968069beb52921dead52637a9bef0",
	"pal/m2/seed3":      "1693a5e82ff4dd64307693eb45953239ded6236176fa48e402bde0e7bb6af9e3",
	"pal/m2/seed4":      "d2ac849dfd3aa8cdf2555e0bdd3cea6a81880bc44864c38a12fb11b9623ea1a7",
	"pal/m3/seed1":      "a958134742e97097c06b7e09ffb7b964b28382a35de889d73dcbcb15921cfca1",
	"pal/m3/seed2":      "82d3daf45bca85ba072a66478e67ecbfab0e5abee1dd1eebf31fe102733b48d5",
	"pal/m3/seed3":      "95b6cf7e3898a77aa1445cfe28bcc12c84708c7d6272d7cf26fd6d3a785e3da6",
	"pal/m3/seed4":      "9a139ad66d97ced141ea2e76ab918838929a88bd61589742baa42040c8c885f5",
}

// tunerPins holds SHA-256(EvaluatedIdx ‖ ParetoIdx ‖ Rho bits) per run and
// per (GOARCH, SIMD path, GOAMD64 level) key, as TestFitPins keys its
// digest: the GP's kernels and the compiler's fusing of a*b + c may change
// the posterior's last bits, and with them a PAL decision. They were
// recorded from the tuner that kept every candidate's pool cache and swept
// the whole pool.
var tunerPins = map[string]map[string]string{
	"amd64/asm/v1":      tunerPinsAmd64,
	"amd64/asm/v3":      tunerPinsAmd64,
	"amd64/portable/v1": tunerPinsAmd64,
	"amd64/portable/v3": tunerPinsAmd64,
}

// setPinStyle sets opt's PPATuner-style fields (source data from srcX,
// ARD, frontier selection) or its PAL-style ones (GlobalSelection, no
// source, as the TCAD'19 baseline runs core).
func setPinStyle(opt *Options, method string, srcX [][]float64) {
	switch method {
	case "ppatuner":
		opt.ARD = true
		opt.SourceX = srcX
		opt.SourceY = make([][]float64, opt.NumObjectives)
		for _, x := range srcX {
			for k, v := range pinObj(x, opt.NumObjectives, 0.3) {
				opt.SourceY[k] = append(opt.SourceY[k], v)
			}
		}
	case "pal":
		opt.GlobalSelection = true
		opt.DeltaFrac = 0.015
	}
}

// tunerPinRun runs one pinned configuration over a 420-candidate pool and
// returns the run's digest and its tuner.
func tunerPinRun(t *testing.T, pool, srcX [][]float64, method string, m int, seed int64) (string, *Tuner) {
	t.Helper()
	opt := Options{
		NumObjectives: m,
		InitTarget:    12,
		MaxIter:       70,
		FitMaxEvals:   120,
		FitSubsample:  80,
		Workers:       1 + int(seed%2),
		Rng:           rand.New(rand.NewSource(seed)),
	}
	setPinStyle(&opt, method, srcX)
	tn, err := New(pool, func(i int) ([]float64, error) { return pinObj(pool[i], m, 0), nil }, opt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tn.Run()
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, i := range res.EvaluatedIdx {
		fmt.Fprintf(h, "%d,", i)
	}
	fmt.Fprint(h, "|")
	for _, i := range res.ParetoIdx {
		fmt.Fprintf(h, "%d,", i)
	}
	fmt.Fprint(h, "|")
	for _, r := range res.Rho {
		h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(r)))
	}
	return hex.EncodeToString(h.Sum(nil)), tn
}

// requireReleased fails unless the run released some candidates' pool
// caches, so the pins cannot pass on a tuner that never shrinks its live
// set: a released candidate must be outside the live list and panic in
// every GP's PredictPool.
func requireReleased(t *testing.T, name string, tn *Tuner) {
	t.Helper()
	dead := -1
	for i := range tn.pool {
		if _, ok := slices.BinarySearch(tn.live, i); !ok {
			dead = i
			break
		}
	}
	if dead < 0 {
		t.Fatalf("%s: no candidate left the live list (%d of %d live)", name, len(tn.live), len(tn.pool))
	}
	for k, g := range tn.gps {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: objective %d: PredictPool(%d) on a released candidate did not panic", name, k, dead)
				}
			}()
			g.PredictPool(dead)
		}()
	}
}

// TestTunerOutputPins pins what PPATuner and PAL select and report: the
// evaluation order, the predicted front and the learned ρ of 16 runs (two
// styles, 2 and 3 objectives, seeds 1–4, workers 1 and 2). Any change to
// which candidates the region sweep predicts, to the decision rules, to
// the selection or to the GP's arithmetic moves a digest. Only keys with
// recorded digests are checked; the others log their digests and skip.
func TestTunerOutputPins(t *testing.T) {
	pool := pinPoints(61, 420)
	srcX := pinPoints(62, 150)
	key := runtime.GOARCH + "/" + simdPath() + "/" + goamd64
	want, recorded := tunerPins[key]
	for _, method := range []string{"ppatuner", "pal"} {
		for _, m := range []int{2, 3} {
			for seed := int64(1); seed <= 4; seed++ {
				name := fmt.Sprintf("%s/m%d/seed%d", method, m, seed)
				got, tn := tunerPinRun(t, pool, srcX, method, m, seed)
				requireReleased(t, name, tn)
				if !recorded {
					t.Logf("%q: %q,", name, got)
				} else if got != want[name] {
					t.Errorf("%s %s: digest %s, pinned %s", key, name, got, want[name])
				}
			}
		}
	}
	if !recorded {
		t.Skipf("no digests recorded for %s", key)
	}
}
