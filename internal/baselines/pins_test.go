package baselines_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"ppatuner/internal/baselines/fist"
	"ppatuner/internal/baselines/recsys"
)

// pinObj is a 6-parameter problem with up to three conflicting objectives.
// It uses only arithmetic, sin and cos, which Go computes without assembly
// on amd64 and arm64, so the digests below do not depend on the host's
// SIMD level.
func pinObj(x []float64, m int) []float64 {
	y := []float64{
		x[0] + 0.3*x[1]*x[2] + 0.2*math.Sin(4*x[3]+x[4]) + 0.1*x[5],
		1 - x[0] + 0.3*(1-x[1])*(1-x[1]) + 0.2*math.Cos(3*x[2]-2*x[5]) + 0.1*x[4],
		(x[0]-0.5)*(x[0]-0.5) + 0.5*x[3] + 0.2*math.Sin(5*x[1]-x[4]),
	}
	return y[:m]
}

func pinPool() [][]float64 {
	rng := rand.New(rand.NewSource(31))
	pool := make([][]float64, 320)
	for i := range pool {
		pool[i] = make([]float64, 6)
		for d := range pool[i] {
			pool[i][d] = rng.Float64()
		}
	}
	return pool
}

// quantise snaps knobs 1, 2 and 4 of x to 2, 3 and 16 evenly spaced levels
// in [0, 1], the way enum, bool and integer knobs normalise, so those
// features repeat values and the trees' split scans meet ties.
func quantise(x []float64) []float64 {
	for _, q := range [...]struct {
		d      int
		levels float64
	}{{1, 2}, {2, 3}, {4, 16}} {
		x[q.d] = math.Min(math.Floor(x[q.d]*q.levels), q.levels-1) / (q.levels - 1)
	}
	return x
}

// pinDigest hashes EvaluatedIdx ‖ ParetoIdx.
func pinDigest(evaluated, front []int) string {
	h := sha256.New()
	for _, i := range evaluated {
		fmt.Fprintf(h, "%d,", i)
	}
	fmt.Fprint(h, "|")
	for _, i := range front {
		fmt.Fprintf(h, "%d,", i)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// outputPins holds SHA-256(EvaluatedIdx ‖ ParetoIdx) per run, recorded
// from the version that re-predicted the whole pool at every step; the
// per-retrain prediction caches must reproduce every one. The fist-q
// (quantised pool) digests were recorded from the tree grower that sorted
// every feature at every node with sort.Slice, at GOAMD64 v1 and v3 alike.
var outputPins = map[string]string{
	"fist/m2/seed1":   "9e6f40fb980fe7c7e738027bae97d4a522c962397d4ce2724ac995eeaeac73ca",
	"fist/m2/seed2":   "35f5dedf95466efd1b9aa4ece46b31d3f1ff63871ff21fac527c17e70acc8f97",
	"fist/m2/seed3":   "fa3df2f70ae7bc393aba409994f41caa5901c9a638f829825cfac10883a20f85",
	"fist/m2/seed4":   "6324e21356660bd4ec3809ffbc1e37b4734d3a972ee75c6f4b132add52ba7f7a",
	"fist/m2/seed5":   "80576d43ce6a906c94a958d2b3f4221a8a08b288cc3ee8c4574b36957cec275e",
	"fist/m2/seed6":   "4258a466931071a32f6bbb51e69147bc7bf5bade78750f715bea36dce1b4c309",
	"fist/m2/seed7":   "914f21129cce08803c9f75cb78d310b8af85a30e08dc9c5cdb7c3561cbdab053",
	"fist/m2/seed8":   "e6e9804b8721f9e09411c1df1af9c19504fe06cf9a94d68280397e7dbd5f4577",
	"fist/m3/seed1":   "bd8519529c5ab2a650fb08a0e0fed1ecf05dd06e6e1f7462b9d587fd3548f261",
	"fist/m3/seed2":   "f7fd9d7d4136452b855a3286d0821bd74ef635a0b6fb9070f0fa426861fbe62e",
	"fist/m3/seed3":   "ee5dad8946d52fb0ef7962493b34ffd507095e99d083b07657bea2e69a3585fc",
	"fist/m3/seed4":   "bee2be548f364f8e2f1985ea96c97a67825e0dd0877ed9aead53cb07762a7a9c",
	"fist/m3/seed5":   "7c6f2d355c3fcd9a7fc2857f593f3196f4bfeb5e714657c909f4623462c4d371",
	"fist/m3/seed6":   "c4571d60773f7bf87c129e61d342aed8e2d1f8255f69256287f0dc5d5a301ac2",
	"fist/m3/seed7":   "de69af2e322aaa0d25b9ab59863bed2c94f8d2a232f9e5275a011017bd815cc8",
	"fist/m3/seed8":   "36017d96e6a0b1f98d10bda9f67c72d6ad3df9f5be7498427d2dc2af909f7170",
	"fist-q/m2/seed1": "d91f5bc24a85548a39f27b5c5d30117af73d8657fa191a8668a595a99aeff282",
	"fist-q/m2/seed2": "242a8a42b222cff815444f6702ca58f0bc67e59a8e8f081527868675b71cad68",
	"fist-q/m2/seed3": "efc8abef89accb7c04de0729cb2237d52e6ec53651a16a8a1aea69f6a725c955",
	"fist-q/m2/seed4": "91d2327d1e154d67756216a1b6ab690e165dc116f8e46058649c0258740ff8dd",
	"fist-q/m2/seed5": "79117317b36857bd53bc63608e330e87a5739681902ae0f238a37ee529e3b6bc",
	"fist-q/m2/seed6": "78779fda4d3ded201267de55eb67c23e7289537f8bac9ced45954efb2d0087e1",
	"fist-q/m2/seed7": "2a9d792fa403ca791f12c0cd80365307ae294fc1d76ca45d117867c6177ff195",
	"fist-q/m2/seed8": "919620d620c26f5c722208b06071ac34fd2d5ced7328940083d985f74cee640c",
	"fist-q/m3/seed1": "67360b9eb941c4380618701efb600c48b9458b01d7cf8f52720335907c34b434",
	"fist-q/m3/seed2": "4c649743c5ab708d3bf67e8b20cf3b3c3071b0535b3554cb324c6c6e5d8a03bb",
	"fist-q/m3/seed3": "2228c48e868b3f362e6c9591124118738335ea5b9b9e05de93311fdaa9edf726",
	"fist-q/m3/seed4": "965a39434736ea998085665906cf739850e7d21dbad63b4a2f47c4293cacf63f",
	"fist-q/m3/seed5": "214ab0d6f03c2918d5e7833dda382fa883e5de00e98e2b89307a68be0029b79e",
	"fist-q/m3/seed6": "8d30649f8df0cba0f46ad33aee5eda21397b837126edcff33127db654e83c339",
	"fist-q/m3/seed7": "baa61af8a016fdd74e16c00766a51eed014ba91eba1c9bec9318eb474f64a894",
	"fist-q/m3/seed8": "fb473191682a449dd72d9fcf56dadb553f8bac5bbae172c3576b354acba42e13",
	"recsys/m2/seed1": "110d6e81dbb3afd803f2e5e6992704ae294ee82b817f19bbec2cece21693a2ca",
	"recsys/m2/seed2": "1cf2256292d1fd1c5050d1293db335b60b590ba03c6ae9a74deecb86764db979",
	"recsys/m2/seed3": "d8e2d12ac01aa100a3c2c3c46d6639073218656c6265adf6edbe5ad75b5c7856",
	"recsys/m2/seed4": "1deeddca5c755c06e94641e647602803bff5f3d8e63842af648a5a59647eae5f",
	"recsys/m2/seed5": "f10d27b7d3d074c17822b96a4222976f4216794746f92470b26ac4215f5a737f",
	"recsys/m2/seed6": "ebba233eeaea7139f112d944a4c8a8c5fc45fea4c01620d9fbf951f592dea932",
	"recsys/m2/seed7": "b168a45d9430eba8214c11217b4729d619ce545794364f125d5d77ee04831ae3",
	"recsys/m2/seed8": "922163c76ed2062dc3ef0c7fd1219bd9b84c6fc55e18a01675ab3a40d6e7a646",
	"recsys/m3/seed1": "9b843827780be09f22cedd2d11141d5d7a12efe186819a8626df050d6833088a",
	"recsys/m3/seed2": "e0d9b3ce03426baeec360db8de535f6cb6599a0d188664adad7e1112c0792877",
	"recsys/m3/seed3": "0eaa78d841aa8fef142ac20da1417eaed22e0a59b1d5ce811e914c2a632d6905",
	"recsys/m3/seed4": "cbd2404e9a41c5192bd8e6ba5edeaca3dffaa6d4fa65f0ca4454719824afdb2c",
	"recsys/m3/seed5": "33dfc179f18b22d82f4358bbce850a120df3cd9aad1f0c25c12ac09cc0bd7219",
	"recsys/m3/seed6": "51fe5ae552e1d9b6ca9c6f81b64a00843d5f904595290f58fa4c49d148365561",
	"recsys/m3/seed7": "223700ad47ad104eea72c482e8c5db640e0540858d66858884dd162cbdd279d5",
	"recsys/m3/seed8": "a35e10c61e6f0a06b5a2f85b68f05375493193c26c236a0be728b314bf3108d5",
}

// TestBaselineOutputPins pins the evaluation order and reported front of
// the DAC'19 recommender and the ASPDAC'20 FIST tuner, seeds 1–8, with two
// and three objectives. A budget of 90 leaves recsys 78 model-guided steps
// (7 retrains) and FIST 63 (6 refits), so both the ε-exploration and the
// exploitation branch run between retrains. FIST gets source data on odd
// seeds (importance from the source, as eval wires it) and none on even
// seeds (importance learned at the first refit).
//
// Every pool and source feature above is continuous, so no split scan sees
// a tie. The fist-q runs repeat the FIST runs on a pool whose knobs
// 1, 2 and 4 take 2, 3 and 16 levels (quantise), so the trees' split scans
// sum tied values in the sort's order, and a grower that breaks ties by
// index moves two of their digests.
//
// Any change to the models' floating-point operations, to the RNG draws or
// to which predictions a sweep reads moves these digests.
func TestBaselineOutputPins(t *testing.T) {
	pool := pinPool()
	qpool := pinPool()
	for _, x := range qpool {
		quantise(x)
	}
	got := map[string]string{}
	for _, m := range []int{2, 3} {
		evalm := func(i int) ([]float64, error) { return pinObj(pool[i], m), nil }
		evalq := func(i int) ([]float64, error) { return pinObj(qpool[i], m), nil }
		srcRng := rand.New(rand.NewSource(41))
		var srcX, srcQX [][]float64
		srcY := make([][]float64, m)
		srcQY := make([][]float64, m)
		for i := 0; i < 150; i++ {
			x := make([]float64, 6)
			for d := range x {
				x[d] = srcRng.Float64()
			}
			srcX = append(srcX, x)
			for k, v := range pinObj(x, m) {
				srcY[k] = append(srcY[k], v)
			}
			qx := quantise(slices.Clone(x))
			srcQX = append(srcQX, qx)
			for k, v := range pinObj(qx, m) {
				srcQY[k] = append(srcQY[k], v)
			}
		}
		for seed := int64(1); seed <= 8; seed++ {
			rs, err := recsys.Run(pool, evalm, recsys.Options{NumObjectives: m, Budget: 90, Rng: rand.New(rand.NewSource(seed))})
			if err != nil {
				t.Fatal(err)
			}
			got[fmt.Sprintf("recsys/m%d/seed%d", m, seed)] = pinDigest(rs.EvaluatedIdx, rs.ParetoIdx)
			fo := fist.Options{NumObjectives: m, Budget: 90, Rng: rand.New(rand.NewSource(seed))}
			if seed%2 == 1 {
				fo.SourceX, fo.SourceY = srcX, srcY
			}
			fr, err := fist.Run(pool, evalm, fo)
			if err != nil {
				t.Fatal(err)
			}
			got[fmt.Sprintf("fist/m%d/seed%d", m, seed)] = pinDigest(fr.EvaluatedIdx, fr.ParetoIdx)
			fq := fist.Options{NumObjectives: m, Budget: 90, Rng: rand.New(rand.NewSource(seed))}
			if seed%2 == 1 {
				fq.SourceX, fq.SourceY = srcQX, srcQY
			}
			fr, err = fist.Run(qpool, evalq, fq)
			if err != nil {
				t.Fatal(err)
			}
			got[fmt.Sprintf("fist-q/m%d/seed%d", m, seed)] = pinDigest(fr.EvaluatedIdx, fr.ParetoIdx)
		}
	}
	for _, k := range sortedKeys(got) {
		if outputPins[k] != got[k] {
			t.Errorf("%s: digest %s, want %s", k, got[k], outputPins[k])
		}
	}
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
