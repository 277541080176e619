package gp

import (
	"math/rand"
	"testing"
)

// mustPanic fails unless fn panics.
func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	fn()
}

// TestKeepPoolMatchesFullCache builds two GPs from the same data and pool.
// One keeps every candidate's cache; the other is restricted by KeepPool to
// a random live set that shrinks before every step. The steps interleave
// AddTarget at 1, 2 and 7 workers, a refit and AddTarget's rebuild fallback,
// and after each one every kept candidate's PredictPool and PredictPool4
// must equal the full cache's bit for bit. The 203-candidate pool leaves
// the live list's shards every mix of four-candidate groups and singles.
// A released candidate must then panic in PredictPool and PredictPool4,
// and KeepPool must panic on a candidate that is not kept.
func TestKeepPoolMatchesFullCache(t *testing.T) {
	const dim = 4
	rng := rand.New(rand.NewSource(27))
	xs, ys, xt, yt := transferSet(rng, 30, 12, dim)
	point := func() []float64 {
		x := make([]float64, dim)
		for k := range x {
			x[k] = rng.Float64()
		}
		return x
	}
	pool := make([][]float64, 203)
	for p := range pool {
		pool[p] = point()
	}
	build := func() *GP {
		g := New(RBF, dim, true)
		g.ReserveAdds(8)
		if err := g.SetSource(xs, ys); err != nil {
			t.Fatal(err)
		}
		if err := g.SetTarget(xt, yt); err != nil {
			t.Fatal(err)
		}
		if err := g.Fit(FitOptions{MaxEvals: 40}); err != nil {
			t.Fatal(err)
		}
		if err := g.AttachPool(pool); err != nil {
			t.Fatal(err)
		}
		return g
	}
	full, kept := build(), build()
	live := make([]int, len(pool))
	for p := range live {
		live[p] = p
	}
	check := func(stage string) {
		t.Helper()
		for _, p := range live {
			wm, ws := full.PredictPool(p)
			if m, s := kept.PredictPool(p); !sameBits(m, wm) || !sameBits(s, ws) {
				t.Fatalf("%s, candidate %d: kept cache (%v, %v), full cache (%v, %v)", stage, p, m, s, wm, ws)
			}
		}
		n := len(live)
		for s := range live {
			p := [4]int{live[s], live[(s+3)%n], live[(s+1)%n], live[s]}
			wm, ws := full.PredictPool4(p)
			if m, sd := kept.PredictPool4(p); m != wm || sd != ws {
				t.Fatalf("%s, candidates %v: kept cache (%v, %v), full cache (%v, %v)", stage, p, m, sd, wm, ws)
			}
		}
	}
	drop := rand.New(rand.NewSource(28))
	for step := 0; step < 12; step++ {
		next := []int{}
		for _, p := range live {
			if drop.Intn(6) != 0 {
				next = append(next, p)
			}
		}
		live = next
		kept.KeepPool(live)
		check("after KeepPool")
		workers := []int{1, 2, 7}[step%3]
		full.SetWorkers(workers)
		kept.SetWorkers(workers)
		x := point()
		for _, g := range []*GP{full, kept} {
			switch step {
			case 4:
				if err := g.Fit(FitOptions{MaxEvals: 40}); err != nil {
					t.Fatal(err)
				}
			case 8:
				// A fitted noise floor keeps every real extension positive
				// definite, so a negative target noise for this one add
				// makes the duplicate's extension fail and AddTarget fall
				// back to a full rebuild.
				noise, chol := g.noiseT, g.chol
				g.noiseT = -1e-3
				if err := g.AddTarget(xt[0], yt[0]); err != nil {
					t.Fatal(err)
				}
				g.noiseT = noise
				if g.chol == chol {
					t.Fatal("the duplicate add extended the factor instead of rebuilding it")
				}
			default:
				if err := g.AddTarget(x, fTest(x)); err != nil {
					t.Fatal(err)
				}
			}
		}
		check("after step")
	}
	if len(live) < 5 || len(live) == len(pool) {
		t.Fatalf("%d of %d candidates kept; the test needs a partial live set of at least one group and a single", len(live), len(pool))
	}
	released := 0
	for _, p := range live {
		if p != released {
			break
		}
		released++
	}
	mustPanic(t, "PredictPool on a released candidate", func() { kept.PredictPool(released) })
	mustPanic(t, "PredictPool4 on a released candidate", func() { kept.PredictPool4([4]int{live[0], released, live[0], live[0]}) })
	mustPanic(t, "KeepPool with a released candidate", func() { kept.KeepPool([]int{released}) })
	mustPanic(t, "KeepPool out of order", func() { kept.KeepPool([]int{live[1], live[0]}) })
	mustPanic(t, "KeepPool past the pool", func() { kept.KeepPool([]int{len(pool)}) })
}
