package core

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// updateRegionsPerCandidate is the region sweep as it was before the
// four-candidate batches: one PredictPool call per alive, unevaluated
// candidate and objective, serially, writing into lo and hi. It is the
// reference the batched, sharded sweep must match bit for bit.
func updateRegionsPerCandidate(t *Tuner, lo, hi [][]float64) {
	beta := math.Sqrt(t.opt.Tau)
	for i := range t.pool {
		if !t.status[i].alive() {
			continue
		}
		if y, ok := t.known[i]; ok {
			copy(lo[i], y)
			copy(hi[i], y)
			continue
		}
		for k, g := range t.gps {
			mu, sd := g.PredictPool(i)
			l := mu - beta*sd
			h := mu + beta*sd
			if l > lo[i][k] {
				lo[i][k] = l
			}
			if h < hi[i][k] {
				hi[i][k] = h
			}
			if lo[i][k] > hi[i][k] {
				m := (lo[i][k] + hi[i][k]) / 2
				lo[i][k] = m
				hi[i][k] = m
			}
		}
	}
}

func cloneRegions(r [][]float64) [][]float64 {
	out := make([][]float64, len(r))
	for i, v := range r {
		out[i] = append([]float64(nil), v...)
	}
	return out
}

// TestRegionSweepMatchesPerCandidate drives a tuner through its first
// iterations by hand. Before each region update it runs the per-candidate
// reference over the whole pool on a copy of the regions, then the batched
// sweep over the live list at Workers 1, 2 and 7, and requires
// bitwise-equal regions for every candidate. After each decide the live
// list must be exactly the alive, unevaluated candidates, and the
// evaluations and pool-cache updates that follow run at Workers 1, 2 and 7
// in turn. The 203-candidate pool, with evaluated and dropped candidates
// interleaved, leaves every shard a different mix of full batches and a
// remainder.
func TestRegionSweepMatchesPerCandidate(t *testing.T) {
	pool := synthPool(rand.New(rand.NewSource(51)), 203)
	opt := defaultOpts(rand.New(rand.NewSource(52)))
	opt.Batch = 3
	tn, err := New(pool, poolEval(pool, synthObj, nil), opt)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := tn.initialise(ctx); err != nil {
		t.Fatal(err)
	}
	for iter := 0; iter < 8; iter++ {
		lo0, hi0 := cloneRegions(tn.lo), cloneRegions(tn.hi)
		wantLo, wantHi := cloneRegions(lo0), cloneRegions(hi0)
		updateRegionsPerCandidate(tn, wantLo, wantHi)
		for _, w := range []int{1, 2, 7} {
			tn.lo, tn.hi = cloneRegions(lo0), cloneRegions(hi0)
			tn.opt.Workers = w
			tn.updateRegions()
			for i := range pool {
				for k := range tn.lo[i] {
					if !sameBits(tn.lo[i][k], wantLo[i][k]) || !sameBits(tn.hi[i][k], wantHi[i][k]) {
						t.Fatalf("iteration %d, workers %d, candidate %d, objective %d: region [%v, %v], per-candidate [%v, %v]",
							iter, w, i, k, tn.lo[i][k], tn.hi[i][k], wantLo[i][k], wantHi[i][k])
					}
				}
			}
		}
		tn.decide()
		if want := aliveUnevaluated(tn); !slices.Equal(tn.live, want) {
			t.Fatalf("iteration %d: live list %v after decide, want the alive, unevaluated %v", iter, tn.live, want)
		}
		if !tn.anyUndecided() {
			break
		}
		tn.opt.Workers = []int{1, 2, 7}[iter%3]
		for _, g := range tn.gps {
			g.SetWorkers(tn.opt.Workers)
		}
		picks := tn.selectBatch()
		if len(picks) == 0 {
			break
		}
		if err := tn.observeBatch(ctx, picks); err != nil {
			t.Fatal(err)
		}
		if err := tn.maybeRefit(); err != nil {
			t.Fatal(err)
		}
	}
	dropped := 0
	for _, s := range tn.status {
		if s == Dropped {
			dropped++
		}
	}
	if len(tn.known) == 0 || dropped == 0 {
		t.Fatalf("the sweep saw %d evaluated and %d dropped candidates; the test needs both", len(tn.known), dropped)
	}
}

// aliveUnevaluated lists, in ascending order, the candidates still in the
// race that the tool has not evaluated.
func aliveUnevaluated(t *Tuner) []int {
	var out []int
	for i, s := range t.status {
		if _, done := t.known[i]; s.alive() && !done {
			out = append(out, i)
		}
	}
	return out
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
