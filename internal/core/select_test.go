package core

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// selectBatchFresh is selectBatch as it was before it reused decide's
// skyline and walked the live list: a fresh frontier of the alive
// candidates' optimistic corners and a scan of every candidate's status.
func selectBatchFresh(t *Tuner) []int {
	type cand struct {
		idx int
		d   float64
	}
	inFrontier := map[int]bool{}
	if !t.opt.GlobalSelection {
		for _, i := range skyline(t.aliveIndices(), t.lo) {
			inFrontier[i] = true
		}
	}
	var cands []cand
	for i, s := range t.status {
		if _, done := t.known[i]; s.alive() && !done && (t.opt.GlobalSelection || inFrontier[i]) {
			cands = append(cands, cand{i, t.diameter(i)})
		}
	}
	if len(cands) == 0 {
		for i, s := range t.status {
			if _, done := t.known[i]; s.alive() && !done {
				cands = append(cands, cand{i, t.diameter(i)})
			}
		}
	}
	b := min(t.opt.Batch, len(cands))
	for x := 0; x < b; x++ {
		best := x
		for y := x + 1; y < len(cands); y++ {
			if cands[y].d > cands[best].d {
				best = y
			}
		}
		cands[x], cands[best] = cands[best], cands[x]
	}
	out := make([]int, b)
	for x := range out {
		out[x] = cands[x].idx
	}
	return out
}

// TestSelectionReusesClassificationSkyline drives PPATuner-style tuners
// (source data, 2 and 3 objectives) and a PAL-style one by hand, selecting
// two candidates per iteration. At every selection the frontier decide
// kept must equal a fresh skyline of the alive candidates' optimistic
// corners, and selectBatch's picks must equal selectBatchFresh's.
func TestSelectionReusesClassificationSkyline(t *testing.T) {
	pool := pinPoints(61, 420)
	srcX := pinPoints(62, 150)
	ctx := context.Background()
	for _, tc := range []struct {
		method string
		m      int
	}{{"ppatuner", 2}, {"ppatuner", 3}, {"pal", 2}} {
		opt := Options{NumObjectives: tc.m, InitTarget: 12, Batch: 2, FitMaxEvals: 80, FitSubsample: 60, Rng: rand.New(rand.NewSource(7))}
		setPinStyle(&opt, tc.method, srcX)
		tn, err := New(pool, func(i int) ([]float64, error) { return pinObj(pool[i], tc.m, 0), nil }, opt)
		if err != nil {
			t.Fatal(err)
		}
		if err := tn.initialise(ctx); err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("%s/m%d", tc.method, tc.m)
		iter := 0
		for ; iter < 40; iter++ {
			tn.updateRegions()
			tn.decide()
			if !tn.anyUndecided() {
				break
			}
			fresh := skyline(tn.aliveIndices(), tn.lo)
			if len(fresh) != len(tn.inNdLo) {
				t.Fatalf("%s iteration %d: decide kept %d frontier candidates, a fresh skyline has %d", name, iter, len(tn.inNdLo), len(fresh))
			}
			for _, i := range fresh {
				if !tn.inNdLo[i] {
					t.Fatalf("%s iteration %d: candidate %d is on the fresh skyline but not in decide's", name, iter, i)
				}
			}
			want := selectBatchFresh(tn)
			picks := tn.selectBatch()
			if !slices.Equal(picks, want) {
				t.Fatalf("%s iteration %d: selectBatch picked %v, the fresh reference %v", name, iter, picks, want)
			}
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
		if iter < 10 {
			t.Fatalf("%s: only %d selections checked", name, iter)
		}
	}
}
