package core

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// skylineMapRef is skyline as it was written before its sums moved into the
// sort keys: the comparator looked both sums up in a map. It is kept as the
// reference the returned order is pinned against.
func skylineMapRef(idx []int, corner [][]float64) []int {
	order := append([]int(nil), idx...)
	sums := make(map[int]float64, len(order))
	for _, i := range order {
		var s float64
		for _, v := range corner[i] {
			s += v
		}
		sums[i] = s
	}
	sort.Slice(order, func(a, b int) bool {
		if sums[order[a]] != sums[order[b]] {
			return sums[order[a]] < sums[order[b]]
		}
		return order[a] < order[b]
	})
	var nd []int
	for _, i := range order {
		dominated := false
		for _, j := range nd {
			if weaklyDominates(corner[j], corner[i]) {
				dominated = true
				break
			}
		}
		if !dominated {
			nd = append(nd, i)
		}
	}
	return nd
}

// bruteSkyline is the O(n²) definition of the minimal set: i survives unless
// some other member of idx weakly dominates it while either differing from
// it or, as an exact duplicate, carrying a lower index (the one kept).
func bruteSkyline(idx []int, corner [][]float64) map[int]bool {
	out := map[int]bool{}
	for _, i := range idx {
		keep := true
		for _, j := range idx {
			if j == i || !weaklyDominates(corner[j], corner[i]) {
				continue
			}
			if !slices.Equal(corner[j], corner[i]) || j < i {
				keep = false
				break
			}
		}
		if keep {
			out[i] = true
		}
	}
	return out
}

// skylineCase draws a pool of n corners in d objectives with small-integer
// coordinates, so duplicate corners and tied coordinate sums are common and
// every sum is exact, and a random subset of the pool in random order as
// the alive set.
func skylineCase(rng *rand.Rand, n, d int) (idx []int, corner [][]float64) {
	corner = make([][]float64, n)
	levels := 2 + rng.Intn(6)
	for i := range corner {
		if i > 0 && rng.Intn(5) == 0 {
			corner[i] = slices.Clone(corner[rng.Intn(i)]) // duplicate corner
			continue
		}
		corner[i] = make([]float64, d)
		for k := range corner[i] {
			corner[i][k] = float64(rng.Intn(levels))
		}
	}
	for _, i := range rng.Perm(n) {
		if rng.Intn(4) != 0 {
			idx = append(idx, i)
		}
	}
	return idx, corner
}

// TestSkylineMatchesBruteForce checks the sorted-sweep skyline against the
// O(n²) minimal-set definition in 2 and 3 objectives, and that it comes back
// in ascending (sum, index) order.
func TestSkylineMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, d := range []int{2, 3} {
		for trial := 0; trial < 400; trial++ {
			idx, corner := skylineCase(rng, 1+rng.Intn(120), d)
			got := skyline(idx, corner)
			want := bruteSkyline(idx, corner)
			if len(got) != len(want) {
				t.Fatalf("d=%d trial=%d: skyline %v, brute force %v", d, trial, got, want)
			}
			for k, i := range got {
				if !want[i] {
					t.Fatalf("d=%d trial=%d: %d (%v) is in the skyline but dominated", d, trial, i, corner[i])
				}
				if k == 0 {
					continue
				}
				sp, s := cornerSum(corner[got[k-1]]), cornerSum(corner[i])
				if sp > s || sp == s && got[k-1] > i {
					t.Fatalf("d=%d trial=%d: skyline order %v is not ascending by (sum, index)", d, trial, got)
				}
			}
		}
	}
}

// TestSkylineOrderMatchesMapReference pins the returned order to the
// map-based reference on inputs where the sort order is delicate: tied
// sums, signed zeros, infinities and NaN sums (which make the comparator
// inconsistent, so only an identical comparison sequence reproduces the
// order), at sizes across sort.Slice's insertion-sort and pdqsort regimes.
func TestSkylineOrderMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	specials := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 1, 1}
	for _, d := range []int{2, 3} {
		for trial := 0; trial < 300; trial++ {
			n := 1 + rng.Intn(300)
			idx, corner := skylineCase(rng, n, d)
			for _, c := range corner {
				for k := range c {
					switch rng.Intn(12) {
					case 0:
						c[k] = specials[rng.Intn(len(specials))]
					case 1:
						c[k] += rng.Float64()
					}
				}
			}
			got, want := skyline(idx, corner), skylineMapRef(idx, corner)
			if !slices.Equal(got, want) {
				t.Fatalf("d=%d trial=%d n=%d: skyline %v, map reference %v", d, trial, n, got, want)
			}
		}
	}
}

func cornerSum(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}
