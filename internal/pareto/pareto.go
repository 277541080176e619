// Package pareto implements the multi-objective machinery of the paper:
// dominance tests, Pareto-front extraction, exact hyper-volume computation,
// the hyper-volume error of Eq. (2) and the ADRS indicator of Eq. (3).
//
// All objectives are minimised, matching the paper's QoR metrics (power,
// delay, area — smaller is better).
package pareto

import (
	"fmt"
	"math"
	"sort"
)

// Dominates reports whether point a dominates point b in minimisation:
// a ≤ b componentwise with at least one strict inequality.
func Dominates(a, b []float64) bool {
	if len(a) != len(b) {
		panic(fmt.Sprintf("pareto: dimension mismatch %d vs %d", len(a), len(b)))
	}
	strict := false
	for i := range a {
		if a[i] > b[i] {
			return false
		}
		if a[i] < b[i] {
			strict = true
		}
	}
	return strict
}

// WeaklyDominates reports a ≤ b componentwise (ties allowed everywhere).
func WeaklyDominates(a, b []float64) bool {
	if len(a) != len(b) {
		panic(fmt.Sprintf("pareto: dimension mismatch %d vs %d", len(a), len(b)))
	}
	for i := range a {
		if a[i] > b[i] {
			return false
		}
	}
	return true
}

// Front returns the indices of the non-dominated points of pts, in input
// order. Duplicate non-dominated points are all kept (they do not dominate
// each other).
func Front(pts [][]float64) []int {
	var front []int
	for i, p := range pts {
		dominated := false
		for j, q := range pts {
			if i == j {
				continue
			}
			if Dominates(q, p) {
				dominated = true
				break
			}
		}
		if !dominated {
			front = append(front, i)
		}
	}
	return front
}

// FrontKeys returns the keys of pts whose points no other point dominates,
// in ascending order. The tuners keep their evaluations keyed by pool
// index; sorting first makes the reported front independent of map order.
func FrontKeys(pts map[int][]float64) []int {
	keys := make([]int, 0, len(pts))
	for i := range pts {
		keys = append(keys, i)
	}
	sort.Ints(keys)
	var front []int
	for _, i := range keys {
		dominated := false
		for _, j := range keys {
			if i != j && Dominates(pts[j], pts[i]) {
				dominated = true
				break
			}
		}
		if !dominated {
			front = append(front, i)
		}
	}
	return front
}

// FrontPoints returns copies of the non-dominated points themselves.
func FrontPoints(pts [][]float64) [][]float64 {
	idx := Front(pts)
	out := make([][]float64, len(idx))
	for i, j := range idx {
		out[i] = append([]float64(nil), pts[j]...)
	}
	return out
}

// Hypervolume returns the Lebesgue measure of the region dominated by pts
// and bounded above by ref (minimisation: every point must be ≤ ref in all
// coordinates to contribute). Points beyond the reference are clipped out.
// Exact algorithms are used for 2-D and 3-D; higher dimensions fall back to
// the recursive WFG-style exclusive-volume computation.
func Hypervolume(pts [][]float64, ref []float64) float64 {
	d := len(ref)
	var filtered [][]float64
	for _, p := range pts {
		if len(p) != d {
			panic(fmt.Sprintf("pareto: point dim %d, ref dim %d", len(p), d))
		}
		if WeaklyDominates(p, ref) {
			filtered = append(filtered, p)
		}
	}
	if len(filtered) == 0 {
		return 0
	}
	nd := FrontPoints(filtered)
	switch d {
	case 1:
		best := nd[0][0]
		for _, p := range nd {
			if p[0] < best {
				best = p[0]
			}
		}
		return ref[0] - best
	case 2:
		return hv2(nd, ref)
	case 3:
		return hv3(nd, ref)
	default:
		return hvWFG(nd, ref)
	}
}

// hv2 computes the 2-D hyper-volume by a sorted sweep.
func hv2(pts [][]float64, ref []float64) float64 {
	sort.Slice(pts, func(i, j int) bool {
		if pts[i][0] != pts[j][0] {
			return pts[i][0] < pts[j][0]
		}
		return pts[i][1] < pts[j][1]
	})
	var vol float64
	prevY := ref[1]
	for _, p := range pts {
		if p[1] < prevY {
			vol += (ref[0] - p[0]) * (prevY - p[1])
			prevY = p[1]
		}
	}
	return vol
}

// hv3 slices the 3-D volume along the z axis: between consecutive z values
// the dominated xy-region is the union over points with smaller-or-equal z.
func hv3(pts [][]float64, ref []float64) float64 {
	sort.Slice(pts, func(i, j int) bool { return pts[i][2] < pts[j][2] })
	var vol float64
	var active [][]float64
	for i := 0; i < len(pts); i++ {
		active = append(active, pts[i])
		zLo := pts[i][2]
		zHi := ref[2]
		if i+1 < len(pts) {
			zHi = pts[i+1][2]
		}
		if zHi <= zLo {
			continue
		}
		area := hv2(projectXY(active), ref[:2])
		vol += area * (zHi - zLo)
	}
	return vol
}

func projectXY(pts [][]float64) [][]float64 {
	out := make([][]float64, len(pts))
	for i, p := range pts {
		out[i] = []float64{p[0], p[1]}
	}
	// The union of rectangles only depends on the non-dominated projection.
	return FrontPoints(out)
}

// hvWFG computes hyper-volume by the exclusive-contribution recursion:
// hv(S) = Σ_i exclusive(p_i, {p_{i+1}..}) with exclusive computed as
// box(p_i) − hv of the set limited to p_i.
func hvWFG(pts [][]float64, ref []float64) float64 {
	if len(pts) == 0 {
		return 0
	}
	var vol float64
	for i, p := range pts {
		vol += exclusiveVol(p, pts[i+1:], ref)
	}
	return vol
}

func exclusiveVol(p []float64, rest [][]float64, ref []float64) float64 {
	box := 1.0
	for i := range p {
		box *= ref[i] - p[i]
	}
	if len(rest) == 0 {
		return box
	}
	// Limit the rest set to the region dominated by p.
	limited := make([][]float64, len(rest))
	for i, q := range rest {
		lq := make([]float64, len(q))
		for j := range q {
			lq[j] = math.Max(q[j], p[j])
		}
		limited[i] = lq
	}
	return box - hvWFG(FrontPoints(limited), ref)
}

// HVError computes the hyper-volume error of Eq. (2):
// e = (H(P) − H(P̂)) / H(P), with P the golden front and P̂ the
// approximation, both measured against ref.
func HVError(golden, approx [][]float64, ref []float64) float64 {
	hg := Hypervolume(golden, ref)
	if hg == 0 {
		return 0
	}
	ha := Hypervolume(approx, ref)
	return (hg - ha) / hg
}

// ADRS computes the average distance from reference set of Eq. (3):
// for each golden point a, the minimum over approximation points p̂ of the
// worst relative coordinate error max_i |(a_i − p̂_i)/a_i|, averaged over
// the golden set.
func ADRS(golden, approx [][]float64) float64 {
	if len(golden) == 0 {
		return 0
	}
	if len(approx) == 0 {
		return math.Inf(1)
	}
	var sum float64
	for _, a := range golden {
		best := math.Inf(1)
		for _, p := range approx {
			if d := deltaRel(a, p); d < best {
				best = d
			}
		}
		sum += best
	}
	return sum / float64(len(golden))
}

// deltaRel is δ(a, p̂) = max_i |(a_i − p̂_i) / a_i|.
func deltaRel(a, p []float64) float64 {
	if len(a) != len(p) {
		panic(fmt.Sprintf("pareto: dimension mismatch %d vs %d", len(a), len(p)))
	}
	var worst float64
	for i := range a {
		den := math.Abs(a[i])
		if den == 0 {
			den = 1e-12
		}
		if d := math.Abs(a[i]-p[i]) / den; d > worst {
			worst = d
		}
	}
	return worst
}

// ReferencePoint returns a reference point for hyper-volume computation: the
// componentwise maximum of pts inflated by margin (e.g. 0.1 for 10%). The
// whole offline dataset is passed so golden and approximated fronts are
// measured against the same box.
func ReferencePoint(pts [][]float64, margin float64) []float64 {
	if len(pts) == 0 {
		return nil
	}
	d := len(pts[0])
	ref := make([]float64, d)
	lo := make([]float64, d)
	for i := range ref {
		ref[i] = math.Inf(-1)
		lo[i] = math.Inf(1)
	}
	for _, p := range pts {
		for i := range p {
			if p[i] > ref[i] {
				ref[i] = p[i]
			}
			if p[i] < lo[i] {
				lo[i] = p[i]
			}
		}
	}
	for i := range ref {
		span := ref[i] - lo[i]
		if span == 0 {
			span = math.Abs(ref[i])
			if span == 0 {
				span = 1
			}
		}
		ref[i] += margin * span
	}
	return ref
}
