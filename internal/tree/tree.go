// Package tree implements CART regression trees and least-squares gradient
// boosting with feature-importance extraction — the model family behind the
// ASPDAC'20 FIST baseline ("feature-importance sampling and tree-based
// method for automatic design flow parameter tuning").
package tree

import (
	"fmt"
	"math"
	"slices"
)

// Node is one node of a regression tree.
type Node struct {
	// Leaf prediction.
	Value float64
	// Split: feature index and threshold; Left covers x[Feature] <= Threshold.
	Feature   int
	Threshold float64
	Left      *Node
	Right     *Node
}

// IsLeaf reports whether the node has no children.
func (n *Node) IsLeaf() bool { return n.Left == nil }

// Tree is a fitted regression tree with importance bookkeeping.
type Tree struct {
	Root *Node
	// Importance[f] is the total squared-error reduction from splits on
	// feature f.
	Importance []float64
}

// TreeOptions bounds tree growth.
type TreeOptions struct {
	MaxDepth    int // default 4
	MinSamples  int // minimum samples to attempt a split (default 4)
	MinGain     float64
	NumFeatures int // required: dimensionality of x
}

func (o *TreeOptions) setDefaults() {
	if o.MaxDepth <= 0 {
		o.MaxDepth = 4
	}
	if o.MinSamples <= 1 {
		o.MinSamples = 4
	}
}

// FitTree grows a CART regression tree on (x, y).
func FitTree(x [][]float64, y []float64, opt TreeOptions) (*Tree, error) {
	if len(x) == 0 || len(x) != len(y) {
		return nil, fmt.Errorf("tree: %d inputs, %d outputs", len(x), len(y))
	}
	if opt.NumFeatures <= 0 {
		opt.NumFeatures = len(x[0])
	}
	opt.setDefaults()
	return newGrower(x, opt).fit(y), nil
}

func mean(y []float64, idx []int) float64 {
	var s float64
	for _, i := range idx {
		s += y[i]
	}
	return s / float64(len(idx))
}

func sse(y []float64, idx []int) float64 {
	m := mean(y, idx)
	var s float64
	for _, i := range idx {
		d := y[i] - m
		s += d * d
	}
	return s
}

// pair is one sample's value of the feature being ordered, and its index.
type pair struct {
	v float64
	i int
}

// byValue orders pairs by value alone, negative exactly where a.v < b.v.
// slices.SortFunc and sort.Slice run the same pdqsort, which tests only
// that sign, so byValue leaves tied values in the order sort.Slice leaves
// them in under the less function a.v < b.v.
func byValue(a, b pair) int {
	switch {
	case a.v < b.v:
		return -1
	case a.v > b.v:
		return 1
	}
	return 0
}

// grower grows every tree of one fit over the inputs x. Each node owns a
// range [lo, hi) of members, its samples in ascending index order, and a
// split partitions that range stably in place, so mean, sse and every
// per-node sort see the members in index order.
//
// A split scan's prefix sums add tied values in the order the sort left
// them, so a node's order of each feature must be the one sort.Slice gives
// over the node's members in index order. Each feature's root order is
// sorted once per fit. A feature that repeats no value has exactly one
// sorted order over any node, so it keeps a list whose node ranges every
// split partitions stably. A feature that repeats a value is sorted again
// at every node below the root, which keeps pdqsort's unstable tie order.
type grower struct {
	x   [][]float64
	opt TreeOptions
	// root[f] is feature f's (value, index) pairs over all samples, sorted
	// by byValue from index order.
	root [][]pair
	// sorted[f], for a feature f that repeats no value, holds node
	// [lo, hi)'s order of f in sorted[f][lo:hi]; nil for the others.
	sorted [][]pair

	// Per-tree state and scratch, allocated once per fit.
	y       []float64
	members []int
	left    []bool // left[i]: sample i goes to the left child of the split
	spill   []int
	pairs   []pair
}

func newGrower(x [][]float64, opt TreeOptions) *grower {
	n, d := len(x), opt.NumFeatures
	g := &grower{
		x:       x,
		opt:     opt,
		root:    make([][]pair, d),
		sorted:  make([][]pair, d),
		members: make([]int, n),
		left:    make([]bool, n),
		spill:   make([]int, n),
		pairs:   make([]pair, n),
	}
	for f := range g.root {
		r := make([]pair, n)
		for i, xi := range x {
			r[i] = pair{xi[f], i}
		}
		slices.SortFunc(r, byValue)
		g.root[f] = r
		unique := true
		for k := 1; k < n && unique; k++ {
			unique = r[k-1].v < r[k].v
		}
		if unique {
			g.sorted[f] = make([]pair, n)
		}
	}
	return g
}

// fit grows one tree on targets y (one per input).
func (g *grower) fit(y []float64) *Tree {
	t := &Tree{Importance: make([]float64, g.opt.NumFeatures)}
	g.y = y
	for i := range g.members {
		g.members[i] = i
	}
	for f, s := range g.sorted {
		if s != nil {
			copy(s, g.root[f])
		}
	}
	t.Root = g.grow(t, 0, len(g.members), 0)
	return t
}

// order returns node [lo, hi)'s (value, index) pairs of feature f in the
// order sort.Slice gives them over the node's members in index order, or
// nil when f is constant over the node and so offers no threshold.
func (g *grower) order(f, lo, hi int) []pair {
	switch {
	case g.sorted[f] != nil:
		return g.sorted[f][lo:hi]
	case hi-lo == len(g.members):
		return g.root[f]
	}
	ps := g.pairs[:0]
	first := g.x[g.members[lo]][f]
	varied := false
	for _, i := range g.members[lo:hi] {
		v := g.x[i][f]
		varied = varied || v != first
		ps = append(ps, pair{v, i})
	}
	if !varied {
		return nil
	}
	slices.SortFunc(ps, byValue)
	return ps
}

func (g *grower) grow(t *Tree, lo, hi, depth int) *Node {
	y, idx, opt := g.y, g.members[lo:hi], &g.opt
	node := &Node{Value: mean(y, idx), Feature: -1}
	if depth >= opt.MaxDepth || len(idx) < opt.MinSamples {
		return node
	}
	parentSSE := sse(y, idx)
	if parentSSE <= 1e-12 {
		return node
	}
	bestGain := opt.MinGain
	bestF, bestThr := -1, 0.0
	for f := 0; f < opt.NumFeatures; f++ {
		order := g.order(f, lo, hi)
		if order == nil {
			continue
		}
		// Prefix sums over the sorted order for O(n) split evaluation.
		var sumL, sumSqL float64
		var sumR, sumSqR float64
		for _, p := range order {
			sumR += y[p.i]
			sumSqR += y[p.i] * y[p.i]
		}
		nL := 0
		nR := len(order)
		for k := 0; k < len(order)-1; k++ {
			i := order[k].i
			sumL += y[i]
			sumSqL += y[i] * y[i]
			sumR -= y[i]
			sumSqR -= y[i] * y[i]
			nL++
			nR--
			if order[k].v == order[k+1].v {
				continue // no valid threshold between equal values
			}
			sseL := sumSqL - sumL*sumL/float64(nL)
			sseR := sumSqR - sumR*sumR/float64(nR)
			gain := parentSSE - sseL - sseR
			if gain > bestGain {
				bestGain = gain
				bestF = f
				bestThr = (order[k].v + order[k+1].v) / 2
			}
		}
	}
	if bestF < 0 {
		return node
	}
	mid := g.split(lo, hi, bestF, bestThr)
	if mid == lo || mid == hi {
		return node
	}
	t.Importance[bestF] += bestGain
	node.Feature = bestF
	node.Threshold = bestThr
	node.Left = g.grow(t, lo, mid, depth+1)
	node.Right = g.grow(t, mid, hi, depth+1)
	return node
}

// split sends node [lo, hi)'s members with x[f] <= thr to [lo, mid) and
// the rest to [mid, hi), both in their previous order, and partitions every
// sorted list the same way. It returns mid, and leaves everything in place
// when one side would be empty.
func (g *grower) split(lo, hi, f int, thr float64) (mid int) {
	mid = lo
	for _, i := range g.members[lo:hi] {
		g.left[i] = g.x[i][f] <= thr
		if g.left[i] {
			mid++
		}
	}
	if mid == lo || mid == hi {
		return mid
	}
	l, r := lo, 0
	for _, i := range g.members[lo:hi] {
		if g.left[i] {
			g.members[l] = i
			l++
		} else {
			g.spill[r] = i
			r++
		}
	}
	copy(g.members[mid:hi], g.spill[:r])
	for _, s := range g.sorted {
		if s == nil {
			continue
		}
		l, r := lo, 0
		for _, p := range s[lo:hi] {
			if g.left[p.i] {
				s[l] = p
				l++
			} else {
				g.pairs[r] = p
				r++
			}
		}
		copy(s[mid:hi], g.pairs[:r])
	}
	return mid
}

// Predict evaluates the tree at x.
func (t *Tree) Predict(x []float64) float64 {
	n := t.Root
	for !n.IsLeaf() {
		if x[n.Feature] <= n.Threshold {
			n = n.Left
		} else {
			n = n.Right
		}
	}
	return n.Value
}

// Boost is a least-squares gradient-boosted ensemble.
type Boost struct {
	base  float64
	trees []*Tree
	rate  float64
	dim   int
}

// BoostOptions configures gradient boosting.
type BoostOptions struct {
	Rounds       int     // number of trees (default 60)
	LearningRate float64 // shrinkage (default 0.1)
	Tree         TreeOptions
}

func (o *BoostOptions) setDefaults() {
	if o.Rounds <= 0 {
		o.Rounds = 60
	}
	if o.LearningRate <= 0 {
		o.LearningRate = 0.1
	}
}

// FitBoost trains the ensemble on (x, y).
func FitBoost(x [][]float64, y []float64, opt BoostOptions) (*Boost, error) {
	if len(x) == 0 || len(x) != len(y) {
		return nil, fmt.Errorf("tree: boost: %d inputs, %d outputs", len(x), len(y))
	}
	opt.setDefaults()
	opt.Tree.NumFeatures = len(x[0])
	opt.Tree.setDefaults()
	g := newGrower(x, opt.Tree)
	b := &Boost{rate: opt.LearningRate, dim: len(x[0])}
	var base float64
	for _, v := range y {
		base += v
	}
	b.base = base / float64(len(y))
	resid := make([]float64, len(y))
	pred := make([]float64, len(y))
	for i := range pred {
		pred[i] = b.base
	}
	for r := 0; r < opt.Rounds; r++ {
		for i := range resid {
			resid[i] = y[i] - pred[i]
		}
		tr := g.fit(resid)
		b.trees = append(b.trees, tr)
		improved := false
		for i := range pred {
			d := b.rate * tr.Predict(x[i])
			pred[i] += d
			if math.Abs(d) > 1e-12 {
				improved = true
			}
		}
		if !improved {
			break // residuals exhausted
		}
	}
	return b, nil
}

// Predict evaluates the ensemble at x.
func (b *Boost) Predict(x []float64) float64 {
	out := b.base
	for _, tr := range b.trees {
		out += b.rate * tr.Predict(x)
	}
	return out
}

// Importance aggregates normalised feature importances over the ensemble.
func (b *Boost) Importance() []float64 {
	imp := make([]float64, b.dim)
	for _, tr := range b.trees {
		for f, v := range tr.Importance {
			imp[f] += v
		}
	}
	var total float64
	for _, v := range imp {
		total += v
	}
	if total > 0 {
		for f := range imp {
			imp[f] /= total
		}
	}
	return imp
}
