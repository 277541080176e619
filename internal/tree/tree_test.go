package tree

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"ppatuner/internal/param"
)

func TestTreeFitsStepFunction(t *testing.T) {
	var x [][]float64
	var y []float64
	for i := 0; i < 100; i++ {
		v := float64(i) / 100
		x = append(x, []float64{v})
		if v < 0.5 {
			y = append(y, 1)
		} else {
			y = append(y, 3)
		}
	}
	tr, err := FitTree(x, y, TreeOptions{MaxDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	if p := tr.Predict([]float64{0.2}); math.Abs(p-1) > 1e-9 {
		t.Errorf("Predict(0.2) = %g, want 1", p)
	}
	if p := tr.Predict([]float64{0.9}); math.Abs(p-3) > 1e-9 {
		t.Errorf("Predict(0.9) = %g, want 3", p)
	}
	if tr.Importance[0] <= 0 {
		t.Error("split feature got no importance")
	}
}

func TestTreeDepthLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var x [][]float64
	var y []float64
	for i := 0; i < 200; i++ {
		x = append(x, []float64{rng.Float64(), rng.Float64()})
		y = append(y, rng.NormFloat64())
	}
	tr, err := FitTree(x, y, TreeOptions{MaxDepth: 3})
	if err != nil {
		t.Fatal(err)
	}
	var depth func(n *Node) int
	depth = func(n *Node) int {
		if n.IsLeaf() {
			return 0
		}
		l, r := depth(n.Left), depth(n.Right)
		if r > l {
			l = r
		}
		return 1 + l
	}
	if d := depth(tr.Root); d > 3 {
		t.Errorf("tree depth %d > 3", d)
	}
}

func TestTreeConstantTarget(t *testing.T) {
	x := [][]float64{{0}, {1}, {2}, {3}}
	y := []float64{5, 5, 5, 5}
	tr, err := FitTree(x, y, TreeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Root.IsLeaf() {
		t.Error("constant target grew splits")
	}
	if p := tr.Predict([]float64{9}); p != 5 {
		t.Errorf("Predict = %g, want 5", p)
	}
}

func TestTreeErrors(t *testing.T) {
	if _, err := FitTree(nil, nil, TreeOptions{}); err == nil {
		t.Error("empty data accepted")
	}
	if _, err := FitTree([][]float64{{1}}, []float64{1, 2}, TreeOptions{}); err == nil {
		t.Error("mismatched lengths accepted")
	}
}

func TestBoostFitsSmoothFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := func(x []float64) float64 { return math.Sin(4*x[0]) + x[1]*x[1] }
	var xs [][]float64
	var ys []float64
	for i := 0; i < 300; i++ {
		x := []float64{rng.Float64(), rng.Float64()}
		xs = append(xs, x)
		ys = append(ys, f(x))
	}
	b, err := FitBoost(xs, ys, BoostOptions{Rounds: 120, LearningRate: 0.15})
	if err != nil {
		t.Fatal(err)
	}
	var mse float64
	for i := 0; i < 100; i++ {
		x := []float64{rng.Float64(), rng.Float64()}
		d := b.Predict(x) - f(x)
		mse += d * d
	}
	mse /= 100
	if mse > 0.02 {
		t.Errorf("boost test MSE = %g, want < 0.02", mse)
	}
}

func TestBoostImportanceFindsRelevantFeature(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	// y depends only on feature 1 out of 4.
	var xs [][]float64
	var ys []float64
	for i := 0; i < 250; i++ {
		x := []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
		xs = append(xs, x)
		ys = append(ys, 3*x[1]+0.01*rng.NormFloat64())
	}
	b, err := FitBoost(xs, ys, BoostOptions{Rounds: 40})
	if err != nil {
		t.Fatal(err)
	}
	imp := b.Importance()
	if len(imp) != 4 {
		t.Fatalf("importance length %d", len(imp))
	}
	for f, v := range imp {
		if f == 1 {
			if v < 0.8 {
				t.Errorf("relevant feature importance %g, want > 0.8", v)
			}
		} else if v > 0.1 {
			t.Errorf("irrelevant feature %d importance %g", f, v)
		}
	}
	// Importances are normalised.
	var sum float64
	for _, v := range imp {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("importance sum = %g, want 1", sum)
	}
}

func TestBoostConstantTarget(t *testing.T) {
	x := [][]float64{{0}, {1}, {2}}
	y := []float64{2, 2, 2}
	b, err := FitBoost(x, y, BoostOptions{Rounds: 10})
	if err != nil {
		t.Fatal(err)
	}
	if p := b.Predict([]float64{5}); math.Abs(p-2) > 1e-9 {
		t.Errorf("Predict = %g, want 2", p)
	}
}

// Property: tree predictions at training points never have worse SSE than
// the constant (mean) model.
func TestQuickTreeBeatsMean(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(60)
		var xs [][]float64
		var ys []float64
		for i := 0; i < n; i++ {
			xs = append(xs, []float64{rng.Float64(), rng.Float64()})
			ys = append(ys, rng.NormFloat64())
		}
		tr, err := FitTree(xs, ys, TreeOptions{MaxDepth: 5})
		if err != nil {
			return false
		}
		var m float64
		for _, v := range ys {
			m += v
		}
		m /= float64(n)
		var sseTree, sseMean float64
		for i := range xs {
			d := tr.Predict(xs[i]) - ys[i]
			sseTree += d * d
			e := m - ys[i]
			sseMean += e * e
		}
		return sseTree <= sseMean+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// refGrow is the grower FitTree and FitBoost replaced, kept as the
// reference the presorted grower must match bit for bit: it sorts every
// feature again at every node with sort.Slice.
func refGrow(t *Tree, x [][]float64, y []float64, idx []int, opt TreeOptions, depth int) *Node {
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
	order := make([]int, len(idx))
	for f := 0; f < opt.NumFeatures; f++ {
		copy(order, idx)
		sort.Slice(order, func(a, b int) bool { return x[order[a]][f] < x[order[b]][f] })
		// Prefix sums over the sorted order for O(n) split evaluation.
		var sumL, sumSqL float64
		var sumR, sumSqR float64
		for _, i := range order {
			sumR += y[i]
			sumSqR += y[i] * y[i]
		}
		nL := 0
		nR := len(order)
		for k := 0; k < len(order)-1; k++ {
			i := order[k]
			sumL += y[i]
			sumSqL += y[i] * y[i]
			sumR -= y[i]
			sumSqR -= y[i] * y[i]
			nL++
			nR--
			if x[order[k]][f] == x[order[k+1]][f] {
				continue // no valid threshold between equal values
			}
			sseL := sumSqL - sumL*sumL/float64(nL)
			sseR := sumSqR - sumR*sumR/float64(nR)
			gain := parentSSE - sseL - sseR
			if gain > bestGain {
				bestGain = gain
				bestF = f
				bestThr = (x[order[k]][f] + x[order[k+1]][f]) / 2
			}
		}
	}
	if bestF < 0 {
		return node
	}
	var left, right []int
	for _, i := range idx {
		if x[i][bestF] <= bestThr {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) == 0 || len(right) == 0 {
		return node
	}
	t.Importance[bestF] += bestGain
	node.Feature = bestF
	node.Threshold = bestThr
	node.Left = refGrow(t, x, y, left, opt, depth+1)
	node.Right = refGrow(t, x, y, right, opt, depth+1)
	return node
}

// refFitTree is FitTree over refGrow.
func refFitTree(x [][]float64, y []float64, opt TreeOptions) *Tree {
	if opt.NumFeatures <= 0 {
		opt.NumFeatures = len(x[0])
	}
	opt.setDefaults()
	t := &Tree{Importance: make([]float64, opt.NumFeatures)}
	idx := make([]int, len(x))
	for i := range idx {
		idx[i] = i
	}
	t.Root = refGrow(t, x, y, idx, opt, 0)
	return t
}

// refFitBoost is FitBoost over refFitTree.
func refFitBoost(x [][]float64, y []float64, opt BoostOptions) *Boost {
	opt.setDefaults()
	opt.Tree.NumFeatures = len(x[0])
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
		tr := refFitTree(x, resid, opt.Tree)
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
			break
		}
	}
	return b
}

// sameTree reports the first difference between two trees: a node's
// Feature, Threshold bits or Value bits, its shape, or an Importance bit.
func sameTree(got, want *Tree) error {
	var walk func(path string, g, w *Node) error
	walk = func(path string, g, w *Node) error {
		switch {
		case g.IsLeaf() != w.IsLeaf():
			return fmt.Errorf("node %q: leaf %v, want %v", path, g.IsLeaf(), w.IsLeaf())
		case g.Feature != w.Feature:
			return fmt.Errorf("node %q: feature %d, want %d", path, g.Feature, w.Feature)
		case math.Float64bits(g.Threshold) != math.Float64bits(w.Threshold):
			return fmt.Errorf("node %q: threshold %v, want %v", path, g.Threshold, w.Threshold)
		case math.Float64bits(g.Value) != math.Float64bits(w.Value):
			return fmt.Errorf("node %q: value %v, want %v", path, g.Value, w.Value)
		case g.IsLeaf():
			return nil
		}
		if err := walk(path+"L", g.Left, w.Left); err != nil {
			return err
		}
		return walk(path+"R", g.Right, w.Right)
	}
	if err := walk("", got.Root, want.Root); err != nil {
		return err
	}
	if len(got.Importance) != len(want.Importance) {
		return fmt.Errorf("%d importances, want %d", len(got.Importance), len(want.Importance))
	}
	for f := range got.Importance {
		if math.Float64bits(got.Importance[f]) != math.Float64bits(want.Importance[f]) {
			return fmt.Errorf("importance[%d] = %v, want %v", f, got.Importance[f], want.Importance[f])
		}
	}
	return nil
}

// tiedInputs draws n rows of six features: two continuous, three taking
// 2, 3 and 16 evenly spaced levels (enum, bool and integer knobs after
// normalisation), and one continuous feature with about one value in five
// copied from an earlier row. The targets lean on the tied features, so
// splits on them win often and their scans add tied values.
func tiedInputs(rng *rand.Rand, n int) ([][]float64, []float64) {
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = []float64{
			rng.Float64(),
			float64(rng.Intn(2)),
			float64(rng.Intn(3)) / 2,
			float64(rng.Intn(16)) / 15,
			rng.Float64(),
			rng.Float64(),
		}
		if i > 0 && rng.Intn(5) == 0 {
			x[i][5] = x[rng.Intn(i)][5]
		}
		y[i] = x[i][1] + x[i][2]*x[i][3] + 0.5*x[i][0] + 0.25*float64(rng.Intn(4))
	}
	return x, y
}

// TestGrowMatchesReference: FitTree and FitBoost grow exactly refGrow's
// trees on inputs that mix continuous and tied features, over sizes that
// span pdqsort's 12-element insertion-sort cut-off and every MaxDepth 1–6
// and MinSamples 2–8. A grower that breaks ties in any other order than
// sort.Slice's (by index, say) changes the prefix sums of the split scans
// and fails here.
func TestGrowMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for _, n := range []int{1, 2, 4, 11, 12, 13, 14, 21, 40, 61, 200} {
		for depth := 1; depth <= 6; depth++ {
			for minSamples := 2; minSamples <= 8; minSamples++ {
				x, y := tiedInputs(rng, n)
				opt := TreeOptions{MaxDepth: depth, MinSamples: minSamples}
				tr, err := FitTree(x, y, opt)
				if err != nil {
					t.Fatal(err)
				}
				if err := sameTree(tr, refFitTree(x, y, opt)); err != nil {
					t.Fatalf("FitTree n=%d depth=%d minSamples=%d: %v", n, depth, minSamples, err)
				}
				bopt := BoostOptions{Rounds: 8, Tree: opt}
				b, err := FitBoost(x, y, bopt)
				if err != nil {
					t.Fatal(err)
				}
				ref := refFitBoost(x, y, bopt)
				if len(b.trees) != len(ref.trees) {
					t.Fatalf("FitBoost n=%d depth=%d minSamples=%d: %d trees, want %d", n, depth, minSamples, len(b.trees), len(ref.trees))
				}
				for r := range b.trees {
					if err := sameTree(b.trees[r], ref.trees[r]); err != nil {
						t.Fatalf("FitBoost n=%d depth=%d minSamples=%d tree %d: %v", n, depth, minSamples, r, err)
					}
				}
			}
		}
	}
}

// boostFixture draws n configurations of a Scenario Two space, normalised
// as the tuners see them: five continuous knobs, two enums, a bool and an
// integer, so four of the nine features repeat values. The target mixes
// every knob.
func boostFixture(space *param.Space, n int) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(7))
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		u := make([]float64, space.Dim())
		for d := range u {
			u[d] = rng.Float64()
		}
		x[i] = space.MustConfig(u).Unit()
		for d, v := range x[i] {
			y[i] += math.Sin(float64(d+1)*v) + 0.1*v*v
		}
	}
	return x, y
}

var boostSink *Boost

// BenchmarkFitBoost times FIST's two fit shapes on Scenario Two: the
// source-importance fit (40 rounds over 200 source points) and a refit
// on the evaluated target points (60 rounds over 41).
func BenchmarkFitBoost(b *testing.B) {
	for _, c := range []struct {
		name   string
		space  *param.Space
		n      int
		rounds int
	}{
		{"source200x40", param.Source2Space(), 200, 40},
		{"target41x60", param.Target2Space(), 41, 60},
	} {
		x, y := boostFixture(c.space, c.n)
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m, err := FitBoost(x, y, BoostOptions{Rounds: c.rounds})
				if err != nil {
					b.Fatal(err)
				}
				boostSink = m
			}
		})
	}
}
