package benchdata

import (
	"bytes"
	"errors"
	"math"
	"sync"
	"testing"

	"ppatuner/internal/param"
	"ppatuner/internal/pareto"
	"ppatuner/internal/pdtool"
)

// small test dataset shared by tests in this package (generation is the
// expensive part; paper-sized datasets are exercised by the benchmarks).
func testDataset(t *testing.T) *Dataset {
	t.Helper()
	d, err := cached("test-small", func() (*Dataset, error) {
		return Generate("test-small", param.Source2Space(), pdtool.SmallMAC(), GenOptions{Points: 60, Seed: 7})
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestGenerateBasics(t *testing.T) {
	d := testDataset(t)
	if d.N() != 60 {
		t.Fatalf("N = %d, want 60", d.N())
	}
	for i, p := range d.Points {
		if p.QoR.PowerMW <= 0 || p.QoR.DelayNS <= 0 || p.QoR.AreaUm2 <= 0 {
			t.Fatalf("point %d has degenerate QoR %+v", i, p.QoR)
		}
	}
	seen := map[string]bool{}
	for _, p := range d.Points {
		k := p.Config.Key()
		if seen[k] {
			t.Fatal("duplicate configuration in dataset")
		}
		seen[k] = true
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate("a", param.Source2Space(), pdtool.SmallMAC(), GenOptions{Points: 20, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate("b", param.Source2Space(), pdtool.SmallMAC(), GenOptions{Points: 20, Seed: 5, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Points {
		if a.Points[i].Config.Key() != b.Points[i].Config.Key() {
			t.Fatal("configs differ across worker counts")
		}
		if a.Points[i].QoR != b.Points[i].QoR {
			t.Fatal("QoR differ across worker counts")
		}
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := Generate("x", param.Source2Space(), pdtool.SmallMAC(), GenOptions{}); err == nil {
		t.Error("zero point count accepted")
	}
	tiny := param.MustSpace("tiny", []param.Param{{Name: "b", Kind: param.Bool}})
	if _, err := Generate("y", tiny, pdtool.SmallMAC(), GenOptions{Points: 10}); err == nil {
		t.Error("coarse space silently truncated")
	}
}

func TestObjectivesAndGoldenFront(t *testing.T) {
	d := testDataset(t)
	objs := []pdtool.Metric{pdtool.Power, pdtool.Delay}
	vecs := d.Objectives(objs)
	if len(vecs) != d.N() || len(vecs[0]) != 2 {
		t.Fatalf("objectives shape wrong")
	}
	front := d.GoldenFront(objs)
	if len(front) == 0 || len(front) > d.N() {
		t.Fatalf("front size %d out of range", len(front))
	}
	// Every front point must be non-dominated within the dataset.
	for _, f := range front {
		for _, v := range vecs {
			if pareto.Dominates(v, f) {
				t.Fatalf("front point %v dominated by dataset point %v", f, v)
			}
		}
	}
	idx := d.GoldenFrontIndices(objs)
	if len(idx) != len(front) {
		t.Errorf("front indices %d != front points %d", len(idx), len(front))
	}
}

func TestFrontNontrivial(t *testing.T) {
	// The benchmark must exhibit a genuine power/delay conflict: a front
	// with at least 2 distinct points.
	d := testDataset(t)
	front := d.GoldenFront([]pdtool.Metric{pdtool.Power, pdtool.Delay})
	if len(front) < 2 {
		t.Fatalf("power-delay front has %d point(s): no trade-off to tune", len(front))
	}
}

func TestCSVRoundTrip(t *testing.T) {
	d := testDataset(t)
	var buf bytes.Buffer
	if err := d.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf, d.Name, d.Space)
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != d.N() {
		t.Fatalf("round trip N = %d, want %d", back.N(), d.N())
	}
	for i := range d.Points {
		if d.Points[i].Config.Key() != back.Points[i].Config.Key() {
			t.Fatalf("point %d config mismatch", i)
		}
		a, b := d.Points[i].QoR, back.Points[i].QoR
		if math.Abs(a.PowerMW-b.PowerMW) > 1e-6 || math.Abs(a.DelayNS-b.DelayNS) > 1e-6 || math.Abs(a.AreaUm2-b.AreaUm2) > 1e-3 {
			t.Fatalf("point %d QoR mismatch: %+v vs %+v", i, a, b)
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV(bytes.NewBufferString(""), "x", param.Source2Space()); err == nil {
		t.Error("empty CSV accepted")
	}
	if _, err := ReadCSV(bytes.NewBufferString("a,b,c\n1,2,3\n"), "x", param.Source2Space()); err == nil {
		t.Error("wrong column count accepted")
	}
}

// cached builds a dataset once however many callers race for it, and a
// failed build is retried rather than kept.
func TestCachedBuildsOncePerName(t *testing.T) {
	var mu sync.Mutex
	builds := map[string]int{}
	build := func(name string, fail bool) func() (*Dataset, error) {
		return func() (*Dataset, error) {
			mu.Lock()
			defer mu.Unlock()
			builds[name]++
			if fail {
				return nil, errors.New("transient build failure")
			}
			return &Dataset{Name: name}, nil
		}
	}
	t.Cleanup(func() {
		cacheMu.Lock()
		defer cacheMu.Unlock()
		delete(cache, "test-once")
		delete(cache, "test-flaky")
	})

	got := make([]*Dataset, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d, err := cached("test-once", build("test-once", false))
			if err != nil {
				t.Error(err)
			}
			got[i] = d
		}()
	}
	wg.Wait()
	if builds["test-once"] != 1 {
		t.Fatalf("8 concurrent calls built the dataset %d times, want 1", builds["test-once"])
	}
	for _, d := range got {
		if d != got[0] {
			t.Fatal("concurrent calls returned different datasets")
		}
	}

	if _, err := cached("test-flaky", build("test-flaky", true)); err == nil {
		t.Fatal("a failed build returned no error")
	}
	if d, err := cached("test-flaky", build("test-flaky", false)); err != nil || d == nil {
		t.Fatalf("retry after a failed build = (%v, %v), want the dataset", d, err)
	}
	if builds["test-flaky"] != 2 {
		t.Fatalf("flaky dataset built %d times, want 2 (the failure, then the retry)", builds["test-flaky"])
	}
}
