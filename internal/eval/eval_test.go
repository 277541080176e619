package eval

import (
	"math"
	"strings"
	"sync"
	"testing"

	"ppatuner/internal/benchdata"
	"ppatuner/internal/core"
	"ppatuner/internal/param"
	"ppatuner/internal/pdtool"
)

var (
	miniOnce sync.Once
	miniScn  *Scenario
	miniErr  error
)

// miniScenario is a scaled-down Scenario Two: same spaces and designs, far
// fewer points, so harness tests stay fast (paper-sized runs live in the
// benchmarks).
func miniScenario(t *testing.T) *Scenario {
	t.Helper()
	miniOnce.Do(func() {
		src, err := benchdata.Generate("mini-src", param.Source2Space(), pdtool.SmallMAC(), benchdata.GenOptions{Points: 120, Seed: 51})
		if err != nil {
			miniErr = err
			return
		}
		tgt, err := benchdata.Generate("mini-tgt", param.Target2Space(), pdtool.SmallMAC(), benchdata.GenOptions{Points: 100, Seed: 52})
		if err != nil {
			miniErr = err
			return
		}
		miniScn = &Scenario{
			Name: "Mini", Source: src, Target: tgt,
			SourceN: 60, InitFrac: 0.08,
			Budgets: map[Method]int{TCAD19: 40, MLCAD19: 30, DAC19: 45, ASPDAC20: 30, PPATuner: 35},
		}
	})
	if miniErr != nil {
		t.Fatal(miniErr)
	}
	return miniScn
}

func TestSpacesAndMethods(t *testing.T) {
	sp := Spaces()
	if len(sp) != 3 {
		t.Fatalf("%d objective spaces, want 3", len(sp))
	}
	if sp[2].Name != "Area-Power-Delay" || len(sp[2].Metrics) != 3 {
		t.Errorf("third space wrong: %+v", sp[2])
	}
	ms := Methods()
	if len(ms) != 5 || ms[len(ms)-1] != PPATuner {
		t.Errorf("methods = %v, want 5 ending in PPATuner", ms)
	}
}

func TestRunMethodAllMethods(t *testing.T) {
	s := miniScenario(t)
	space := Spaces()[1] // Power-Delay
	for _, m := range Methods() {
		out, err := RunMethod(m, s, space, 1)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if len(out.ParetoIdx) == 0 {
			t.Errorf("%s: empty Pareto set", m)
		}
		if out.Runs <= 0 || out.Runs > s.Target.N() {
			t.Errorf("%s: runs = %d", m, out.Runs)
		}
		hv, adrs := Score(s, space, out)
		if math.IsNaN(hv) || math.IsInf(hv, 0) || hv < 0 || hv > 1 {
			t.Errorf("%s: hv error = %g", m, hv)
		}
		if math.IsNaN(adrs) || adrs < 0 {
			t.Errorf("%s: ADRS = %g", m, adrs)
		}
	}
}

// TestAblationNoOpMatchesRunMethod: Ablation mutates a copy of the options
// RunMethod runs PPATuner with, so without a mutation it is the same run.
func TestAblationNoOpMatchesRunMethod(t *testing.T) {
	s := miniScenario(t)
	space := Spaces()[1]
	for _, seed := range []int64{1, 2} {
		row, err := Ablation(s, space, seed, func(*core.Options) {})
		if err != nil {
			t.Fatal(err)
		}
		out, err := RunMethod(PPATuner, s, space, seed)
		if err != nil {
			t.Fatal(err)
		}
		hv, adrs := Score(s, space, out)
		if math.Float64bits(row.HV) != math.Float64bits(hv) || math.Float64bits(row.ADRS) != math.Float64bits(adrs) || row.Runs != float64(out.Runs) {
			t.Errorf("seed %d: Ablation HV %v ADRS %v runs %v, RunMethod HV %v ADRS %v runs %d", seed, row.HV, row.ADRS, row.Runs, hv, adrs, out.Runs)
		}
	}
}

func TestRunMethodUnknown(t *testing.T) {
	s := miniScenario(t)
	if _, err := RunMethod(Method("nope"), s, Spaces()[0], 1); err == nil {
		t.Error("unknown method accepted")
	}
}

func TestScorePerfectApproximation(t *testing.T) {
	s := miniScenario(t)
	space := Spaces()[0]
	out := &Outcome{ParetoIdx: s.Target.GoldenFrontIndices(space.Metrics)}
	hv, adrs := Score(s, space, out)
	if hv > 1e-9 || adrs > 1e-9 {
		t.Errorf("golden set scored (%g, %g), want (0, 0)", hv, adrs)
	}
}

// A campaign cell is the mean of its seeds' runs.
func TestCellAveragesSeeds(t *testing.T) {
	s := miniScenario(t)
	space := Spaces()[0]
	seeds := []int64{1, 2}
	tbl, err := (&Campaign{Scenario: s, Seeds: seeds, Spaces: []ObjSpace{space}, Methods: []Method{MLCAD19}}).Run()
	if err != nil {
		t.Fatal(err)
	}
	var hv, adrs, runs float64
	for _, seed := range seeds {
		out, err := RunMethod(MLCAD19, s, space, seed)
		if err != nil {
			t.Fatal(err)
		}
		h, a := Score(s, space, out)
		hv, adrs, runs = hv+h, adrs+a, runs+float64(out.Runs)
	}
	n := float64(len(seeds))
	if row := tbl.Rows[0][0]; row.Method != MLCAD19 || row.HV != hv/n || row.ADRS != adrs/n || row.Runs != runs/n {
		t.Errorf("row = %+v, want the seed means HV %v ADRS %v runs %v", row, hv/n, adrs/n, runs/n)
	}
}

func TestBuildTableAndFormat(t *testing.T) {
	s := miniScenario(t)
	tbl, err := (&Campaign{Scenario: s, Seeds: []int64{3}}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("table has %d space rows", len(tbl.Rows))
	}
	for _, rows := range tbl.Rows {
		if len(rows) != 5 {
			t.Fatalf("row has %d methods", len(rows))
		}
	}
	avg := tbl.Averages()
	if len(avg) != 5 {
		t.Fatalf("averages length %d", len(avg))
	}
	text := tbl.Format()
	for _, want := range []string{"PPATuner", "TCAD'19", "MLCAD'19", "DAC'19", "ASPDAC'20", "Average", "Ratio", "Area-Power-Delay"} {
		if !strings.Contains(text, want) {
			t.Errorf("formatted table missing %q", want)
		}
	}
}

// TestPPATunerCompetitiveOnMini: on the miniature scenario's Power-Delay
// space, PPATuner's mean HV error and ADRS over seeds 5–7 must each stay
// at or under 0.15 — a cheap guard on front quality that the full-size
// benchmarks validate properly.
func TestPPATunerCompetitiveOnMini(t *testing.T) {
	s := miniScenario(t)
	space := Spaces()[1]
	tbl, err := (&Campaign{Scenario: s, Seeds: []int64{5, 6, 7}, Spaces: []ObjSpace{space}, Methods: []Method{PPATuner}}).Run()
	if err != nil {
		t.Fatal(err)
	}
	rowP := tbl.Rows[0][0]
	// On a 100-point pool any method with half the pool as budget can find
	// the whole front, so compare against an absolute quality bar instead of
	// the baselines.
	if rowP.HV > 0.15 {
		t.Errorf("PPATuner HV %.3f on the mini scenario, want <= 0.15", rowP.HV)
	}
	if rowP.ADRS > 0.15 {
		t.Errorf("PPATuner ADRS %.3f on the mini scenario, want <= 0.15", rowP.ADRS)
	}
}

func TestSafeDiv(t *testing.T) {
	if safeDiv(4, 2) != 2 || safeDiv(1, 0) != 0 {
		t.Error("safeDiv wrong")
	}
}
