package eval

import (
	"math/rand"
	"testing"

	"ppatuner/internal/pdtool"
)

// TestScenarioBudgetsMatchPaperBands: the per-method budgets encode the
// paper's reported run counts (Tables 2 and 3) — a regression guard on the
// experimental protocol itself. Building the scenarios is expensive, so the
// budgets are duplicated here rather than pulled from ScenarioOne().
func TestScenarioBudgetsMatchPaperBands(t *testing.T) {
	one := map[Method]int{TCAD19: 510, MLCAD19: 400, DAC19: 600, ASPDAC20: 400, PPATuner: 260}
	two := map[Method]int{TCAD19: 95, MLCAD19: 70, DAC19: 130, ASPDAC20: 70, PPATuner: 65}
	// Paper bands (±10%): Table 2 runs 508/400/600/400/252; Table 3 runs
	// 92/70/131/70/62.
	paper1 := map[Method]float64{TCAD19: 508, MLCAD19: 400, DAC19: 600, ASPDAC20: 400, PPATuner: 252}
	paper2 := map[Method]float64{TCAD19: 92, MLCAD19: 70, DAC19: 131, ASPDAC20: 70, PPATuner: 62}
	for m, b := range one {
		if f := float64(b) / paper1[m]; f < 0.9 || f > 1.1 {
			t.Errorf("Scenario One %s budget %d outside ±10%% of paper's %g", m, b, paper1[m])
		}
	}
	for m, b := range two {
		if f := float64(b) / paper2[m]; f < 0.9 || f > 1.1 {
			t.Errorf("Scenario Two %s budget %d outside ±10%% of paper's %g", m, b, paper2[m])
		}
	}
}

// TestSourceSliceEncodesIntoTargetSpace: the historical data fed to transfer
// methods must be expressed in target-space coordinates.
func TestSourceSliceEncodesIntoTargetSpace(t *testing.T) {
	s := miniScenario(t)
	rng := rand.New(unitSource(UnitSpec{Scenario: s.Name, Space: "Power-Delay", Method: PPATuner, Seed: 9})) // a unit's stream, as runMethod draws it
	x, y := sourceSlice(s, []pdtool.Metric{pdtool.Power, pdtool.Delay}, rng)
	if len(x) != s.SourceN {
		t.Fatalf("source slice has %d points, want %d", len(x), s.SourceN)
	}
	if len(y) != 2 || len(y[0]) != s.SourceN {
		t.Fatalf("source outputs shape wrong")
	}
	dim := s.Target.Space.Dim()
	for i, xi := range x {
		if len(xi) != dim {
			t.Fatalf("source point %d has dim %d, want target dim %d", i, len(xi), dim)
		}
	}
	for k := range y {
		for _, v := range y[k] {
			if v <= 0 {
				t.Fatal("non-positive QoR in source slice")
			}
		}
	}
}

// TestScoreEmptyOutcome: an empty prediction scores worst-case, not NaN.
func TestScoreEmptyOutcome(t *testing.T) {
	s := miniScenario(t)
	hv, adrs := Score(s, Spaces()[0], &Outcome{})
	if hv != 1 {
		t.Errorf("empty outcome HV error = %g, want 1", hv)
	}
	if adrs <= 0 {
		t.Errorf("empty outcome ADRS = %g, want > 0 (infinite)", adrs)
	}
}

// TestRunMethodDeterministicPerSeed: the harness itself must not introduce
// nondeterminism.
func TestRunMethodDeterministicPerSeed(t *testing.T) {
	s := miniScenario(t)
	space := Spaces()[1]
	for _, m := range []Method{PPATuner, MLCAD19} {
		a, err := RunMethod(m, s, space, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, err := RunMethod(m, s, space, 7)
		if err != nil {
			t.Fatal(err)
		}
		if a.Runs != b.Runs || len(a.ParetoIdx) != len(b.ParetoIdx) {
			t.Errorf("%s: nondeterministic across identical seeds", m)
		}
	}
}
