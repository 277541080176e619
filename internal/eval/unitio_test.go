package eval

import (
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"ppatuner/internal/core"
	"ppatuner/internal/robust"
)

func TestUnitSpecKeyMatchesCampaignUnitKey(t *testing.T) {
	s := miniScenario(t)
	c := &Campaign{Scenario: s, Seeds: []int64{1, 2}, Spaces: Spaces()[:2], Methods: []Method{PPATuner, DAC19}}
	for _, u := range c.Units() {
		if got, want := c.Spec(u).Key(), c.UnitKey(u); got != want {
			t.Fatalf("Spec(%+v).Key() = %q, UnitKey = %q", u, got, want)
		}
	}
}

func TestSpaceByName(t *testing.T) {
	for _, want := range Spaces() {
		got, err := SpaceByName(want.Name)
		if err != nil || got.Name != want.Name || len(got.Metrics) != len(want.Metrics) {
			t.Fatalf("SpaceByName(%q) = %+v, %v", want.Name, got, err)
		}
	}
	if _, err := SpaceByName("Delay-Only"); err == nil {
		t.Fatal("unknown space should error")
	}
}

func TestStandardScenarioUnknown(t *testing.T) {
	if _, err := StandardScenario("Mini"); err == nil {
		t.Fatal("unknown scenario should error")
	}
}

// TestExecuteUnitMatchesCampaign proves every way of running one cell is
// the table's run. On the mini scenario's Power-Delay space, for every
// method and seeds 1–2, these agree bit for bit on HV, ADRS and runs with
// the one-seed campaign's cell: RunMethod; ExecuteUnit, fresh and resumed
// from the start state and half its streamed observations; the single-run
// path of ppatune and fig3 (RunCell on robust.RunKey), fresh and resumed
// from an in-memory checkpoint holding its recorded state and half its
// observations; and, for PPATuner, a no-op Ablation. Resumed runs never
// re-buy a replayed observation, and ExecuteUnit's results assemble into
// the campaign's table.
func TestExecuteUnitMatchesCampaign(t *testing.T) {
	s := miniScenario(t)
	space := Spaces()[1]
	same := func(what string, got, want UnitResult) {
		t.Helper()
		if math.Float64bits(got.HV) != math.Float64bits(want.HV) || math.Float64bits(got.ADRS) != math.Float64bits(want.ADRS) || got.Runs != want.Runs {
			t.Fatalf("%s: %+v, want the campaign's %+v", what, got, want)
		}
	}
	// countFresh fails on a replayed index reaching the tool and counts the
	// calls that do.
	countFresh := func(what string, replay []robust.Observation, n *int) func(core.Evaluator) core.Evaluator {
		return func(ev core.Evaluator) core.Evaluator {
			return func(i int) ([]float64, error) {
				for _, r := range replay {
					if r.Index == i {
						t.Fatalf("%s: replayed index %d evaluated again", what, i)
					}
				}
				*n++
				return ev(i)
			}
		}
	}
	for _, seed := range []int64{1, 2} {
		c := &Campaign{Scenario: s, Seeds: []int64{seed}, Spaces: []ObjSpace{space}}
		table, err := c.Run()
		if err != nil {
			t.Fatal(err)
		}
		units := c.Units()
		results := make([]UnitResult, len(units))
		for x, u := range units {
			row := table.Rows[0][x]
			want := UnitResult{HV: row.HV, ADRS: row.ADRS, Runs: int(row.Runs)}
			spec := c.Spec(u)

			out, err := RunMethod(u.Method, s, space, seed)
			if err != nil {
				t.Fatal(err)
			}
			hv, adrs := Score(s, space, out)
			same(spec.Key()+" RunMethod", UnitResult{HV: hv, ADRS: adrs, Runs: out.Runs}, want)

			var streamed []robust.Observation
			res, end, err := ExecuteUnit(s, space, spec, nil, nil, RunOpts{}, func(o robust.Observation) error {
				streamed = append(streamed, o)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			same(spec.Key()+" ExecuteUnit", res, want)
			if len(end) == 0 || len(streamed) != res.Runs {
				t.Fatalf("%s: end state of %d bytes, %d observations streamed for %d runs", spec.Key(), len(end), len(streamed), res.Runs)
			}
			results[x] = res

			// A "reclaimed" rerun: start state, the first half of the
			// streamed observations as replay. It must stream only the
			// other half and end in the same state.
			start, err := UnitStartState(spec)
			if err != nil {
				t.Fatal(err)
			}
			replay := streamed[:len(streamed)/2]
			fresh := 0
			res2, end2, err := ExecuteUnit(s, space, spec, start, replay, RunOpts{}, func(o robust.Observation) error {
				for _, r := range replay {
					if r.Index == o.Index {
						t.Fatalf("%s: replayed index %d streamed again", spec.Key(), o.Index)
					}
				}
				fresh++
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			same(spec.Key()+" resumed ExecuteUnit", res2, want)
			if string(end2) != string(end) || fresh != len(streamed)-len(replay) {
				t.Fatalf("%s: resumed run streamed %d of %d observations (end state equal: %v)", spec.Key(), fresh, len(streamed)-len(replay), string(end2) == string(end))
			}

			// The single-run path, fresh and resumed.
			ck := robust.NewCampaignCheckpoint("")
			_, res3, _, err := RunCell(s, space, spec, ck, robust.RunKey, nil, RunOpts{})
			if err != nil {
				t.Fatal(err)
			}
			same(spec.Key()+" single run", res3, want)
			state, _ := ck.PartialRandState(robust.RunKey)
			if string(state) != string(start) {
				t.Fatalf("%s: single run recorded a start state other than the unit's", spec.Key())
			}
			obs := ck.PartialObservations(robust.RunKey)
			half := obs[:len(obs)/2]
			resumed := robust.NewCampaignCheckpoint("")
			if err := resumed.StartCell(robust.RunKey, state); err != nil {
				t.Fatal(err)
			}
			for _, o := range half {
				if err := resumed.AddPartialObservation(robust.RunKey, o); err != nil {
					t.Fatal(err)
				}
			}
			fresh = 0
			_, res4, _, err := RunCell(s, space, spec, resumed, robust.RunKey, countFresh(spec.Key()+" resumed single run", half, &fresh), RunOpts{})
			if err != nil {
				t.Fatal(err)
			}
			same(spec.Key()+" resumed single run", res4, want)
			if fresh != len(obs)-len(half) {
				t.Fatalf("%s: resumed single run made %d fresh calls, want %d", spec.Key(), fresh, len(obs)-len(half))
			}

			if u.Method == PPATuner {
				row, err := Ablation(s, space, seed, func(*core.Options) {})
				if err != nil {
					t.Fatal(err)
				}
				same(spec.Key()+" no-op Ablation", UnitResult{HV: row.HV, ADRS: row.ADRS, Runs: int(row.Runs)}, want)
			}
		}
		if got, want := c.Assemble(results).Format(), table.Format(); got != want {
			t.Fatalf("assembled table differs:\n%s\n--- want ---\n%s", got, want)
		}
	}
}

// TestRunCellRestoresRecordedState: a cell's recorded RNG state wins over
// the unit stream's start, so a checkpoint written by another derivation
// resumes the run it was recorded for.
func TestRunCellRestoresRecordedState(t *testing.T) {
	s := miniScenario(t)
	space := Spaces()[1]
	spec := UnitSpec{Scenario: s.Name, Space: space.Name, Method: PPATuner, Seed: 1}
	other := core.NewPCGSource(7, 11)
	state, err := other.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	ck := robust.NewCampaignCheckpoint("")
	if err := ck.StartCell(robust.RunKey, state); err != nil {
		t.Fatal(err)
	}
	got, _, _, err := RunCell(s, space, spec, ck, robust.RunKey, nil, RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := runMethod(PPATuner, s, space, rand.New(other), RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.ParetoIdx, want.ParetoIdx) || got.Runs != want.Runs {
		t.Fatalf("RunCell on a recorded state: %d runs, Pareto %v; the recorded source's run: %d runs, Pareto %v", got.Runs, got.ParetoIdx, want.Runs, want.ParetoIdx)
	}
}

func TestParseSeeds(t *testing.T) {
	cases := []struct {
		spec string
		want []int64
		ok   bool
	}{
		{"3", []int64{1, 2, 3}, true},
		{"1,2,5", []int64{1, 2, 5}, true},
		{"7,", []int64{7}, true},
		{"0", nil, false},
		{"x", nil, false},
		{",", nil, false},
		{"4611686018427387904", nil, false}, // once a makeslice panic
		{"1000000000", nil, false},          // once an 8 GB slice
		{"1,1", nil, false},                 // two units, one checkpoint cell
	}
	for _, tc := range cases {
		got, err := ParseSeeds(tc.spec)
		if tc.ok != (err == nil) {
			t.Errorf("ParseSeeds(%q) error = %v, want ok=%v", tc.spec, err, tc.ok)
			continue
		}
		if !tc.ok {
			continue
		}
		if len(got) != len(tc.want) {
			t.Errorf("ParseSeeds(%q) = %v, want %v", tc.spec, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("ParseSeeds(%q) = %v, want %v", tc.spec, got, tc.want)
				break
			}
		}
	}
}

// FuzzParseSeeds feeds ParseSeeds arbitrary specs. It must never panic. An
// accepted spec names 1 to maxSeeds distinct seeds, and those seeds written
// back as a list, with a trailing comma so one seed stays a list, parse to
// the same slice.
func FuzzParseSeeds(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		seeds, err := ParseSeeds(spec)
		if err != nil {
			return
		}
		if len(seeds) < 1 || len(seeds) > maxSeeds {
			t.Fatalf("ParseSeeds(%q) accepted %d seeds", spec, len(seeds))
		}
		sorted := slices.Clone(seeds)
		slices.Sort(sorted)
		if len(slices.Compact(sorted)) != len(seeds) {
			t.Fatalf("ParseSeeds(%q) = %v repeats a seed", spec, seeds)
		}
		var list strings.Builder
		for _, s := range seeds {
			list.WriteString(strconv.FormatInt(s, 10))
			list.WriteByte(',')
		}
		again, err := ParseSeeds(list.String())
		if err != nil {
			t.Fatalf("ParseSeeds(%q) = %v, but the list %q fails: %v", spec, seeds, list.String(), err)
		}
		if !slices.Equal(again, seeds) {
			t.Fatalf("ParseSeeds(%q) = %v, but the list %q parses to %v", spec, seeds, list.String(), again)
		}
	})
}
