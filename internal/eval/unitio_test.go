package eval

import (
	"slices"
	"strconv"
	"strings"
	"testing"

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

// TestExecuteUnitMatchesCampaign proves the wire-form execution path is the
// in-process one: for every unit of a mini campaign, ExecuteUnit from a
// fresh state reproduces Campaign.Run's cell bit-for-bit, and resuming from
// streamed observations midway through reproduces it again.
func TestExecuteUnitMatchesCampaign(t *testing.T) {
	s := miniScenario(t)
	c := &Campaign{Scenario: s, Seeds: []int64{1}, Spaces: Spaces()[:1], Methods: []Method{DAC19, PPATuner}}
	table, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}

	units := c.Units()
	results := make([]UnitResult, len(units))
	for i, u := range units {
		spec := c.Spec(u)
		space, err := SpaceByName(spec.Space)
		if err != nil {
			t.Fatal(err)
		}
		var streamed []robust.Observation
		res, end, err := ExecuteUnit(s, space, spec, nil, nil, RunOpts{}, func(o robust.Observation) error {
			streamed = append(streamed, o)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(end) == 0 {
			t.Fatal("no end state returned")
		}
		if len(streamed) == 0 {
			t.Fatal("no observations streamed")
		}
		results[i] = res

		// A "reclaimed" rerun: fresh start state, the first half of the
		// streamed observations as replay. It must neither re-stream the
		// replayed half nor change the result.
		start, err := UnitStartState(spec)
		if err != nil {
			t.Fatal(err)
		}
		replay := streamed[:len(streamed)/2]
		fresh := 0
		res2, end2, err := ExecuteUnit(s, space, spec, start, replay, RunOpts{}, func(o robust.Observation) error {
			for _, r := range replay {
				if r.Index == o.Index {
					t.Fatalf("replayed index %d streamed again", o.Index)
				}
			}
			fresh++
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if res2 != res {
			t.Fatalf("resumed unit %s: result %+v != %+v", spec.Key(), res2, res)
		}
		if string(end2) != string(end) {
			t.Fatalf("resumed unit %s: end state differs", spec.Key())
		}
		if fresh == 0 && len(streamed) > 1 {
			t.Fatalf("resumed unit %s streamed nothing fresh", spec.Key())
		}
	}

	// The assembled table from ExecuteUnit results matches Campaign.Run's.
	if got, want := c.Assemble(results).Format(), table.Format(); got != want {
		t.Fatalf("assembled table differs:\n%s\n--- want ---\n%s", got, want)
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
