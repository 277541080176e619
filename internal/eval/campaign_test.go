package eval

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"ppatuner/internal/core"
	"ppatuner/internal/robust"
)

// The campaign's parallelism is purely a wall-clock knob: any Workers value
// must assemble a byte-identical table and retire a byte-identical
// checkpoint. The 10 units end with two PPATuner units, so at Workers 2, 3
// and 8 the last units also run on the engine workers of idle lanes.
func TestCampaignWorkersBitIdentical(t *testing.T) {
	s := miniScenario(t)
	build := func(workers int) (string, []byte) {
		t.Helper()
		path := filepath.Join(t.TempDir(), "campaign.json")
		ck, err := robust.LoadCampaignCheckpoint(path)
		if err != nil {
			t.Fatal(err)
		}
		c := &Campaign{
			Scenario:   s,
			Seeds:      []int64{1, 2},
			Spaces:     Spaces()[1:2], // Power-Delay
			Workers:    workers,
			Checkpoint: ck,
		}
		tbl, err := c.Run()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := os.Stat(robust.JournalPath(path)); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("workers=%d left the checkpoint journal behind (stat: %v)", workers, err)
		}
		ckBytes, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return tbl.Format(), ckBytes
	}
	serial, serialCk := build(1)
	for _, w := range []int{2, 3, 8} {
		got, gotCk := build(w)
		if got != serial {
			t.Fatalf("workers=%d table differs from serial:\n%s\n----\n%s", w, got, serial)
		}
		if !bytes.Equal(gotCk, serialCk) {
			t.Fatalf("workers=%d retired checkpoint differs from serial:\n%s\n----\n%s", w, gotCk, serialCk)
		}
	}
}

// A lane that is free takes the next unit, whatever the other lane is
// doing: with the first unit blocked, the other lane must run all five
// remaining units. A watchdog releases the block so a scheduler that queues
// units behind the blocked one fails instead of hanging.
func TestCampaignFreeLaneNeverWaits(t *testing.T) {
	c := &Campaign{
		Scenario: miniScenario(t),
		Seeds:    []int64{1, 2, 3},
		Spaces:   Spaces()[1:2], // Power-Delay
		Methods:  []Method{MLCAD19, DAC19},
		Workers:  2,
	}
	first := c.Units()[0]
	var mu sync.Mutex
	finished := 0
	othersDone := make(chan struct{})
	c.OnUnit = func(u Unit, _ UnitResult, _ *Outcome) error {
		if u == first {
			return nil
		}
		mu.Lock()
		defer mu.Unlock()
		if finished++; finished == 5 {
			close(othersDone)
		}
		return nil
	}
	atWatchdog := -1
	var block sync.Once
	c.WrapUnit = func(u Unit, ev core.Evaluator) core.Evaluator {
		if u != first {
			return ev
		}
		return func(i int) ([]float64, error) {
			block.Do(func() {
				select {
				case <-othersDone:
				case <-time.After(20 * time.Second):
					mu.Lock()
					atWatchdog = finished
					mu.Unlock()
				}
			})
			return ev(i)
		}
	}
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if atWatchdog >= 0 {
		t.Fatalf("the watchdog released the blocked first unit with %d of the other 5 units finished: a free lane waited behind a busy one", atWatchdog)
	}
}

// Killing a campaign mid-PPATuner-run and resuming from the checkpoint must
// reproduce the uninterrupted tables byte-for-byte, with the interrupted
// unit's paid-for observations replayed rather than re-bought and completed
// cells never re-executed.
func TestCampaignCrashResumeEquivalence(t *testing.T) {
	s := miniScenario(t)
	seeds := []int64{1}
	spaces := Spaces()[1:2]
	methods := []Method{PPATuner}

	// Uninterrupted reference, no checkpoint at all.
	ref := &Campaign{Scenario: s, Seeds: seeds, Spaces: spaces, Methods: methods}
	refTbl, err := ref.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := refTbl.Format()

	// Crash after 10 fresh tool calls — past the 8 warm-up evaluations, so
	// the checkpoint holds genuine mid-run state.
	path := filepath.Join(t.TempDir(), "campaign.json")
	ck, err := robust.LoadCampaignCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	crashAt := errors.New("simulated crash")
	calls := 0
	crashing := &Campaign{
		Scenario: s, Seeds: seeds, Spaces: spaces, Methods: methods,
		Checkpoint: ck,
		WrapUnit: func(u Unit, ev core.Evaluator) core.Evaluator {
			return func(i int) ([]float64, error) {
				if calls >= 10 {
					return nil, fmt.Errorf("tool down: %w", crashAt)
				}
				calls++
				return ev(i)
			}
		},
	}
	if _, err := crashing.Run(); !errors.Is(err, crashAt) {
		t.Fatalf("crashing campaign returned %v, want the simulated crash", err)
	}
	if calls != 10 {
		t.Fatalf("evaluator saw %d calls before the crash, want 10", calls)
	}

	// The file on disk carries the unit's start RNG state and observations.
	re, err := robust.LoadCampaignCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	key := crashing.UnitKey(Unit{SpaceIdx: 0, Method: PPATuner, Seed: seeds[0]})
	state, observed := re.PartialRandState(key)
	if state == nil {
		t.Fatal("no RNG state persisted for the interrupted unit")
	}
	if observed != 10 {
		t.Fatalf("checkpoint recorded %d observations, want 10", observed)
	}

	// Resume: same campaign, fresh process (fresh checkpoint load), no
	// fault. The replayed observations must cover everything paid for, the
	// fresh calls must start where the crashed run stopped, and the table
	// must match the uninterrupted reference exactly.
	freshCalls := 0
	resumed := &Campaign{
		Scenario: s, Seeds: seeds, Spaces: spaces, Methods: methods,
		Checkpoint: re,
		WrapUnit: func(u Unit, ev core.Evaluator) core.Evaluator {
			return func(i int) ([]float64, error) {
				freshCalls++
				return ev(i)
			}
		},
	}
	tbl, err := resumed.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := tbl.Format(); got != want {
		t.Fatalf("resumed table differs from uninterrupted run:\n%s\n----\n%s", got, want)
	}
	replayed, fresh := re.Stats()
	if replayed != 10 {
		t.Errorf("resume replayed %d observations, want 10", replayed)
	}
	if fresh != freshCalls {
		t.Errorf("checkpoint counted %d fresh evaluations, evaluator saw %d", fresh, freshCalls)
	}
	if freshCalls == 0 {
		t.Error("resume made no fresh calls; the unit cannot have finished at call 10")
	}

	// Re-running against the now-complete checkpoint must not touch the
	// evaluator at all: completed cells are skipped, not replayed.
	finished, err := robust.LoadCampaignCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	rerunCalls := 0
	rerun := &Campaign{
		Scenario: s, Seeds: seeds, Spaces: spaces, Methods: methods,
		Checkpoint: finished,
		WrapUnit: func(u Unit, ev core.Evaluator) core.Evaluator {
			return func(i int) ([]float64, error) {
				rerunCalls++
				return ev(i)
			}
		},
	}
	tbl2, err := rerun.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rerunCalls != 0 {
		t.Errorf("full-checkpoint rerun made %d evaluator calls, want 0", rerunCalls)
	}
	if got := tbl2.Format(); got != want {
		t.Fatalf("full-checkpoint rerun differs:\n%s\n----\n%s", got, want)
	}
}

// A checkpointed campaign and a plain one produce identical tables: the
// checkpoint changes durability, never numbers.
func TestCampaignCheckpointIsTransparent(t *testing.T) {
	s := miniScenario(t)
	seeds := []int64{2}
	spaces := Spaces()[0:1]
	methods := []Method{MLCAD19, PPATuner}

	plain := &Campaign{Scenario: s, Seeds: seeds, Spaces: spaces, Methods: methods}
	ptbl, err := plain.Run()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "campaign.json")
	ck, err := robust.LoadCampaignCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	ckpt := &Campaign{Scenario: s, Seeds: seeds, Spaces: spaces, Methods: methods, Checkpoint: ck}
	ctbl, err := ckpt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if ptbl.Format() != ctbl.Format() {
		t.Fatalf("checkpointed table differs from plain:\n%s\n----\n%s", ctbl.Format(), ptbl.Format())
	}
	if ck.Cells() != len(seeds)*len(spaces)*len(methods) {
		t.Errorf("checkpoint holds %d cells, want %d", ck.Cells(), len(seeds)*len(spaces)*len(methods))
	}
}

func TestCampaignValidation(t *testing.T) {
	if _, err := (&Campaign{Seeds: []int64{1}}).Run(); err == nil {
		t.Error("campaign without scenario accepted")
	}
	if _, err := (&Campaign{Scenario: miniScenario(t)}).Run(); err == nil {
		t.Error("campaign without seeds accepted")
	}
	if _, err := (&Campaign{Scenario: miniScenario(t), Seeds: []int64{1, 2, 1}}).Run(); err == nil {
		t.Error("campaign with a repeated seed accepted")
	}
	sp := Spaces()
	if _, err := (&Campaign{Scenario: miniScenario(t), Seeds: []int64{1}, Spaces: []ObjSpace{sp[0], sp[1], sp[0]}}).Run(); err == nil {
		t.Error("campaign with a repeated space accepted")
	}
	if _, err := (&Campaign{Scenario: miniScenario(t), Seeds: []int64{1}, Methods: []Method{DAC19, DAC19}}).Run(); err == nil {
		t.Error("campaign with a repeated method accepted")
	}
}

// Units enumerates space-major, then method, then seed — the order Run
// indexes results by and UnitKey is stable under.
func TestCampaignUnitsOrderAndKeys(t *testing.T) {
	c := &Campaign{
		Scenario: miniScenario(t),
		Seeds:    []int64{1, 2},
		Spaces:   Spaces()[0:2],
		Methods:  []Method{TCAD19, PPATuner},
	}
	units := c.Units()
	if len(units) != 8 {
		t.Fatalf("%d units, want 8", len(units))
	}
	first, last := units[0], units[7]
	if first.SpaceIdx != 0 || first.Method != TCAD19 || first.Seed != 1 {
		t.Errorf("first unit = %+v", first)
	}
	if last.SpaceIdx != 1 || last.Method != PPATuner || last.Seed != 2 {
		t.Errorf("last unit = %+v", last)
	}
	seen := map[string]bool{}
	for _, u := range units {
		key := c.UnitKey(u)
		if seen[key] {
			t.Fatalf("duplicate unit key %q", key)
		}
		seen[key] = true
	}
}
