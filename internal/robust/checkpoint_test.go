package robust

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// A single run's observations live in the partial cell RunKey: written
// through WrapCell, folded into the file by Retire, and replayed in arrival
// order by a reload.
func TestCheckpointRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.json")
	c := NewCampaignCheckpoint(path)
	ev := c.WrapCell(RunKey, func(i int) ([]float64, error) {
		return map[int][]float64{4: {1.5, 2.5}, 9: {3, 4}}[i], nil
	})
	for _, i := range []int{4, 9} {
		if _, err := ev(i); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Retire(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(JournalPath(path)); !os.IsNotExist(err) {
		t.Fatalf("journal left beside a retired run checkpoint: %v", err)
	}

	r, err := LoadCampaignCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	obs := r.PartialObservations(RunKey)
	if len(obs) != 2 || obs[0].Index != 4 || obs[1].Index != 9 {
		t.Fatalf("restored %+v, want indices 4 and 9", obs)
	}
	if y := obs[0].QoR; y[0] != 1.5 || y[1] != 2.5 {
		t.Errorf("observation 4 = %v", y)
	}
	calls := 0
	replay := r.WrapCell(RunKey, func(i int) ([]float64, error) { calls++; return []float64{0}, nil })
	if _, err := replay(5); err != nil || calls != 1 {
		t.Errorf("missing entry answered from the checkpoint (calls=%d, err=%v)", calls, err)
	}
}

// A completed campaign cell survives a run that records into the same
// file: the single-run checkpoint is one more cell, not a second format
// that reads the campaign as empty and rewrites it without its cells.
func TestRunKeyKeepsCampaignCells(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shared.json")
	v2 := `{"version":2,"kind":"campaign","cells":{"a|b|c|seed=1":{"hv":0.1,"adrs":0.2,"runs":30}}}`
	if err := os.WriteFile(path, []byte(v2), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := LoadCampaignCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	ev := c.WrapCell(RunKey, func(i int) ([]float64, error) { return []float64{7, 8}, nil })
	if _, err := ev(3); err != nil {
		t.Fatal(err)
	}
	if err := c.Retire(); err != nil {
		t.Fatal(err)
	}

	r, err := LoadCampaignCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if cell, ok := r.Done("a|b|c|seed=1"); !ok || cell.Runs != 30 {
		t.Errorf("completed cell = %+v, %v after a run recorded into the file", cell, ok)
	}
	if obs := r.PartialObservations(RunKey); len(obs) != 1 || obs[0].Index != 3 || obs[0].QoR[1] != 8 {
		t.Errorf("run observations = %+v, want index 3", obs)
	}
}

func TestLoadCheckpointRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	os.WriteFile(bad, []byte("{not json"), 0o644)
	if _, err := LoadCampaignCheckpoint(bad); err == nil {
		t.Error("corrupt JSON accepted")
	}
	ver := filepath.Join(dir, "ver.json")
	os.WriteFile(ver, []byte(`{"version":9,"runs":[]}`), 0o644)
	if _, err := LoadCampaignCheckpoint(ver); err == nil {
		t.Error("future per-run version accepted")
	}
	runs := filepath.Join(dir, "runs.json")
	os.WriteFile(runs, []byte(`{"version":2,"runs":{"index":0}}`), 0o644)
	if _, err := LoadCampaignCheckpoint(runs); err == nil {
		t.Error("per-run file with malformed runs accepted")
	}
	// JSON cannot encode NaN, but an out-of-range literal decodes toward Inf:
	// either the decoder or ValidateVector must reject it.
	inf := filepath.Join(dir, "inf.json")
	os.WriteFile(inf, []byte(`{"version":1,"runs":[{"index":0,"qor":[1e999]}]}`), 0o644)
	if _, err := LoadCampaignCheckpoint(inf); err == nil {
		t.Error("out-of-range QoR entry accepted")
	}
}

func TestCheckpointRejectsInvalidVectors(t *testing.T) {
	c := NewCampaignCheckpoint("")
	if err := c.AddPartialObservation(RunKey, Observation{Index: 0, QoR: []float64{math.NaN()}}); err == nil {
		t.Error("NaN observation checkpointed")
	}
	if err := c.AddPartialObservation(RunKey, Observation{Index: 0, QoR: []float64{math.Inf(1)}}); err == nil {
		t.Error("Inf observation checkpointed")
	}
	if obs := c.PartialObservations(RunKey); len(obs) != 0 {
		t.Errorf("rejected observations recorded: %+v", obs)
	}
}

func TestCheckpointWrapCachesAndCounts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.json")
	c := NewCampaignCheckpoint(path)
	calls := 0
	eval := c.WrapCell(RunKey, func(i int) ([]float64, error) {
		calls++
		return []float64{float64(i), float64(i * 2)}, nil
	})
	for _, i := range []int{3, 5, 3, 5, 3} {
		y, err := eval(i)
		if err != nil {
			t.Fatal(err)
		}
		if y[0] != float64(i) {
			t.Errorf("eval(%d) = %v", i, y)
		}
	}
	if calls != 2 {
		t.Errorf("inner evaluator called %d times, want 2", calls)
	}
	replayed, fresh := c.Stats()
	if replayed != 3 || fresh != 2 {
		t.Errorf("stats = %d replayed / %d fresh, want 3/2", replayed, fresh)
	}
	if err := c.Retire(); err != nil {
		t.Fatal(err)
	}

	// A fresh process resumes from the file and pays zero tool calls.
	r, err := LoadCampaignCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	calls2 := 0
	eval2 := r.WrapCell(RunKey, func(i int) ([]float64, error) { calls2++; return nil, errors.New("tool gone") })
	for _, i := range []int{3, 5} {
		if _, err := eval2(i); err != nil {
			t.Fatalf("resumed eval(%d): %v", i, err)
		}
	}
	if calls2 != 0 {
		t.Errorf("resumed run invoked the tool %d times, want 0", calls2)
	}
}

func TestCheckpointWrapDoesNotCacheErrorsOrGarbage(t *testing.T) {
	c := NewCampaignCheckpoint("")
	fail := true
	eval := c.WrapCell(RunKey, func(i int) ([]float64, error) {
		if fail {
			return nil, errors.New("transient")
		}
		return []float64{1}, nil
	})
	if _, err := eval(0); err == nil {
		t.Fatal("error swallowed")
	}
	if n := len(c.PartialObservations(RunKey)); n != 0 {
		t.Error("failed evaluation was cached")
	}
	fail = false
	if _, err := eval(0); err != nil {
		t.Fatal(err)
	}
	if n := len(c.PartialObservations(RunKey)); n != 1 {
		t.Error("successful evaluation not cached")
	}

	// Corrupt QoR passes through (for the resilience layer to reject) but is
	// never persisted.
	bad := c.WrapCell(RunKey, func(i int) ([]float64, error) { return []float64{math.NaN()}, nil })
	y, err := bad(7)
	if err != nil || !math.IsNaN(y[0]) {
		t.Fatalf("corrupt passthrough = %v, %v", y, err)
	}
	for _, o := range c.PartialObservations(RunKey) {
		if o.Index == 7 {
			t.Error("corrupt QoR was cached")
		}
	}
}

func TestCheckpointLookupReturnsCopy(t *testing.T) {
	c := NewCampaignCheckpoint("")
	eval := c.WrapCell(RunKey, func(i int) ([]float64, error) { return []float64{10, 20}, nil })
	y, err := eval(1)
	if err != nil {
		t.Fatal(err)
	}
	y[0] = 999
	y2, _ := eval(1)
	if y2[0] != 10 {
		t.Fatal("fresh result aliases the cached vector")
	}
	y2[0] = 999
	y3, _ := eval(1)
	if y3[0] != 10 {
		t.Error("replayed result exposed internal storage")
	}
	c.PartialObservations(RunKey)[0].QoR[0] = 999
	if y4, _ := eval(1); y4[0] != 10 {
		t.Error("PartialObservations exposed internal storage")
	}
}
