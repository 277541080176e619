package robust

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestCampaignCheckpointRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.json")
	ck := NewCampaignCheckpoint(path)
	if err := ck.Complete("a|b|c|seed=1", CampaignCell{HV: 0.1, ADRS: 0.2, Runs: 30}); err != nil {
		t.Fatal(err)
	}
	if err := ck.StartCell("a|b|c|seed=2", []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	ev := ck.WrapCell("a|b|c|seed=2", func(i int) ([]float64, error) {
		return []float64{float64(i), 1}, nil
	})
	if _, err := ev(7); err != nil {
		t.Fatal(err)
	}
	if _, err := ev(9); err != nil {
		t.Fatal(err)
	}

	re, err := LoadCampaignCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if re.Cells() != 1 {
		t.Fatalf("reloaded %d completed cells, want 1", re.Cells())
	}
	cell, ok := re.Done("a|b|c|seed=1")
	if !ok || cell.HV != 0.1 || cell.ADRS != 0.2 || cell.Runs != 30 {
		t.Fatalf("completed cell = %+v, ok=%v", cell, ok)
	}
	state, iters := re.PartialRandState("a|b|c|seed=2")
	if string(state) != "\x01\x02\x03" || iters != 2 {
		t.Fatalf("partial state = %v, iters = %d", state, iters)
	}
	// Replayed observations come back verbatim without calling the tool.
	replay := re.WrapCell("a|b|c|seed=2", func(i int) ([]float64, error) {
		t.Fatalf("tool called for cached index %d", i)
		return nil, nil
	})
	y, err := replay(7)
	if err != nil || y[0] != 7 {
		t.Fatalf("replayed obs = %v, %v", y, err)
	}
	replayed, fresh := re.Stats()
	if replayed != 1 || fresh != 0 {
		t.Errorf("stats = (%d, %d), want (1, 0)", replayed, fresh)
	}
}

func TestCampaignCheckpointMissingFileIsEmpty(t *testing.T) {
	ck, err := LoadCampaignCheckpoint(filepath.Join(t.TempDir(), "nope.json"))
	if err != nil {
		t.Fatal(err)
	}
	if ck.Cells() != 0 {
		t.Fatalf("fresh checkpoint has %d cells", ck.Cells())
	}
}

func TestCampaignCheckpointRejectsWrongKind(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.json")
	// A state file of another kind (here a job manifest) must be rejected
	// with a pointed error, not read as empty.
	if err := os.WriteFile(path, []byte(`{"version":1,"kind":"jobs","next_id":1,"jobs":{}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := LoadCampaignCheckpoint(path)
	if err == nil || !strings.Contains(err.Error(), "not a campaign checkpoint") {
		t.Fatalf("err = %v", err)
	}

	// A legacy per-run checkpoint (no kind) is not a wrong kind: it migrates
	// to the run cell.
	perRun := filepath.Join(t.TempDir(), "run.json")
	if err := os.WriteFile(perRun, []byte(`{"version":2,"runs":[{"index":0,"qor":[1,2]}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	ck, err := LoadCampaignCheckpoint(perRun)
	if err != nil {
		t.Fatal(err)
	}
	if obs := ck.PartialObservations(RunKey); len(obs) != 1 {
		t.Fatalf("per-run file migrated to %+v", obs)
	}

	// And the reverse direction: garbage JSON is a parse error.
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCampaignCheckpoint(bad); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestCampaignCheckpointRejectsInvalidVectors(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.json")
	data := `{"version":2,"kind":"campaign","cells":{},"partial":{"k":{"runs":[{"index":1,"qor":[1,1e999]}],"iters":1}}}`
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCampaignCheckpoint(path); err == nil {
		t.Fatal("out-of-range observation accepted from disk")
	}

	// At runtime, garbage QoR is passed up uncached.
	ck := NewCampaignCheckpoint("")
	ev := ck.WrapCell("k", func(i int) ([]float64, error) {
		return []float64{math.NaN(), 1}, nil
	})
	if _, err := ev(3); err != nil {
		t.Fatal(err)
	}
	if _, fresh := ck.Stats(); fresh != 0 {
		t.Error("invalid vector counted as a cached fresh evaluation")
	}
}

func TestCampaignStartCellKeepsRecordedState(t *testing.T) {
	ck := NewCampaignCheckpoint("")
	if err := ck.StartCell("k", []byte{9}); err != nil {
		t.Fatal(err)
	}
	// A resumed run calling StartCell again must not clobber the state the
	// partial observations were drawn under.
	if err := ck.StartCell("k", []byte{42}); err != nil {
		t.Fatal(err)
	}
	state, _ := ck.PartialRandState("k")
	if string(state) != "\x09" {
		t.Fatalf("recorded state overwritten: %v", state)
	}
}

func TestCampaignCompleteDiscardsPartial(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.json")
	ck := NewCampaignCheckpoint(path)
	if err := ck.StartCell("k", []byte{1}); err != nil {
		t.Fatal(err)
	}
	ev := ck.WrapCell("k", func(i int) ([]float64, error) { return []float64{1, 2}, nil })
	if _, err := ev(0); err != nil {
		t.Fatal(err)
	}
	if err := ck.Complete("k", CampaignCell{HV: 1}); err != nil {
		t.Fatal(err)
	}
	re, err := LoadCampaignCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if state, _ := re.PartialRandState("k"); state != nil {
		t.Error("partial state survived completion")
	}
	if _, ok := re.Done("k"); !ok {
		t.Error("completed cell lost")
	}
}

// A hand-written v1 per-run checkpoint (observations only, no RNG state)
// must load transparently as the run cell and migrate to a v4 campaign file
// on the next compaction.
func TestCheckpointV1MigratesToV4(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v1.json")
	v1 := `{"version":1,"runs":[{"index":4,"qor":[0.5,1.5]},{"index":2,"qor":[1,2]}]}`
	if err := os.WriteFile(path, []byte(v1), 0o644); err != nil {
		t.Fatal(err)
	}
	ck, err := LoadCampaignCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	obs := ck.PartialObservations(RunKey)
	if len(obs) != 2 || obs[0].Index != 4 || obs[0].QoR[0] != 0.5 || obs[1].Index != 2 {
		t.Fatalf("v1 file loaded %+v, want indices 4 then 2", obs)
	}
	if state, iters := ck.PartialRandState(RunKey); state != nil || iters != 0 {
		t.Errorf("v1 file reported state %v, iters %d; want nil, 0", state, iters)
	}

	// Retiring an unchanged legacy file writes nothing.
	if err := ck.Retire(); err != nil {
		t.Fatal(err)
	}
	if raw, _ := os.ReadFile(path); string(raw) != v1 {
		t.Fatalf("replay-only retire rewrote the legacy file:\n%s", raw)
	}

	// A fresh observation journals against the legacy base; Retire migrates
	// the file to the current schema.
	ev := ck.WrapCell(RunKey, func(i int) ([]float64, error) { return []float64{3, 3}, nil })
	if _, err := ev(8); err != nil {
		t.Fatal(err)
	}
	// Killed here, the run leaves the legacy base plus a journal bound to
	// it, and a reload sees all three observations.
	if raw, _ := os.ReadFile(path); string(raw) != v1 {
		t.Fatalf("an observation rewrote the legacy base:\n%s", raw)
	}
	mid, err := LoadCampaignCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if obs := mid.PartialObservations(RunKey); len(obs) != 3 {
		t.Fatalf("legacy base + journal reloaded %+v, want 3 observations", obs)
	}
	if err := ck.Retire(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"version": 4`) || !strings.Contains(string(raw), `"kind": "campaign"`) {
		t.Fatalf("migrated file is not a v4 campaign checkpoint:\n%s", raw)
	}

	re, err := LoadCampaignCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	obs = re.PartialObservations(RunKey)
	if len(obs) != 3 || obs[1].Index != 2 || obs[1].QoR[1] != 2 || obs[2].Index != 8 {
		t.Fatalf("observations lost across migration: %+v", obs)
	}
}

func TestCheckpointRejectsUnknownVersion(t *testing.T) {
	for _, data := range []string{
		`{"version":9,"runs":[]}`,
		`{"version":3,"runs":[]}`,
		`{"version":0,"runs":[]}`,
		`{"version":1,"kind":"campaign","cells":{}}`,
		`{"version":5,"kind":"campaign","cells":{}}`,
	} {
		path := filepath.Join(t.TempDir(), "ckpt.json")
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadCampaignCheckpoint(path); err == nil || !strings.Contains(err.Error(), "unsupported version") {
			t.Errorf("%s: err = %v", data, err)
		}
	}
}
