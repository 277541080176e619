package robust

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// adoptT adopts and fails the test on error.
func adoptT(t *testing.T, ck *CampaignCheckpoint) uint64 {
	t.Helper()
	gen, err := ck.Adopt()
	if err != nil {
		t.Fatalf("adopt: %v", err)
	}
	return gen
}

// TestFencedWriteRejectedOnEveryAPI deposes a coordinator handle by
// adopting the same file under a newer generation, then drives every
// fenced checkpoint API on the stale handle: each must fail with ErrFenced
// and leave the base file and the journal exactly as the new owner wrote
// them.
func TestFencedWriteRejectedOnEveryAPI(t *testing.T) {
	cases := []struct {
		name string
		op   func(ck *CampaignCheckpoint) error
	}{
		{"Complete", func(ck *CampaignCheckpoint) error {
			return ck.Complete("u", CampaignCell{HV: 1, ADRS: 0, Runs: 3})
		}},
		{"Lease", func(ck *CampaignCheckpoint) error { return ck.Lease("u", 9, "w0") }},
		{"AddPartialObservation", func(ck *CampaignCheckpoint) error {
			return ck.AddPartialObservation("u", Observation{Index: 0, QoR: []float64{1, 2}})
		}},
		{"StartCell", func(ck *CampaignCheckpoint) error { return ck.StartCell("u", []byte("state")) }},
		{"WrapCell", func(ck *CampaignCheckpoint) error {
			_, err := ck.WrapCell("u", func(i int) ([]float64, error) { return []float64{1, 2}, nil })(0)
			return err
		}},
		{"Retire", func(ck *CampaignCheckpoint) error { return ck.Retire() }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "campaign.json")
			stale, err := LoadCampaignCheckpoint(path)
			if err != nil {
				t.Fatal(err)
			}
			adoptT(t, stale)
			// Give the deposed-to-be handle some state the ops can touch.
			if err := stale.Lease("leased", 1, "w1"); err != nil {
				t.Fatal(err)
			}

			owner, err := LoadCampaignCheckpoint(path)
			if err != nil {
				t.Fatal(err)
			}
			if gen := adoptT(t, owner); gen != 2 {
				t.Fatalf("second adoption got generation %d, want 2", gen)
			}
			// The owner's own mutation starts a journal the stale handle
			// must not append to either.
			if err := owner.Lease("owned", 1, "w2"); err != nil {
				t.Fatal(err)
			}
			want, wantJournal := readT(t, path), readT(t, JournalPath(path))
			if wantJournal == nil {
				t.Fatal("the owner's lease left no journal")
			}

			if err := tc.op(stale); !errors.Is(err, ErrFenced) {
				t.Fatalf("%s on deposed handle: err = %v, want ErrFenced", tc.name, err)
			}
			if got := readT(t, path); string(got) != string(want) {
				t.Fatalf("%s on deposed handle changed the file:\n got %s\nwant %s", tc.name, got, want)
			}
			if got := readT(t, JournalPath(path)); string(got) != string(wantJournal) {
				t.Fatalf("%s on deposed handle changed the journal:\n got %s\nwant %s", tc.name, got, wantJournal)
			}
		})
	}
}

// TestDuplicatePromotionRace has two standbys race to adopt: the one that
// adopts last holds the higher generation and wins; the earlier one is
// fenced on its next write even though it adopted "successfully" moments
// before.
func TestDuplicatePromotionRace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.json")
	primary, err := LoadCampaignCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if gen := adoptT(t, primary); gen != 1 {
		t.Fatalf("primary generation = %d, want 1", gen)
	}

	standbyA, err := LoadCampaignCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	standbyB, err := LoadCampaignCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if gen := adoptT(t, standbyA); gen != 2 {
		t.Fatalf("standby A generation = %d, want 2", gen)
	}
	if gen := adoptT(t, standbyB); gen != 3 {
		t.Fatalf("standby B generation = %d, want 3", gen)
	}

	// The primary and the lower-generation standby both lose.
	if err := primary.Lease("u", 1, "w0"); !errors.Is(err, ErrFenced) {
		t.Fatalf("deposed primary write: err = %v, want ErrFenced", err)
	}
	if err := standbyA.Lease("u", 1, "w0"); !errors.Is(err, ErrFenced) {
		t.Fatalf("lower-generation standby write: err = %v, want ErrFenced", err)
	}
	// The highest generation writes freely.
	if err := standbyB.Lease("u", 1, "w0"); err != nil {
		t.Fatalf("winning standby write: %v", err)
	}
}

// TestAdoptReloadsDiskState proves a standby that loaded the checkpoint at
// boot and promotes much later does not resurrect its stale view: Adopt
// re-reads the file under the lock.
func TestAdoptReloadsDiskState(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.json")
	standby, err := LoadCampaignCheckpoint(path) // loads the (empty) file at boot
	if err != nil {
		t.Fatal(err)
	}

	primary, err := LoadCampaignCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	adoptT(t, primary)
	if err := primary.Complete("done-unit", CampaignCell{HV: 0.9, ADRS: 0.05, Runs: 7}); err != nil {
		t.Fatal(err)
	}
	if err := primary.Lease("inflight", 3, "w2"); err != nil {
		t.Fatal(err)
	}

	if gen := adoptT(t, standby); gen != 2 {
		t.Fatalf("standby generation = %d, want 2", gen)
	}
	if _, ok := standby.Done("done-unit"); !ok {
		t.Fatal("standby did not pick up the cell completed after its boot-time load")
	}
	leases := standby.LeaseRecords()
	if lr, ok := leases["inflight"]; !ok || lr.Epoch != 3 || lr.Holder != "w2" {
		t.Fatalf("standby lease ledger = %+v, want inflight epoch 3 held by w2", leases)
	}
}

// TestRetireClearsGeneration: a retired checkpoint is byte-identical to
// one written by a coordinator that never adopted at all — the fail-over
// machinery leaves no trace in a finished campaign.
func TestRetireClearsGeneration(t *testing.T) {
	dir := t.TempDir()
	cell := CampaignCell{HV: 0.8, ADRS: 0.1, Runs: 5}

	plainPath := filepath.Join(dir, "plain.json")
	plain := NewCampaignCheckpoint(plainPath)
	if err := plain.Complete("u", cell); err != nil {
		t.Fatal(err)
	}

	adoptedPath := filepath.Join(dir, "adopted.json")
	adopted := NewCampaignCheckpoint(adoptedPath)
	adoptT(t, adopted)
	if err := adopted.Complete("u", cell); err != nil {
		t.Fatal(err)
	}
	mid, err := os.ReadFile(adoptedPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(mid), "\"generation\"") {
		t.Fatal("adopted checkpoint does not record its generation while live")
	}
	if err := adopted.Retire(); err != nil {
		t.Fatal(err)
	}
	if g := adopted.Generation(); g != 0 {
		t.Fatalf("generation after retire = %d, want 0", g)
	}

	want, err := os.ReadFile(plainPath)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(adoptedPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("retired checkpoint differs from a never-adopted one:\n got %s\nwant %s", got, want)
	}

	// Retiring twice is a no-op, and a never-adopted handle retires freely.
	if err := adopted.Retire(); err != nil {
		t.Fatal(err)
	}
	if err := plain.Retire(); err != nil {
		t.Fatal(err)
	}
}

// TestCampaignCheckpointV3LoadsTransparently: the pre-generation schema
// (version 3) loads unchanged and is migrated to v4 on the next compaction.
func TestCampaignCheckpointV3LoadsTransparently(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.json")
	v3 := `{
 "version": 3,
 "kind": "campaign",
 "cells": {"a": {"hv": 0.5, "adrs": 0.1, "runs": 10}},
 "leases": {"b": {"epoch": 4, "holder": "w1"}}
}`
	if err := os.WriteFile(path, []byte(v3), 0o644); err != nil {
		t.Fatal(err)
	}
	ck, err := LoadCampaignCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Cells() != 1 {
		t.Fatalf("v3 load: %d cells, want 1", ck.Cells())
	}
	if lr := ck.LeaseRecords()["b"]; lr.Epoch != 4 || lr.Holder != "w1" {
		t.Fatalf("v3 load: lease record = %+v", lr)
	}
	if g := ck.Generation(); g != 0 {
		t.Fatalf("v3 load: generation = %d, want 0", g)
	}
	if err := ck.StartCell("c", []byte("rng")); err != nil {
		t.Fatal(err)
	}
	if err := ck.Retire(); err != nil { // compacts
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		Version int `json:"version"`
	}
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	if f.Version != 4 {
		t.Fatalf("migrated file version = %d, want 4", f.Version)
	}
}

// TestAdoptionSurvivesReload: a generation recorded on disk is restored by
// a plain load, so a crashed-and-restarted coordinator keeps writing under
// its recorded generation (and stays fenceable by a later adopter).
func TestAdoptionSurvivesReload(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.json")
	first := NewCampaignCheckpoint(path)
	adoptT(t, first)
	if err := first.Lease("u", 1, "w0"); err != nil {
		t.Fatal(err)
	}

	reloaded, err := LoadCampaignCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if g := reloaded.Generation(); g != 1 {
		t.Fatalf("reloaded generation = %d, want 1", g)
	}
	if err := reloaded.Lease("u", 2, "w1"); err != nil {
		t.Fatalf("same-generation write after reload: %v", err)
	}
	if gen := adoptT(t, reloaded); gen != 2 {
		t.Fatalf("re-adoption generation = %d, want 2", gen)
	}
	if err := first.Lease("v", 1, "w0"); !errors.Is(err, ErrFenced) {
		t.Fatalf("original handle after re-adoption: err = %v, want ErrFenced", err)
	}
}
