package robust

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestCampaignCheckpointLeaseLedgerRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.json")
	ck := NewCampaignCheckpoint(path)
	if err := ck.Lease("u1", 1, "w0"); err != nil {
		t.Fatal(err)
	}
	if err := ck.Lease("u2", 3, "w1"); err != nil {
		t.Fatal(err)
	}
	// Epochs must advance strictly.
	if err := ck.Lease("u1", 1, "w2"); err == nil {
		t.Fatal("re-granting u1 at epoch 1 should fail")
	}
	if err := ck.Lease("u1", 2, "w2"); err != nil {
		t.Fatal(err)
	}

	re, err := LoadCampaignCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	got := re.LeaseRecords()
	if len(got) != 2 {
		t.Fatalf("reloaded %d lease records, want 2", len(got))
	}
	if lr := got["u1"]; lr.Epoch != 2 || lr.Holder != "w2" {
		t.Fatalf("u1 lease = %+v, want epoch 2 holder w2", lr)
	}
	if lr := got["u2"]; lr.Epoch != 3 || lr.Holder != "w1" {
		t.Fatalf("u2 lease = %+v, want epoch 3 holder w1", lr)
	}
	// The restored high-water mark still gates grants.
	if err := re.Lease("u2", 3, "w5"); err == nil {
		t.Fatal("restored coordinator must not re-grant u2 at epoch 3")
	}
	if err := re.Lease("u2", 4, "w5"); err != nil {
		t.Fatal(err)
	}
}

func TestCampaignCheckpointCompleteClearsLease(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.json")
	ck := NewCampaignCheckpoint(path)
	if err := ck.Lease("u1", 1, "w0"); err != nil {
		t.Fatal(err)
	}
	if err := ck.Complete("u1", CampaignCell{HV: 1}); err != nil {
		t.Fatal(err)
	}
	if n := len(ck.LeaseRecords()); n != 0 {
		t.Fatalf("%d lease records after Complete, want 0", n)
	}
	// The completion is journaled: base plus journal loads without traces.
	re, err := LoadCampaignCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(re.LeaseRecords()) != 0 {
		t.Fatalf("reloaded checkpoint keeps leases %v", re.LeaseRecords())
	}
	// Retiring folds the journal into the base: the finished file too.
	if err := ck.Retire(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "leases") {
		t.Fatalf("finished checkpoint still carries lease traces:\n%s", data)
	}
}

func TestCampaignCheckpointV2LoadsTransparently(t *testing.T) {
	// A schema-v2 file (pre-lease-ledger) must load without error and be
	// rewritten as v4 on the next compaction.
	path := filepath.Join(t.TempDir(), "campaign.json")
	v2 := `{
 "version": 2,
 "kind": "campaign",
 "cells": {"a": {"hv": 0.5, "adrs": 0.1, "runs": 10}},
 "partial": {"b": {"runs": [{"index": 3, "qor": [1, 2]}], "iters": 1}}
}`
	if err := os.WriteFile(path, []byte(v2), 0o644); err != nil {
		t.Fatal(err)
	}
	ck, err := LoadCampaignCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Cells() != 1 {
		t.Fatalf("v2 load: %d cells, want 1", ck.Cells())
	}
	if obs := ck.PartialObservations("b"); len(obs) != 1 || obs[0].Index != 3 {
		t.Fatalf("v2 load: partial obs = %+v", obs)
	}
	if err := ck.Lease("b", 1, "w0"); err != nil {
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

func TestAddPartialObservation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.json")
	ck := NewCampaignCheckpoint(path)
	if err := ck.AddPartialObservation("u", Observation{Index: 4, QoR: []float64{1, 2}}); err != nil {
		t.Fatal(err)
	}
	if err := ck.AddPartialObservation("u", Observation{Index: 9, QoR: []float64{3, 4}}); err != nil {
		t.Fatal(err)
	}
	// Duplicate delivery (retransmitted result) is idempotent.
	if err := ck.AddPartialObservation("u", Observation{Index: 4, QoR: []float64{1, 2}}); err != nil {
		t.Fatal(err)
	}
	// Garbage QoR is rejected, never cached.
	if err := ck.AddPartialObservation("u", Observation{Index: 5, QoR: []float64{math.NaN(), 1}}); err == nil {
		t.Fatal("NaN observation should be rejected")
	}
	obs := ck.PartialObservations("u")
	if len(obs) != 2 || obs[0].Index != 4 || obs[1].Index != 9 {
		t.Fatalf("observations = %+v", obs)
	}
	re, err := LoadCampaignCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	// Merged observations replay through WrapCell exactly like local ones.
	replay := re.WrapCell("u", func(i int) ([]float64, error) {
		t.Fatalf("tool called for merged index %d", i)
		return nil, nil
	})
	y, err := replay(9)
	if err != nil || y[0] != 3 {
		t.Fatalf("replayed merged obs = %v, %v", y, err)
	}
	if state, observed := re.PartialRandState("u"); state != nil || observed != 0 {
		// No rand state was recorded, so PartialRandState reports nil/0
		// although the cell holds observations.
		t.Fatalf("PartialRandState = %v, %d; want nil, 0 without rand state", state, observed)
	}
}

func TestFailureLogLeaseEvents(t *testing.T) {
	var l FailureLog
	l.Record(Event{Index: -1, Attempt: -1, Kind: KindLease, Err: "lease granted u1 epoch 1"})
	l.Record(Event{Index: -1, Attempt: -1, Kind: KindLease, Err: "zombie result rejected u1 epoch 1"})
	l.Record(Event{Index: 3, Attempt: 0, Kind: KindError, Err: "boom"})
	if n := l.LeaseEvents(); n != 2 {
		t.Fatalf("LeaseEvents = %d, want 2", n)
	}
	sum := l.Summary()
	if !strings.Contains(sum, "1 failures") || !strings.Contains(sum, "2 lease events") {
		t.Fatalf("Summary = %q", sum)
	}
	// A machinery-only log reads as no failures.
	var m FailureLog
	m.Record(Event{Index: -1, Attempt: -1, Kind: KindLease, Err: "lease granted"})
	if sum := m.Summary(); !strings.Contains(sum, "no failures") || !strings.Contains(sum, "1 lease events") {
		t.Fatalf("machinery-only Summary = %q", sum)
	}
	// Nil logs stay safe.
	var nilLog *FailureLog
	nilLog.Record(Event{Kind: KindLease})
	if nilLog.LeaseEvents() != 0 {
		t.Fatal("nil log should report 0 lease events")
	}
}
