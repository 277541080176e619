package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeReport(t *testing.T, path string, ns float64) {
	t.Helper()
	data, err := json.Marshal(Report{GOMAXPROCS: 1, Results: []Result{{Name: "FitRefit", NsPerOp: ns}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestLoadBaselineRefusesOwnOutput: -o and -against naming one file —
// spelled identically, through a different relative spelling, or through
// a symlink — is refused before anything is measured or written.
func TestLoadBaselineRefusesOwnOutput(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "BENCH_gp.json")
	writeReport(t, base, 100)
	link := filepath.Join(dir, "link.json")
	if err := os.Symlink(base, link); err != nil {
		t.Fatal(err)
	}
	for _, out := range []string{base, filepath.Join(dir, ".", "BENCH_gp.json"), link} {
		if _, err := loadBaseline(base, out); err == nil || !strings.Contains(err.Error(), "same file") {
			t.Errorf("-o %s -against %s: err = %v, want a same-file refusal", out, base, err)
		}
	}
	if _, err := loadBaseline(base, filepath.Join(dir, "fresh.json")); err != nil {
		t.Fatalf("distinct -o: %v", err)
	}
	if _, err := loadBaseline(filepath.Join(dir, "missing.json"), filepath.Join(dir, "fresh.json")); err == nil {
		t.Fatal("missing baseline accepted")
	}
}

// TestGateUsesBaselineReadBeforeWrite: the gate judges against the baseline
// as it was when the run started, whatever is written afterwards.
func TestGateUsesBaselineReadBeforeWrite(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_gp.json")
	writeReport(t, path, 100)
	baseline, err := loadBaseline(path, filepath.Join(dir, "fresh.json"))
	if err != nil {
		t.Fatal(err)
	}
	fresh := Report{GOMAXPROCS: 1, Results: []Result{{Name: "FitRefit", NsPerOp: 200}}}
	writeReport(t, path, 200) // the baseline file changes after the read
	if err := gate(fresh, baseline, 0.25, 0.75); err == nil {
		t.Fatal("a 2x FitRefit regression passed the gate")
	}
	fresh.Results[0].NsPerOp = 110
	if err := gate(fresh, baseline, 0.25, 0.75); err != nil {
		t.Fatalf("a 10%% change failed the 25%% gate: %v", err)
	}
}
