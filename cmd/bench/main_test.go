package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// report is a one-host report whose gated benchmarks FitRefit, PredictPool
// and AddTarget all measure ns ns/op, each over the iteration count the
// default -benchtime times on a 2-vCPU host (BENCH_gp.json).
func report(ns float64) Report {
	return Report{GOMAXPROCS: 1, SIMD: "avx2", Results: []Result{
		{Name: "FitRefit", Iterations: 7, NsPerOp: ns},
		{Name: "PredictPool", Iterations: 4604, NsPerOp: ns},
		{Name: "AddTarget", Iterations: 2775, NsPerOp: ns},
	}}
}

func writeReport(t *testing.T, path string, ns float64) {
	t.Helper()
	data, err := json.Marshal(report(ns))
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
	fresh := report(100)
	fresh.Results[0].NsPerOp = 200
	writeReport(t, path, 200) // the baseline file changes after the read
	if err := gate(fresh, baseline, 0.25, 0.75); err == nil {
		t.Fatal("a 2x FitRefit regression passed the gate")
	}
	fresh.Results[0].NsPerOp = 110
	if err := gate(fresh, baseline, 0.25, 0.75); err != nil {
		t.Fatalf("a 10%% change failed the 25%% gate: %v", err)
	}
}

// TestGateFailsOnMissingGatedBenchmark: a gated benchmark absent from the
// baseline or from the fresh run (a renamed fixture, a stale baseline)
// fails the gate instead of passing unchecked; an extra ungated benchmark
// on either side does not.
func TestGateFailsOnMissingGatedBenchmark(t *testing.T) {
	for i, name := range []string{"FitRefit", "PredictPool", "AddTarget"} {
		short := report(100)
		short.Results = append(short.Results[:i:i], short.Results[i+1:]...)
		if err := gate(report(100), short, 0.25, 0.75); err == nil || !strings.Contains(err.Error(), name+" is gated but missing from the baseline") {
			t.Errorf("baseline without %s: err = %v", name, err)
		}
		if err := gate(short, report(100), 0.25, 0.75); err == nil || !strings.Contains(err.Error(), name+" is gated but missing from the fresh run") {
			t.Errorf("fresh run without %s: err = %v", name, err)
		}
	}
	extra := report(100)
	extra.Results = append(extra.Results, Result{Name: "Informational", Iterations: 1, NsPerOp: 1})
	if err := gate(extra, report(100), 0.25, 0.75); err != nil {
		t.Errorf("an ungated benchmark only in the fresh run failed the gate: %v", err)
	}
	if err := gate(report(100), extra, 0.25, 0.75); err != nil {
		t.Errorf("an ungated benchmark only in the baseline failed the gate: %v", err)
	}
}

// TestGateSIMDLevelIsANote: a baseline taken at another SIMD level is noted,
// but the verdict stays the ns/op comparison.
func TestGateSIMDLevelIsANote(t *testing.T) {
	base := report(100)
	base.SIMD = "avx512"
	if err := gate(report(110), base, 0.25, 0.75); err != nil {
		t.Errorf("a 10%% change at another SIMD level failed the gate: %v", err)
	}
	if err := gate(report(200), base, 0.25, 0.75); err == nil {
		t.Error("a 2x regression at another SIMD level passed the gate")
	}
}

// TestGateRefusesTooFewIterations: a gated benchmark timed over fewer than
// minGateIters iterations fails the gate whatever its ns/op, and the error
// names the minimum. At -benchtime 1x one cold PredictPool sweep read about
// 2x its baseline on a healthy tree; the gate must refuse to judge it rather
// than report a regression or a pass.
func TestGateRefusesTooFewIterations(t *testing.T) {
	for _, ns := range []float64{100, 200} {
		fresh := report(100)
		fresh.Results[1].Iterations, fresh.Results[1].NsPerOp = 1, ns // PredictPool
		err := gate(fresh, report(100), 0.25, 0.75)
		if err == nil || !strings.Contains(err.Error(), "PredictPool timed 1 iterations, fewer than the 3 the gate needs") {
			t.Errorf("1-iteration PredictPool at %v ns/op: err = %v", ns, err)
		}
	}
	fresh := report(100)
	fresh.Results[0].Iterations = minGateIters // FitRefit at the minimum
	if err := gate(fresh, report(100), 0.25, 0.75); err != nil {
		t.Errorf("FitRefit at %d iterations failed the gate: %v", minGateIters, err)
	}
}
