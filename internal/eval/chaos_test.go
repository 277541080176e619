package eval

import (
	"errors"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"ppatuner/internal/benchdata"
	"ppatuner/internal/core"
	"ppatuner/internal/pareto"
	"ppatuner/internal/pdtool"
	"ppatuner/internal/pdtool/chaos"
	"ppatuner/internal/robust"
)

var (
	t2Once sync.Once
	t2Data *benchdata.Dataset
	t2Err  error
)

// target2 builds the paper's Target2 benchmark once for the whole package
// (727 LargeMAC flow runs — the expensive part of these tests).
func target2(t *testing.T) *benchdata.Dataset {
	t.Helper()
	t2Once.Do(func() { t2Data, t2Err = benchdata.Target2() })
	if t2Err != nil {
		t.Fatal(t2Err)
	}
	return t2Data
}

// hvOf scores a result's Pareto prediction against the dataset's golden front.
func hvOf(objVecs [][]float64, paretoIdx []int) float64 {
	golden := pareto.FrontPoints(objVecs)
	ref := pareto.ReferencePoint(objVecs, 0.10)
	approx := make([][]float64, 0, len(paretoIdx))
	for _, i := range paretoIdx {
		approx = append(approx, objVecs[i])
	}
	return pareto.HVError(golden, pareto.FrontPoints(approx), ref)
}

// TestChaosTuningWithinNoiseOnTarget2 is the headline acceptance test: with a
// >=20% transient-failure rate plus occasional hangs injected into the tool,
// a full tuning run on the Target2 benchmark (Batch > 1, concurrent workers)
// must complete and land a hyper-volume error within noise of the fault-free
// run.
func TestChaosTuningWithinNoiseOnTarget2(t *testing.T) {
	if testing.Short() {
		t.Skip("Target2 generation is slow; skipped under -short")
	}
	ds := target2(t)
	metrics := []pdtool.Metric{pdtool.Power, pdtool.Delay}
	pool := ds.UnitX()
	objVecs := ds.Objectives(metrics)

	run := func(wrap func(core.Evaluator) core.Evaluator) *core.Result {
		t.Helper()
		var eval core.Evaluator = func(i int) ([]float64, error) { return objVecs[i], nil }
		if wrap != nil {
			eval = wrap(eval)
		}
		tn, err := core.New(pool, eval, core.Options{
			NumObjectives: 2,
			InitTarget:    15,
			MaxIter:       50,
			Batch:         3,
			Workers:       3,
			Rng:           rand.New(core.NewPCGSource(77, 77)),
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := tn.Run()
		if err != nil {
			t.Fatalf("tuning run failed: %v", err)
		}
		return res
	}

	clean := run(nil)
	cleanHV := hvOf(objVecs, clean.ParetoIdx)

	inj, err := chaos.New(chaos.Options{
		Seed:    99,
		Rates:   chaos.Rates{Transient: 0.22, Hang: 0.03},
		HangFor: 80 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	flog := &robust.FailureLog{}
	faulty := run(func(eval core.Evaluator) core.Evaluator {
		re, err := robust.Wrap(nil, inj.Wrap(eval), robust.Options{
			Timeout:       25 * time.Millisecond,
			MaxRetries:    5,
			Backoff:       time.Millisecond,
			Policy:        robust.PolicySkip,
			NumObjectives: 2,
			Sleep:         func(time.Duration) {}, // keep the test fast
			Log:           flog,
		})
		if err != nil {
			t.Fatal(err)
		}
		return re.Evaluate
	})

	c := inj.Counts()
	if c.Transient == 0 {
		t.Error("no transient failures injected — the test is not exercising retries")
	}
	if c.Hang == 0 {
		t.Error("no hangs injected — the test is not exercising the deadline")
	}
	if faulty.Runs == 0 || len(faulty.ParetoIdx) == 0 {
		t.Fatalf("faulty run produced no result: %d runs, %d Pareto", faulty.Runs, len(faulty.ParetoIdx))
	}
	faultyHV := hvOf(objVecs, faulty.ParetoIdx)
	// The chaotic run explores a slightly different trajectory (retries and
	// the odd skipped candidate), so exact equality is not expected — but the
	// quality must stay within run-to-run noise of the fault-free result.
	const noise = 0.08
	if faultyHV > cleanHV+noise {
		t.Errorf("HV error under chaos = %.4f, fault-free = %.4f: degradation beyond noise (%.2f)",
			faultyHV, cleanHV, noise)
	}
	t.Logf("fault-free HV error %.4f; chaos HV error %.4f; injections %+v; failures: %s",
		cleanHV, faultyHV, c, flog.Summary())
}

// TestCheckpointCrashResumeIdenticalPareto kills a checkpointed run partway
// through and resumes it in a "fresh process": the resumed run must reach the
// exact Pareto set of an uninterrupted run, replaying persisted observations
// instead of re-invoking the tool.
func TestCheckpointCrashResumeIdenticalPareto(t *testing.T) {
	rng := rand.New(core.NewPCGSource(5, 5))
	const n, dim = 100, 4
	pool := make([][]float64, n)
	for i := range pool {
		pool[i] = make([]float64, dim)
		for d := range pool[i] {
			pool[i][d] = rng.Float64()
		}
	}
	obj := func(i int) []float64 {
		x := pool[i]
		return []float64{
			x[0]*x[0] + 0.4*x[1] + 0.1*x[2],
			(1-x[0])*(1-x[0]) + 0.3*x[3] + 0.1*x[1],
		}
	}
	newTuner := func(eval core.Evaluator) *core.Tuner {
		t.Helper()
		tn, err := core.New(pool, eval, core.Options{
			NumObjectives: 2,
			InitTarget:    10,
			MaxIter:       30,
			Rng:           rand.New(core.NewPCGSource(6, 6)),
		})
		if err != nil {
			t.Fatal(err)
		}
		return tn
	}

	// Reference: uninterrupted run.
	ref, err := newTuner(func(i int) ([]float64, error) { return obj(i), nil }).Run()
	if err != nil {
		t.Fatal(err)
	}

	// Crash run: the tool dies for good after 18 calls; the checkpoint has
	// persisted everything observed up to that point.
	path := filepath.Join(t.TempDir(), "run.ckpt.json")
	ckpt := robust.NewCampaignCheckpoint(path)
	boom := errors.New("simulated crash: tool host went down")
	calls := 0
	crashEval := ckpt.WrapCell(robust.RunKey, func(i int) ([]float64, error) {
		if calls++; calls > 18 {
			return nil, boom
		}
		return obj(i), nil
	})
	if _, err := newTuner(crashEval).Run(); !errors.Is(err, boom) {
		t.Fatalf("crash run err = %v, want the simulated crash", err)
	}

	// Resume in a "fresh process": reload the file, same seed, count how many
	// times the tool is actually re-invoked.
	resumed, err := robust.LoadCampaignCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	stored := len(resumed.PartialObservations(robust.RunKey))
	if stored == 0 {
		t.Fatal("checkpoint file holds no observations")
	}
	fresh := 0
	res, err := newTuner(resumed.WrapCell(robust.RunKey, func(i int) ([]float64, error) {
		fresh++
		return obj(i), nil
	})).Run()
	if err != nil {
		t.Fatal(err)
	}

	if len(res.ParetoIdx) != len(ref.ParetoIdx) {
		t.Fatalf("resumed Pareto set size %d, reference %d", len(res.ParetoIdx), len(ref.ParetoIdx))
	}
	for k := range ref.ParetoIdx {
		if res.ParetoIdx[k] != ref.ParetoIdx[k] {
			t.Fatalf("resumed ParetoIdx %v differs from reference %v", res.ParetoIdx, ref.ParetoIdx)
		}
	}
	if fresh >= ref.Runs {
		t.Errorf("resume re-invoked the tool %d times for a %d-run trajectory: nothing was replayed", fresh, ref.Runs)
	}
	hits, _ := resumed.Stats()
	if hits != stored && hits == 0 {
		t.Errorf("no checkpoint hits on resume (hits=%d, stored=%d)", hits, stored)
	}
	t.Logf("reference %d tool runs; resume replayed %d from checkpoint, %d fresh", ref.Runs, hits, fresh)
}

// TestRunMethodOptsFullFaultStack drives the harness entry point with the
// complete middleware chain — chaos injection under a checkpoint cache under
// the resilience layer — on the fast mini scenario.
func TestRunMethodOptsFullFaultStack(t *testing.T) {
	s := miniScenario(t)
	space := Spaces()[0] // Area-Delay
	inj, err := chaos.New(chaos.Options{Seed: 41, Rates: chaos.Rates{Transient: 0.25}})
	if err != nil {
		t.Fatal(err)
	}
	ckpt := robust.NewCampaignCheckpoint("") // in-memory
	wrap := func(eval core.Evaluator) core.Evaluator {
		re, err := robust.Wrap(nil, ckpt.WrapCell(robust.RunKey, inj.Wrap(eval)), robust.Options{
			MaxRetries:    4,
			Backoff:       time.Millisecond,
			Policy:        robust.PolicySkip,
			NumObjectives: len(space.Metrics),
			Sleep:         func(time.Duration) {},
		})
		if err != nil {
			t.Fatal(err)
		}
		return re.Evaluate
	}
	out, err := RunMethodOpts(PPATuner, s, space, 9, RunOpts{Wrap: wrap})
	if err != nil {
		t.Fatalf("fault-stack run failed: %v", err)
	}
	if len(out.ParetoIdx) == 0 || out.Runs == 0 {
		t.Fatalf("degenerate outcome: %+v", out)
	}
	hv, adrs := Score(s, space, out)
	if hv < 0 || hv > 1 || adrs < 0 {
		t.Errorf("scores out of range: hv=%g adrs=%g", hv, adrs)
	}
	if inj.Counts().Transient == 0 {
		t.Error("chaos injected nothing at a 25% rate")
	}
	if len(ckpt.PartialObservations(robust.RunKey)) == 0 {
		t.Error("checkpoint cached nothing")
	}
}
