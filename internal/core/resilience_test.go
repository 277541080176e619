package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
)

// TestSkipCandidateSurvivesRun: an evaluator that terminally fails on some
// candidates must not abort the run — the tuner marks them Failed and keeps
// going.
func TestSkipCandidateSurvivesRun(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	pool := synthPool(rng, 100)
	dead := map[int]bool{3: true, 17: true, 42: true, 71: true}
	ev := func(i int) ([]float64, error) {
		if dead[i] {
			return nil, fmt.Errorf("tool cannot route candidate %d: %w", i, ErrSkipCandidate)
		}
		return synthObj(pool[i]), nil
	}
	tn, err := New(pool, ev, defaultOpts(rng))
	if err != nil {
		t.Fatal(err)
	}
	res, err := tn.Run()
	if err != nil {
		t.Fatalf("run aborted despite skip policy: %v", err)
	}
	if len(res.ParetoIdx) == 0 {
		t.Fatal("no Pareto candidates despite surviving failures")
	}
	for _, i := range res.FailedIdx {
		if !dead[i] {
			t.Errorf("candidate %d reported failed but was healthy", i)
		}
		if res.Status[i] != Failed {
			t.Errorf("candidate %d status = %v, want Failed", i, res.Status[i])
		}
	}
	// A dead candidate the tuner never selected can legitimately stay
	// classified Pareto (its failure is unobservable); but one that *did*
	// fail must never be returned.
	failed := map[int]bool{}
	for _, i := range res.FailedIdx {
		failed[i] = true
	}
	for _, i := range res.ParetoIdx {
		if failed[i] {
			t.Errorf("failed candidate %d classified Pareto-optimal", i)
		}
	}
	for _, i := range res.EvaluatedIdx {
		if dead[i] {
			t.Errorf("failed candidate %d counted as evaluated", i)
		}
	}
}

// TestSkipDuringInitialisationDrawsReplacement: init failures must not starve
// the surrogate seed — the next random draw replaces the failed candidate.
func TestSkipDuringInitialisationDrawsReplacement(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	pool := synthPool(rng, 60)
	failFirst := 3 // fail the first three distinct candidates seen
	seen := 0
	dead := map[int]bool{}
	ev := func(i int) ([]float64, error) {
		if seen < failFirst && !dead[i] {
			seen++
			dead[i] = true
		}
		if dead[i] {
			return nil, fmt.Errorf("boom: %w", ErrSkipCandidate)
		}
		return synthObj(pool[i]), nil
	}
	opt := defaultOpts(rng)
	tn, err := New(pool, ev, opt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tn.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.FailedIdx) != failFirst {
		t.Errorf("failed = %v, want %d entries", res.FailedIdx, failFirst)
	}
	// The init design must still be full-size: InitTarget successes.
	if res.Runs < opt.InitTarget {
		t.Errorf("runs = %d < InitTarget %d: init not replenished", res.Runs, opt.InitTarget)
	}
}

// TestAllInitFailsIsTerminal: when every candidate fails, there is nothing to
// tune — the run must error out, not spin.
func TestAllInitFailsIsTerminal(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	pool := synthPool(rng, 20)
	ev := func(i int) ([]float64, error) { return nil, fmt.Errorf("dead: %w", ErrSkipCandidate) }
	tn, err := New(pool, ev, defaultOpts(rng))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tn.Run(); err == nil {
		t.Fatal("run succeeded with zero observations")
	}
}

// TestNaNObjectiveRejected: NaN/Inf QoR must produce a descriptive error, not
// poisoned surrogates.
func TestNaNObjectiveRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	pool := synthPool(rng, 20)
	for _, bad := range [][]float64{{math.NaN(), 1}, {1, math.Inf(1)}, {1, math.Inf(-1)}} {
		ev := func(i int) ([]float64, error) { return bad, nil }
		tn, err := New(pool, ev, defaultOpts(rng))
		if err != nil {
			t.Fatal(err)
		}
		_, err = tn.Run()
		if err == nil {
			t.Fatalf("vector %v accepted", bad)
		}
	}
}

// TestRunContextCancellation: a cancelled context stops the run with
// ctx.Err().
func TestRunContextCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	pool := synthPool(rng, 60)
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	ev := func(i int) ([]float64, error) {
		calls++
		if calls == 5 {
			cancel()
		}
		return synthObj(pool[i]), nil
	}
	tn, err := New(pool, ev, defaultOpts(rng))
	if err != nil {
		t.Fatal(err)
	}
	_, err = tn.RunContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if calls > 6 {
		t.Errorf("evaluator called %d more times after cancellation", calls-5)
	}
}

// TestRunContextPreCancelled: a context cancelled before the run starts must
// stop it before any tool invocation.
func TestRunContextPreCancelled(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	pool := synthPool(rng, 20)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	calls := 0
	ev := func(i int) ([]float64, error) { calls++; return synthObj(pool[i]), nil }
	tn, err := New(pool, ev, defaultOpts(rng))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tn.RunContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if calls != 0 {
		t.Errorf("evaluator called %d times under a dead context", calls)
	}
}

// TestConcurrentBatchMatchesSequential: with Batch > 1, running the
// evaluations on a worker pool must give bit-identical results to the
// sequential path — concurrency only reorders tool invocations, never
// surrogate updates.
func TestConcurrentBatchMatchesSequential(t *testing.T) {
	pool := synthPool(rand.New(rand.NewSource(27)), 120)
	run := func(workers int) *Result {
		rng := rand.New(rand.NewSource(28))
		opt := defaultOpts(rng)
		opt.Batch = 4
		opt.Workers = workers
		tn, err := New(pool, poolEval(pool, synthObj, nil), opt)
		if err != nil {
			t.Fatal(err)
		}
		res, err := tn.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	seq := run(1)
	par := run(4)
	if seq.Runs != par.Runs || seq.Iters != par.Iters {
		t.Fatalf("sequential %d runs/%d iters, parallel %d/%d", seq.Runs, seq.Iters, par.Runs, par.Iters)
	}
	if len(seq.ParetoIdx) != len(par.ParetoIdx) {
		t.Fatalf("pareto sizes differ: %d vs %d", len(seq.ParetoIdx), len(par.ParetoIdx))
	}
	for k := range seq.ParetoIdx {
		if seq.ParetoIdx[k] != par.ParetoIdx[k] {
			t.Fatal("pareto sets differ between worker counts")
		}
	}
	for k := range seq.EvaluatedIdx {
		if seq.EvaluatedIdx[k] != par.EvaluatedIdx[k] {
			t.Fatal("evaluation orders differ between worker counts")
		}
	}
}

// TestConcurrentBatchActuallyRunsConcurrently: the worker pool must overlap
// evaluator calls (bounded by Workers).
func TestConcurrentBatchActuallyRunsConcurrently(t *testing.T) {
	pool := synthPool(rand.New(rand.NewSource(29)), 150)
	var inFlight, peak atomic.Int32
	gate := make(chan struct{})
	close(gate)
	ev := func(i int) ([]float64, error) {
		n := inFlight.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		<-gate
		inFlight.Add(-1)
		return synthObj(pool[i]), nil
	}
	rng := rand.New(rand.NewSource(30))
	opt := defaultOpts(rng)
	opt.Batch = 6
	opt.Workers = 3
	tn, err := New(pool, ev, opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tn.Run(); err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > 3 {
		t.Errorf("peak in-flight evaluations = %d, want <= Workers (3)", p)
	}
}

// TestBatchSkipAndErrorMix: in one batch, a skip retires its candidate while
// a hard error aborts the run.
func TestBatchSkipAndErrorMix(t *testing.T) {
	pool := synthPool(rand.New(rand.NewSource(31)), 80)
	boom := errors.New("hard failure")
	run := func(hardFail bool) (*Result, error) {
		rng := rand.New(rand.NewSource(32))
		opt := defaultOpts(rng)
		opt.Batch = 3
		opt.MaxIter = 30
		// observeBatch evaluates a batch's candidates concurrently, so the
		// call counter is atomic.
		var calls atomic.Int64
		ev := func(i int) ([]float64, error) {
			c := int(calls.Add(1))
			if c > opt.InitTarget { // past init: start failing
				if hardFail && c == opt.InitTarget+2 {
					return nil, boom
				}
				if c%4 == 0 {
					return nil, fmt.Errorf("soft: %w", ErrSkipCandidate)
				}
			}
			return synthObj(pool[i]), nil
		}
		tn, err := New(pool, ev, opt)
		if err != nil {
			t.Fatal(err)
		}
		return tn.Run()
	}
	if _, err := run(true); !errors.Is(err, boom) {
		t.Errorf("hard failure err = %v, want wrapped boom", err)
	}
	res, err := run(false)
	if err != nil {
		t.Fatalf("soft failures aborted the run: %v", err)
	}
	if len(res.FailedIdx) == 0 {
		t.Error("no candidates recorded failed despite soft failures")
	}
}

// TestWorkersDefaultsToBatch: the worker pool defaults to one worker per
// licence (Batch), but an explicit Workers may exceed Batch — the surplus
// accelerates the surrogate math even when tool licences are scarce.
func TestWorkersDefaultsToBatch(t *testing.T) {
	o := Options{NumObjectives: 2, Batch: 5}
	o.setDefaults()
	if o.Workers != 5 {
		t.Errorf("Workers = %d, want Batch (5)", o.Workers)
	}
	o = Options{NumObjectives: 2, Batch: 2, Workers: 9}
	o.setDefaults()
	if o.Workers != 9 {
		t.Errorf("Workers = %d, want 9 (explicit Workers is not clamped to Batch)", o.Workers)
	}
}

func TestStatusAlive(t *testing.T) {
	if !Undecided.alive() || !Pareto.alive() {
		t.Error("undecided/pareto must be alive")
	}
	if Dropped.alive() || Failed.alive() {
		t.Error("dropped/failed must not be alive")
	}
}
