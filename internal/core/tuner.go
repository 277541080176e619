// Package core implements PPATuner, the paper's contribution: a Pareto-
// driven, pool-based active-learning tuner whose surrogates are transfer
// Gaussian processes (one independent GP per QoR metric, Sec. 3.2.1).
//
// Each iteration performs the three stages of Algorithm 1:
//
//   - Model calibration: the transfer GPs predict mean and uncertainty for
//     every still-undecided candidate; per-candidate hyper-rectangles R(x)
//     (Eq. 9) are intersected into monotonically shrinking uncertainty
//     regions U_t(x) (Eq. 10).
//   - Decision-making: candidates δ-dominated by another candidate's
//     pessimistic corner are dropped (Eq. 11); candidates no optimistic
//     corner can δ-dominate are classified Pareto-optimal (Eq. 12).
//   - Selection: the candidate with the longest uncertainty-region diameter
//     is sent to the PD tool for golden QoR values (Eq. 13); batch variants
//     send the top-B.
//
// The tuner is generic over the evaluator: the benchmark harness answers
// evaluations from offline datasets, live users wire in a real tool run.
package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"

	"ppatuner/internal/gp"
	"ppatuner/internal/par"
	"ppatuner/internal/pareto"
)

// Evaluator returns the golden QoR objective vector of pool candidate i.
// It is the abstraction of "send the configuration to the PD tool".
type Evaluator func(i int) ([]float64, error)

// ErrSkipCandidate signals that evaluating a candidate failed terminally but
// the run should survive: the tuner marks the candidate Failed and continues
// the PAL loop instead of aborting. Fault-tolerant evaluator wrappers (see
// internal/robust) wrap their give-up errors with this sentinel; a raw
// evaluator can also return it directly for configurations it knows the tool
// cannot complete.
var ErrSkipCandidate = errors.New("core: skip candidate")

// Status classifies a pool candidate during the run.
type Status int8

const (
	// Undecided candidates are still being narrowed down.
	Undecided Status = iota
	// Dropped candidates are δ-dominated and out of the race (Eq. 11).
	Dropped
	// Pareto candidates are classified δ-accurate Pareto-optimal (Eq. 12).
	Pareto
	// Failed candidates could not be evaluated (terminal tool failure under a
	// skip policy); they are out of the race like Dropped, but for operational
	// rather than algorithmic reasons.
	Failed
)

// alive reports whether a candidate is still in the race: Failed candidates
// are excluded like Dropped ones.
func (s Status) alive() bool { return s != Dropped && s != Failed }

// Options configures PPATuner.
type Options struct {
	// NumObjectives is the dimension of the QoR objective space (2 or 3 in
	// the paper).
	NumObjectives int
	// SourceX/SourceY carry the historical (source-task) configurations and
	// their QoR values per objective: SourceY[k][j] is objective k of source
	// point j. Empty disables transfer (the tuner degenerates to plain PAL).
	SourceX [][]float64
	SourceY [][]float64
	// InitTarget is the number of random target-task evaluations used to
	// seed the surrogates (the paper uses ≤5% of the target dataset).
	InitTarget int
	// Tau scales the uncertainty hyper-rectangle: R(x) spans μ ± √Tau·σ
	// (Eq. 9). Default 9.
	Tau float64
	// DeltaFrac sets the relaxation vector δ as a fraction of each
	// objective's observed range at initialisation (Eq. 11/12). Default 0.02.
	DeltaFrac float64
	// MaxIter bounds tool evaluations after initialisation (T_max in
	// Algorithm 1). Default 300.
	MaxIter int
	// Batch evaluates the top-B longest-diameter candidates per iteration
	// (Sec. 3.3 licence parallelism). Default 1.
	Batch int
	// ARD enables per-dimension lengthscales.
	ARD bool
	// FitMaxEvals bounds each hyper-parameter fit (default 160).
	FitMaxEvals int
	// FitSubsample caps points per marginal-likelihood evaluation
	// (default 140).
	FitSubsample int
	// FixTransfer freezes the transfer parameters (ablation hook).
	FixTransfer bool
	// GlobalSelection reverts Eq. (13) to the vanilla PAL rule — the longest
	// diameter over all alive candidates — instead of restricting selection
	// to the optimistic Pareto frontier. The TCAD'19 baseline uses this.
	GlobalSelection bool
	// Workers bounds the tuner's concurrency: tool invocations within one
	// selection batch (Sec. 3.3: one worker per tool licence), the per-
	// objective surrogate fits, and the sharded region-update/classification
	// sweeps over the pool. Default: Batch. It may exceed Batch when the
	// machine has more cores than tool licences — the extra workers then
	// speed up the surrogate math only. Every parallel section applies its
	// results in deterministic order, so any worker count reproduces the
	// serial run exactly.
	Workers int
	// Rng drives the initial design. Either Rng or Src is required; when Rng
	// is nil a generator is built from Src.
	Rng *rand.Rand
	// Src, when non-nil, is the random source behind the tuner's generator.
	// Supplying a source with serialisable state (e.g. *PCGSource, backed by
	// math/rand/v2's PCG) lets checkpointing layers snapshot and restore the
	// exact RNG state via Tuner.RandState, so a resumed run replays the same
	// draws without re-deriving the generator from a seed.
	Src rand.Source
}

func (o *Options) setDefaults() {
	if o.Tau <= 0 {
		o.Tau = 9
	}
	if o.DeltaFrac <= 0 {
		o.DeltaFrac = 0.02
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 300
	}
	if o.Batch <= 0 {
		o.Batch = 1
	}
	if o.FitMaxEvals <= 0 {
		o.FitMaxEvals = 160
	}
	if o.FitSubsample <= 0 {
		o.FitSubsample = 140
	}
	if o.InitTarget <= 0 {
		o.InitTarget = 10
	}
	if o.Workers <= 0 {
		o.Workers = o.Batch
	}
}

// Result is the tuner outcome.
type Result struct {
	// ParetoIdx are the pool indices classified (δ-accurate) Pareto-optimal.
	ParetoIdx []int
	// EvaluatedIdx are the pool indices evaluated by the tool, in order.
	EvaluatedIdx []int
	// FailedIdx are the pool indices whose evaluation failed terminally under
	// a skip policy (ErrSkipCandidate), in failure order. The run survived
	// without their QoR.
	FailedIdx []int
	// Runs is the number of tool evaluations, including initialisation.
	Runs int
	// Iters is the number of tuning iterations executed.
	Iters int
	// Status is the final per-candidate classification.
	Status []Status
	// Rho is the learned cross-task correlation per objective (transfer
	// diagnostics; all 1 when no source data).
	Rho []float64
}

// Tuner is the reusable PPATuner engine. Construct with New, run with Run.
type Tuner struct {
	opt  Options
	pool [][]float64
	eval Evaluator

	gps    []*gp.GP
	status []Status
	// lo/hi are the uncertainty-region corners per candidate per objective.
	lo, hi [][]float64
	// known maps evaluated candidates to their golden vectors.
	known map[int][]float64
	// scale normalises objectives for the diameter computation.
	scale []float64
	delta []float64

	evaluated []int
	failed    []int
	refitAt   []int
	iters     int

	// live lists, in ascending order, the candidates the region sweep still
	// predicts: alive and unevaluated as of the last decide (keepLive), so it
	// also holds the candidates evaluated or failed since. Every GP's pool
	// cache is restricted to it.
	live []int
	// inNdLo is decide's classification skyline: the alive candidates whose
	// optimistic corners are non-dominated. selectBatch's frontier is the
	// same set, since classification changes neither the alive set nor lo.
	inNdLo map[int]bool
}

// New validates inputs and builds a tuner over the candidate pool (points in
// the normalised parameter space of the target task).
func New(pool [][]float64, eval Evaluator, opt Options) (*Tuner, error) {
	if len(pool) == 0 {
		return nil, errors.New("core: empty candidate pool")
	}
	if eval == nil {
		return nil, errors.New("core: nil evaluator")
	}
	if opt.NumObjectives < 1 {
		return nil, fmt.Errorf("core: NumObjectives = %d", opt.NumObjectives)
	}
	if opt.Rng == nil && opt.Src != nil {
		opt.Rng = rand.New(opt.Src)
	}
	if opt.Rng == nil {
		return nil, errors.New("core: Options.Rng (or Options.Src) is required for reproducibility")
	}
	if len(opt.SourceY) != 0 && len(opt.SourceY) != opt.NumObjectives {
		return nil, fmt.Errorf("core: SourceY has %d objectives, want %d", len(opt.SourceY), opt.NumObjectives)
	}
	for k := range opt.SourceY {
		if len(opt.SourceY[k]) != len(opt.SourceX) {
			return nil, fmt.Errorf("core: SourceY[%d] has %d values, SourceX has %d points", k, len(opt.SourceY[k]), len(opt.SourceX))
		}
	}
	dim := len(pool[0])
	for i, p := range pool {
		if len(p) != dim {
			return nil, fmt.Errorf("core: pool point %d has dim %d, want %d", i, len(p), dim)
		}
	}
	opt.setDefaults()
	return &Tuner{opt: opt, pool: pool, eval: eval, known: map[int][]float64{}}, nil
}

// Run executes Algorithm 1 and returns the predicted Pareto-optimal set.
func (t *Tuner) Run() (*Result, error) {
	return t.RunContext(context.Background())
}

// RunContext executes Algorithm 1 under a context: cancelling ctx stops the
// run between tool evaluations (and, with a context-aware evaluator wrapper
// such as robust.Evaluator, inside them) and returns ctx.Err(). Evaluation
// errors wrapping ErrSkipCandidate mark the candidate Failed and the loop
// continues; any other evaluation error aborts the run.
func (t *Tuner) RunContext(ctx context.Context) (*Result, error) {
	if err := t.initialise(ctx); err != nil {
		return nil, err
	}
	for t.iters = 0; t.iters < t.opt.MaxIter; t.iters++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Model calibration: shrink uncertainty regions (Eq. 9–10).
		t.updateRegions()
		// Decision-making: drop and classify (Eq. 11–12).
		t.decide()
		if !t.anyUndecided() {
			break
		}
		// Selection: evaluate the longest-diameter candidates (Eq. 13).
		picks := t.selectBatch()
		if len(picks) == 0 {
			break
		}
		if err := t.observeBatch(ctx, picks); err != nil {
			return nil, err
		}
		if err := t.maybeRefit(); err != nil {
			return nil, err
		}
	}
	res := &Result{
		EvaluatedIdx: append([]int(nil), t.evaluated...),
		FailedIdx:    append([]int(nil), t.failed...),
		Runs:         len(t.evaluated),
		Iters:        t.iters,
		Status:       append([]Status(nil), t.status...),
	}
	// The predicted Pareto set is the classified candidates plus the
	// non-dominated evaluated points: evaluations are golden QoR the tool
	// already produced, so discarding them would waste tool runs — the paper
	// feeds exactly this prediction set back through the flow.
	inSet := map[int]bool{}
	for i, s := range t.status {
		if s == Pareto {
			inSet[i] = true
		}
	}
	for _, i := range pareto.FrontKeys(t.known) {
		inSet[i] = true
	}
	for i := range t.status {
		if inSet[i] {
			res.ParetoIdx = append(res.ParetoIdx, i)
		}
	}
	for _, g := range t.gps {
		res.Rho = append(res.Rho, g.Rho())
	}
	return res, nil
}

// initialise seeds the transfer GPs with source data and a random target
// design, fits hyper-parameters, and attaches the candidate pool.
func (t *Tuner) initialise(ctx context.Context) error {
	n := len(t.pool)
	t.status = make([]Status, n)
	t.lo = make([][]float64, n)
	t.hi = make([][]float64, n)
	for i := range t.lo {
		t.lo[i] = make([]float64, t.opt.NumObjectives)
		t.hi[i] = make([]float64, t.opt.NumObjectives)
		for k := range t.lo[i] {
			t.lo[i][k] = math.Inf(-1)
			t.hi[i][k] = math.Inf(1)
		}
	}

	// Random initial target design. The permutation covers the whole pool so
	// that candidates failing terminally under a skip policy can be replaced
	// by the next random draw; the fault-free path consumes exactly the first
	// init entries, preserving seed-for-seed behaviour.
	init := t.opt.InitTarget
	if init > n {
		init = n
	}
	perm := t.opt.Rng.Perm(n)
	initX := make([][]float64, 0, init)
	initY := make([][]float64, 0, init)
	for _, i := range perm {
		if len(initY) == init {
			break
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		y, err := t.eval(i)
		if err != nil {
			if errors.Is(err, ErrSkipCandidate) {
				t.fail(i)
				continue
			}
			return fmt.Errorf("core: initial evaluation %d: %w", i, err)
		}
		if err := validateObjectives(y, t.opt.NumObjectives); err != nil {
			return fmt.Errorf("core: initial evaluation %d: %w", i, err)
		}
		t.known[i] = y
		t.evaluated = append(t.evaluated, i)
		initX = append(initX, t.pool[i])
		initY = append(initY, y)
	}
	if len(initY) == 0 {
		return errors.New("core: every initial evaluation failed; no data to seed the surrogates")
	}

	// Objective scales and δ from observed values (init + source).
	t.scale = make([]float64, t.opt.NumObjectives)
	t.delta = make([]float64, t.opt.NumObjectives)
	for k := 0; k < t.opt.NumObjectives; k++ {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, y := range initY {
			lo = math.Min(lo, y[k])
			hi = math.Max(hi, y[k])
		}
		span := hi - lo
		if span <= 0 || math.IsInf(span, 0) {
			span = math.Max(math.Abs(hi), 1e-9)
		}
		t.scale[k] = span
		t.delta[k] = t.opt.DeltaFrac * span
	}

	// Per-objective transfer GPs. The objectives are modelled independently
	// (Sec. 3.2.1), so their builds — including the expensive hyper-parameter
	// fits — run concurrently when Workers allows. Each goroutine touches
	// only its own GP and reads shared inputs, and errors are reported in
	// objective order, so the outcome is identical to the sequential build.
	dim := len(t.pool[0])
	t.gps = make([]*gp.GP, t.opt.NumObjectives)
	reserve := t.opt.MaxIter * t.opt.Batch
	if reserve > len(t.pool) {
		reserve = len(t.pool)
	}
	buildGP := func(k int) error {
		g := gp.New(gp.RBF, dim, t.opt.ARD)
		if len(t.opt.SourceX) > 0 {
			if err := g.SetSource(t.opt.SourceX, t.opt.SourceY[k]); err != nil {
				return err
			}
		}
		ys := make([]float64, len(initY))
		for j, y := range initY {
			ys[j] = y[k]
		}
		if err := g.SetTarget(initX, ys); err != nil {
			return err
		}
		g.ReserveAdds(reserve)
		g.SetWorkers(t.opt.Workers)
		if err := g.Fit(gp.FitOptions{MaxEvals: t.opt.FitMaxEvals, Subsample: t.opt.FitSubsample, FixTransfer: t.opt.FixTransfer}); err != nil {
			return fmt.Errorf("core: initial fit objective %d: %w", k, err)
		}
		if err := g.AttachPool(t.pool); err != nil {
			return err
		}
		t.gps[k] = g
		return nil
	}
	if err := t.eachObjective(buildGP); err != nil {
		return err
	}

	// Refit schedule: geometric in target-observation count.
	base := len(t.evaluated)
	t.refitAt = []int{base + 20, base + 60, base + 140, base + 300}
	// The initial design stays in the live list until the first sweep has
	// copied its golden QoR into its regions.
	t.live = t.aliveIndices()
	return nil
}

// eachObjective runs fn(k) for every objective, concurrently when Workers
// allows. The first error in objective order wins, matching the sequential
// loop's behaviour.
func (t *Tuner) eachObjective(fn func(k int) error) error {
	nk := t.opt.NumObjectives
	if t.opt.Workers <= 1 || nk <= 1 {
		for k := 0; k < nk; k++ {
			if err := fn(k); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, nk)
	var wg sync.WaitGroup
	for k := 0; k < nk; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			errs[k] = fn(k)
		}(k)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// updateRegions intersects each live candidate's region with the current
// posterior hyper-rectangle. The other candidates' regions are final (see
// keepLive). Candidates touch disjoint state, so the live list is sharded
// across Workers goroutines; each candidate's arithmetic is the same as in
// the serial sweep, so any worker count produces identical regions.
func (t *Tuner) updateRegions() {
	beta := math.Sqrt(t.opt.Tau)
	par.Do(t.opt.Workers, len(t.live), func(lo, hi int) {
		t.updateRegionRange(beta, t.live[lo:hi])
	})
}

// updateRegionRange updates candidates idx. Those evaluated or failed since
// the last decide are still listed, so the alive and known checks stay.
// Alive, unevaluated candidates are predicted four at a time through
// PredictPool4, which equals four PredictPool calls bit for bit; the last
// one to three go through PredictPool.
func (t *Tuner) updateRegionRange(beta float64, idx []int) {
	var batch [4]int
	nb := 0
	for _, i := range idx {
		if !t.status[i].alive() {
			continue
		}
		if y, ok := t.known[i]; ok {
			copy(t.lo[i], y)
			copy(t.hi[i], y)
			continue
		}
		batch[nb] = i
		if nb++; nb < len(batch) {
			continue
		}
		nb = 0
		for k, g := range t.gps {
			mu, sd := g.PredictPool4(batch)
			for c, j := range batch {
				t.intersectRegion(j, k, beta, mu[c], sd[c])
			}
		}
	}
	for _, j := range batch[:nb] {
		for k, g := range t.gps {
			mu, sd := g.PredictPool(j)
			t.intersectRegion(j, k, beta, mu, sd)
		}
	}
}

// intersectRegion intersects candidate i's region in objective k with the
// posterior interval mu ± beta·sd.
func (t *Tuner) intersectRegion(i, k int, beta, mu, sd float64) {
	lo := mu - beta*sd
	hi := mu + beta*sd
	// Monotone intersection (Eq. 10); a crossed region collapses to the
	// midpoint overlap.
	if lo > t.lo[i][k] {
		t.lo[i][k] = lo
	}
	if hi < t.hi[i][k] {
		t.hi[i][k] = hi
	}
	if t.lo[i][k] > t.hi[i][k] {
		m := (t.lo[i][k] + t.hi[i][k]) / 2
		t.lo[i][k] = m
		t.hi[i][k] = m
	}
}

// decide applies the dropping rule (Eq. 11) and the Pareto classification
// rule (Eq. 12), then shrinks the live list to what is left (keepLive).
//
// Both rules quantify over all alive candidates, but only the non-dominated
// corners matter: if any alive x' pessimistically δ-dominates x, then some
// member of the non-dominated set of pessimistic corners does too (weak
// dominance is transitive), and symmetrically for the optimistic corners of
// the classification rule. Testing against those skyline sets turns the
// naive O(n²) pass into O(n·|front|), which is what makes 5000-candidate
// pools tractable.
func (t *Tuner) decide() {
	alive := t.aliveIndices()
	// Dropping: x is dropped when some alive x' pessimistically δ-dominates
	// x's optimistic corner. Each shard decides its own candidates against
	// the pre-computed skyline and writes only status[i], so the parallel
	// sweep reaches exactly the serial verdicts.
	ndHi := skyline(alive, t.hi)
	par.Do(t.opt.Workers, len(alive), func(from, to int) {
		for _, i := range alive[from:to] {
			if t.status[i] != Undecided {
				continue
			}
			for _, j := range ndHi {
				if i == j {
					continue
				}
				if t.pessDominatesOpt(j, i) {
					t.status[i] = Dropped
					break
				}
			}
		}
	})
	// Classification: x becomes Pareto when no alive x' could still
	// δ-dominate x's pessimistic corner with its optimistic corner. The
	// alive snapshot and skyline are fixed before the sweep, so shards only
	// read shared state and write their own status entries.
	alive = t.aliveIndices()
	ndLo := skyline(alive, t.lo)
	inNdLo := make(map[int]bool, len(ndLo))
	for _, j := range ndLo {
		inNdLo[j] = true
	}
	t.inNdLo = inNdLo
	par.Do(t.opt.Workers, len(alive), func(from, to int) {
		for _, i := range alive[from:to] {
			if t.status[i] != Undecided {
				continue
			}
			safe := true
			for _, j := range ndLo {
				if i == j {
					continue
				}
				if t.optCouldDominatePess(j, i) {
					safe = false
					break
				}
			}
			// A skyline member may shadow its own blockers: when i itself is
			// in the skyline and no other skyline member blocks it, fall back
			// to a full scan (rare — at most |front| candidates per pass).
			if safe && inNdLo[i] {
				for _, j := range alive {
					if i == j {
						continue
					}
					if t.optCouldDominatePess(j, i) {
						safe = false
						break
					}
				}
			}
			if safe {
				t.status[i] = Pareto
			}
		}
	})
	t.keepLive()
}

// skyline returns the indices (subset of idx) whose corner vectors are
// non-dominated (minimal). It sorts by coordinate sum, ties broken by index,
// so each point only needs testing against the skyline found so far. Each
// sum is stored beside its index in the sorted slice, so the comparator
// does no lookups, and the typed slices.SortFunc makes no reflective swaps.
func skyline(idx []int, corner [][]float64) []int {
	type keyed struct {
		sum float64
		i   int
	}
	order := make([]keyed, len(idx))
	for k, i := range idx {
		var s float64
		for _, v := range corner[i] {
			s += v
		}
		order[k] = keyed{s, i}
	}
	slices.SortFunc(order, func(a, b keyed) int {
		switch {
		case a.sum < b.sum:
			return -1
		case a.sum != b.sum:
			return 1
		}
		return cmp.Compare(a.i, b.i)
	})
	var nd []int
	for _, o := range order {
		dominated := false
		for _, j := range nd {
			if weaklyDominates(corner[j], corner[o.i]) {
				dominated = true
				break
			}
		}
		if !dominated {
			nd = append(nd, o.i)
		}
	}
	return nd
}

// keepLive drops from the live list every candidate that is no longer alive
// or has been evaluated, and releases their pool caches in every GP. No
// candidate that leaves comes back, so its cache is never read again:
// Dropped and Failed are terminal (the only status writes are decide's,
// which only move Undecided candidates, and fail's), an evaluated
// candidate's region is its golden QoR, copied in by the sweep after its
// evaluation, and known only grows.
func (t *Tuner) keepLive() {
	live := t.live[:0]
	for _, i := range t.live {
		if _, done := t.known[i]; !done && t.status[i].alive() {
			live = append(live, i)
		}
	}
	t.live = live
	for _, g := range t.gps {
		g.KeepPool(live)
	}
}

func weaklyDominates(a, b []float64) bool {
	for k := range a {
		if a[k] > b[k] {
			return false
		}
	}
	return true
}

// pessDominatesOpt reports whether candidate j's pessimistic corner
// δ-dominates candidate i's optimistic corner: max(U(x')) ≤ min(U(x)) + δ.
func (t *Tuner) pessDominatesOpt(j, i int) bool {
	strict := false
	for k := range t.delta {
		if t.hi[j][k] > t.lo[i][k]+t.delta[k] {
			return false
		}
		if t.hi[j][k] < t.lo[i][k] {
			strict = true
		}
	}
	return strict
}

// optCouldDominatePess reports whether candidate j's optimistic corner could
// dominate candidate i's pessimistic corner by more than δ in every
// objective — the event that blocks Pareto classification of i.
func (t *Tuner) optCouldDominatePess(j, i int) bool {
	for k := range t.delta {
		if t.lo[j][k] > t.hi[i][k]-t.delta[k] {
			return false
		}
	}
	return true
}

func (t *Tuner) aliveIndices() []int {
	out := make([]int, 0, len(t.pool))
	for i, s := range t.status {
		if s.alive() {
			out = append(out, i)
		}
	}
	return out
}

func (t *Tuner) anyUndecided() bool {
	for _, s := range t.status {
		if s == Undecided {
			return true
		}
	}
	return false
}

// diameter is the scaled L2 length of the region's diagonal (Eq. 13).
func (t *Tuner) diameter(i int) float64 {
	var s float64
	for k := range t.scale {
		d := (t.hi[i][k] - t.lo[i][k]) / t.scale[k]
		s += d * d
	}
	return math.Sqrt(s)
}

// selectBatch returns the top-B longest-diameter unevaluated candidates
// among the undecided and predicted-Pareto points (the paper's selection
// scope explicitly includes both). Candidates are restricted to the
// *optimistic Pareto front* — points whose optimistic corner is not
// dominated by another alive candidate's optimistic corner: only those can
// still "benefit searching the Pareto set" (Sec. 3.2.4); resolving the
// uncertainty of a point that is optimistically dominated cannot change the
// front. That front is decide's classification skyline (inNdLo), and the
// unevaluated alive candidates are the live list keepLive just made.
func (t *Tuner) selectBatch() []int {
	type cand struct {
		idx int
		d   float64
	}
	var cands []cand
	for _, i := range t.live {
		if t.opt.GlobalSelection || t.inNdLo[i] {
			cands = append(cands, cand{i, t.diameter(i)})
		}
	}
	if len(cands) == 0 {
		// Every frontier point is already evaluated: fall back to the widest
		// alive region anywhere, so undecided points still get resolved.
		for _, i := range t.live {
			cands = append(cands, cand{i, t.diameter(i)})
		}
	}
	if len(cands) == 0 {
		return nil
	}
	// Partial selection of the top Batch by diameter.
	b := t.opt.Batch
	if b > len(cands) {
		b = len(cands)
	}
	for x := 0; x < b; x++ {
		best := x
		for y := x + 1; y < len(cands); y++ {
			if cands[y].d > cands[best].d {
				best = y
			}
		}
		cands[x], cands[best] = cands[best], cands[x]
	}
	out := make([]int, b)
	for x := 0; x < b; x++ {
		out[x] = cands[x].idx
	}
	return out
}

// validateObjectives rejects malformed QoR vectors before they reach the GP
// surrogates: a single NaN/Inf poisons every subsequent Cholesky factor and
// silently corrupts the whole run.
func validateObjectives(y []float64, want int) error {
	if len(y) != want {
		return fmt.Errorf("evaluator returned %d objectives, want %d", len(y), want)
	}
	for k, v := range y {
		if math.IsNaN(v) {
			return fmt.Errorf("evaluator returned NaN for objective %d (vector %v): refusing to poison the surrogates", k, y)
		}
		if math.IsInf(v, 0) {
			return fmt.Errorf("evaluator returned %v for objective %d (vector %v): refusing to poison the surrogates", v, k, y)
		}
	}
	return nil
}

// fail marks candidate i terminally failed and out of the race.
func (t *Tuner) fail(i int) {
	t.status[i] = Failed
	t.failed = append(t.failed, i)
}

// observe evaluates candidate i with the tool and updates the surrogates.
func (t *Tuner) observe(i int) error {
	y, err := t.eval(i)
	return t.record(i, y, err)
}

// record applies one evaluation outcome: a skip error retires the candidate,
// a valid vector feeds the surrogates.
func (t *Tuner) record(i int, y []float64, err error) error {
	if err != nil {
		if errors.Is(err, ErrSkipCandidate) {
			t.fail(i)
			return nil
		}
		return fmt.Errorf("core: evaluation %d: %w", i, err)
	}
	if err := validateObjectives(y, t.opt.NumObjectives); err != nil {
		return fmt.Errorf("core: evaluation %d: %w", i, err)
	}
	t.known[i] = y
	t.evaluated = append(t.evaluated, i)
	for k, g := range t.gps {
		if err := g.AddTarget(t.pool[i], y[k]); err != nil {
			return err
		}
	}
	return nil
}

// observeBatch evaluates the selected candidates, running up to Workers tool
// invocations concurrently (Sec. 3.3: one in-flight run per tool licence).
// Only the evaluator calls are concurrent; outcomes are applied to the
// surrogates sequentially in selection order, so the posterior — and with it
// the whole run — is deterministic regardless of goroutine scheduling.
func (t *Tuner) observeBatch(ctx context.Context, picks []int) error {
	if len(picks) == 1 || t.opt.Workers <= 1 {
		for _, i := range picks {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := t.observe(i); err != nil {
				return err
			}
		}
		return nil
	}
	type outcome struct {
		y   []float64
		err error
	}
	outs := make([]outcome, len(picks))
	sem := make(chan struct{}, t.opt.Workers)
	var wg sync.WaitGroup
	for j, i := range picks {
		wg.Add(1)
		go func(j, i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if err := ctx.Err(); err != nil {
				outs[j] = outcome{nil, err}
				return
			}
			y, err := t.eval(i)
			outs[j] = outcome{y, err}
		}(j, i)
	}
	wg.Wait()
	for j, i := range picks {
		if err := t.record(i, outs[j].y, outs[j].err); err != nil {
			return err
		}
	}
	return nil
}

// maybeRefit re-optimises the GP hyper-parameters at scheduled points: once
// when the evaluated count first reaches or passes each count in refitAt,
// so a batch that steps over a count refits at the end of that batch, and
// one that passes two counts refits once.
func (t *Tuner) maybeRefit() error {
	n := len(t.evaluated)
	due := false
	for len(t.refitAt) > 0 && n >= t.refitAt[0] {
		t.refitAt = t.refitAt[1:]
		due = true
	}
	if !due {
		return nil
	}
	// The per-objective refits are independent, so they run concurrently
	// under the same Workers bound as the initial fits.
	return t.eachObjective(func(k int) error {
		if err := t.gps[k].Fit(gp.FitOptions{MaxEvals: t.opt.FitMaxEvals, Subsample: t.opt.FitSubsample, FixTransfer: t.opt.FixTransfer}); err != nil {
			return fmt.Errorf("core: refit objective %d: %w", k, err)
		}
		return nil
	})
}

// DebugState summarises surrogate and region diagnostics (used by probes and
// examples; cheap, human-readable).
func (t *Tuner) DebugState() string {
	if t.gps == nil {
		return "core: not initialised"
	}
	s := ""
	for k, g := range t.gps {
		nt, _ := g.Noise()
		s += fmt.Sprintf("obj %d: rho=%.3f var=%.3f len=%v noiseT=%.2e scale=%.4g delta=%.4g\n",
			k, g.Rho(), g.Cov().Var, g.Cov().Len, nt, t.scale[k], t.delta[k])
	}
	// Region width stats over alive unevaluated points.
	wsum := make([]float64, len(t.delta))
	cnt := 0
	for i := range t.pool {
		if !t.status[i].alive() {
			continue
		}
		if _, done := t.known[i]; done {
			continue
		}
		for k := range t.delta {
			wsum[k] += t.hi[i][k] - t.lo[i][k]
		}
		cnt++
	}
	if cnt > 0 {
		for k := range t.delta {
			s += fmt.Sprintf("obj %d: avg region width %.4g (delta %.4g)\n", k, wsum[k]/float64(cnt), t.delta[k])
		}
	}
	return s
}
