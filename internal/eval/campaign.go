package eval

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"

	"ppatuner/internal/core"
	"ppatuner/internal/robust"
)

// Unit is one independent work item of a table campaign: a single
// (objective space, method, seed) tuning run on the campaign's scenario.
// Units are what the parallel scheduler distributes and what the campaign
// checkpoint keys progress by.
type Unit struct {
	SpaceIdx int
	Method   Method
	Seed     int64
}

// UnitResult is one unit's scored outcome. It crosses the shard wire
// protocol inside Msg.Result, so the json tags are wire format and locked
// by the wirecompat analyzer; it is never persisted to checkpoint files
// (CampaignCell is the durable form), which is why adding the explicit tags
// was a compatible change — both ends of the wire are always the same
// binary.
type UnitResult struct {
	HV   float64 `json:"hv"`
	ADRS float64 `json:"adrs"`
	Runs int     `json:"runs"`
}

// Campaign is a resumable, parallel table-regeneration run: it enumerates
// every (space × method × seed) cell of a comparison table as an
// independent unit, executes the units on Workers lanes that each pull the
// next unit in enumeration order, and — when a Checkpoint is attached —
// persists each completed unit plus the mid-run state (observations and
// RNG-source state) of units in flight. Results are assembled from a
// per-unit slice in enumeration order, so any Workers value produces a
// bit-identical Table; a resumed campaign skips completed units entirely
// and replays partial ones from their recorded state.
//
// Every unit derives its random stream from a PCG seeded by (seed, unit
// key), independent of the other units — which is both what makes the
// units order-free under parallel execution and what makes their RNG state
// individually checkpointable.
type Campaign struct {
	Scenario *Scenario
	Seeds    []int64
	// Spaces/Methods restrict the table's axes; nil means the paper's full
	// Spaces()/Methods() sets.
	Spaces  []ObjSpace
	Methods []Method
	// Workers is how many lanes run units concurrently; <= 1 runs them
	// serially. A free lane takes the next unit, so no lane waits behind a
	// busy one, and once fewer units are left than there are lanes, the
	// last units also get the engine workers of the lanes going idle (see
	// RunOpts.Workers). Purely a wall-clock knob: the assembled table and
	// the retired checkpoint are bit-identical for any value.
	Workers int
	// Checkpoint, when non-nil, makes the campaign crash-safe and
	// resumable. Load it with robust.LoadCampaignCheckpoint so an existing
	// file resumes. Nil keeps the campaign's progress in memory.
	Checkpoint *robust.CampaignCheckpoint
	// Opts is the base harness configuration applied to every unit (Wrap
	// middleware, engine workers). Opts.Workers is raised for the
	// campaign's last units (see Workers). A Wrap with a circuit breaker
	// (FaultConfig.Build) makes the campaign outage-tolerant: an evaluation
	// that meets the open breaker pauses until the tool is back, so an
	// outage stretches wall-clock time and never changes the table.
	Opts RunOpts
	// WrapUnit, when non-nil, wraps each unit's evaluator with the unit's
	// identity in hand — the hook for per-unit instrumentation (call
	// counters in tests, per-unit chaos). It composes innermost, beneath
	// the checkpoint cache, so it sees only fresh tool invocations, never
	// replayed observations.
	WrapUnit func(Unit, core.Evaluator) core.Evaluator
	// Gate, when non-nil, is consulted immediately before each unit starts
	// (completed units replayed from the checkpoint are never gated). A
	// non-nil error fails the unit with that error and thereby aborts the
	// campaign — the pause hook job-level schedulers (cmd/ppaserved) use to
	// drain a campaign at the next unit boundary: already-running units
	// keep streaming observations into the checkpoint, so nothing paid for
	// is lost and the campaign resumes exactly where it stopped.
	Gate func(Unit) error
	// OnUnit, when non-nil, observes each unit's scored outcome the moment
	// the unit finishes — after scoring, before the completion is recorded
	// in the checkpoint. A crash between the callback and the checkpoint
	// write re-runs the unit on resume and replays the callback with
	// bit-identical data (units are deterministic), so durable per-unit
	// side effects (the server's job manifest) stay consistent without
	// two-phase commit. Units already completed in the checkpoint are
	// skipped without a callback: whatever OnUnit persisted for them
	// persisted before their completion did. A non-nil error fails the
	// unit.
	OnUnit func(Unit, UnitResult, *Outcome) error
}

func (c *Campaign) spaces() []ObjSpace {
	if c.Spaces != nil {
		return c.Spaces
	}
	return Spaces()
}

func (c *Campaign) methods() []Method {
	if c.Methods != nil {
		return c.Methods
	}
	return Methods()
}

// Units enumerates the campaign's work items in deterministic order:
// space-major, then method, then seed — the order Run indexes results by.
func (c *Campaign) Units() []Unit {
	spaces, methods := c.spaces(), c.methods()
	units := make([]Unit, 0, len(spaces)*len(methods)*len(c.Seeds))
	for si := range spaces {
		for _, m := range methods {
			for _, seed := range c.Seeds {
				units = append(units, Unit{SpaceIdx: si, Method: m, Seed: seed})
			}
		}
	}
	return units
}

// UnitKey is the stable checkpoint identity of a unit: scenario, space,
// method and seed spelled out (UnitSpec.Key), so a checkpoint file is
// self-describing and one file can hold several tables' campaigns.
func (c *Campaign) UnitKey(u Unit) string {
	return c.Spec(u).Key()
}

// unitSalt folds a unit key into the second PCG seed word, decorrelating
// the per-unit random streams that share a seed.
func unitSalt(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return h.Sum64()
}

// unitSource is the unit's random stream: a PCG seeded by its seed and
// its key. Every run of a cell draws from it.
func unitSource(spec UnitSpec) *core.PCGSource {
	return core.NewPCGSource(uint64(spec.Seed), unitSalt(spec.Key()))
}

// Run executes every unit (skipping ones the checkpoint has completed) and
// assembles the comparison table. Every unit runs once; the first unit
// error in enumeration order fails the campaign — deterministically,
// regardless of which lane hit it first; mid-run state persisted before
// the error is kept, so a fixed and re-run campaign resumes rather than
// restarts. Once every unit is done, Run retires a never-adopted
// Checkpoint, folding its journal into the file, so the checkpoint on disk
// is one finished file when Run returns; the owner of an adopted one
// retires it.
func (c *Campaign) Run() (*Table, error) {
	if c.Scenario == nil {
		return nil, fmt.Errorf("eval: campaign has no scenario")
	}
	if len(c.Seeds) == 0 {
		return nil, fmt.Errorf("eval: campaign has no seeds")
	}
	if err := CheckAxes(c.spaces(), c.methods(), c.Seeds); err != nil {
		return nil, fmt.Errorf("eval: campaign: %w", err)
	}
	ck := c.Checkpoint
	if ck == nil {
		ck = robust.NewCampaignCheckpoint("")
	}
	units := c.Units()
	results := make([]UnitResult, len(units))
	errs := make([]error, len(units))
	c.runLanes(ck, units, results, errs)
	for x, err := range errs {
		if err != nil {
			return nil, c.unitError(units[x], err)
		}
	}
	if ck.Generation() == 0 {
		if err := ck.Retire(); err != nil {
			return nil, err
		}
	}
	return c.Assemble(results), nil
}

// Assemble reduces per-unit results — indexed in Units() enumeration order —
// to the comparison table, accumulating in seed order so the reduction is
// bit-identical however and wherever the units actually ran. It is the
// single assembly path for in-process campaigns and the distributed
// coordinator alike.
func (c *Campaign) Assemble(results []UnitResult) *Table {
	t := &Table{Scenario: c.Scenario, Methods: c.methods(), Spaces: c.spaces()}
	nm, nseed := len(t.Methods), len(c.Seeds)
	for si := range t.Spaces {
		rows := make([]Row, nm)
		for mi := range t.Methods {
			base := (si*nm + mi) * nseed
			rows[mi] = aggregate(t.Methods[mi], results[base:base+nseed])
		}
		t.Rows = append(t.Rows, rows)
	}
	return t
}

// runLanes runs every unit, in place into results and errs, on
// min(Workers, len(units)) lanes. Each lane claims the next unclaimed unit,
// in enumeration order, from one shared counter, so a free lane never waits
// behind a busy one. A unit claimed while fewer units are left unclaimed
// than there are lanes also gets the engine workers of the lanes about to
// go idle: its RunOpts.Workers is max(Opts.Workers, lanes - unclaimed).
// Units own their random streams and results slots, and the engine's
// parallel sections give the same result at any worker count, so only wall
// time depends on the lanes.
func (c *Campaign) runLanes(ck *robust.CampaignCheckpoint, units []Unit, results []UnitResult, errs []error) {
	lanes := min(max(c.Workers, 1), len(units))
	var next atomic.Int64
	lane := func() {
		for {
			k := int(next.Add(1)) - 1
			if k >= len(units) {
				return
			}
			opts := c.Opts
			opts.Workers = max(opts.Workers, lanes-(len(units)-k-1))
			results[k], errs[k] = c.runUnit(ck, units[k], opts)
		}
	}
	var wg sync.WaitGroup
	for range lanes - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lane()
		}()
	}
	lane()
	wg.Wait()
}

// unitError labels a unit failure with the cell it came from.
func (c *Campaign) unitError(u Unit, err error) error {
	return fmt.Errorf("eval: %s / %s / %s / seed %d: %w",
		c.Scenario.Name, c.spaces()[u.SpaceIdx].Name, u.Method, u.Seed, err)
}

// runUnit executes one unit on ck under base (the campaign's Opts with the
// unit's engine share) and completes its cell.
func (c *Campaign) runUnit(ck *robust.CampaignCheckpoint, u Unit, base RunOpts) (UnitResult, error) {
	spec := c.Spec(u)
	key := spec.Key()
	if cell, ok := ck.Done(key); ok {
		return UnitResult{HV: cell.HV, ADRS: cell.ADRS, Runs: cell.Runs}, nil
	}
	if c.Gate != nil {
		if err := c.Gate(u); err != nil {
			return UnitResult{}, err
		}
	}
	var inner func(core.Evaluator) core.Evaluator
	if c.WrapUnit != nil {
		inner = func(ev core.Evaluator) core.Evaluator { return c.WrapUnit(u, ev) }
	}
	out, res, _, err := RunCell(c.Scenario, c.spaces()[u.SpaceIdx], spec, ck, key, inner, base)
	if err != nil {
		return UnitResult{}, err
	}
	if c.OnUnit != nil {
		if err := c.OnUnit(u, res, out); err != nil {
			return UnitResult{}, err
		}
	}
	if err := ck.Complete(key, robust.CampaignCell{HV: res.HV, ADRS: res.ADRS, Runs: res.Runs}); err != nil {
		return UnitResult{}, err
	}
	return res, nil
}

// RunCell runs one table cell resumably on ck, under the cell key key
// (spec.Key() for a campaign unit, robust.RunKey for a single run): spec's
// method on sc in space, drawing from spec's unit stream. A cell with
// recorded RNG state restores it, so its observations replay under the
// draws that bought them; a fresh cell records the state it starts from.
// Middleware order, innermost first: inner (nil: none), which sees only
// fresh tool invocations, then ck's replay cache, then opts.Wrap, whose
// fault-tolerance layers belong outside the cache so retries re-enter the
// miss path. RunCell returns the outcome, its score and the source's end
// state. It never completes the cell: completing and retiring belong to
// ck's owner.
func RunCell(sc *Scenario, space ObjSpace, spec UnitSpec, ck *robust.CampaignCheckpoint, key string, inner func(core.Evaluator) core.Evaluator, opts RunOpts) (*Outcome, UnitResult, []byte, error) {
	src := unitSource(spec)
	if state, _ := ck.PartialRandState(key); state != nil {
		if err := src.UnmarshalBinary(state); err != nil {
			return nil, UnitResult{}, nil, err
		}
	} else {
		state, err := src.MarshalBinary()
		if err != nil {
			return nil, UnitResult{}, nil, err
		}
		if err := ck.StartCell(key, state); err != nil {
			return nil, UnitResult{}, nil, err
		}
	}
	outer := opts.Wrap
	opts.Wrap = func(ev core.Evaluator) core.Evaluator {
		if inner != nil {
			ev = inner(ev)
		}
		ev = ck.WrapCell(key, ev)
		if outer != nil {
			ev = outer(ev)
		}
		return ev
	}
	out, err := runMethod(spec.Method, sc, space, rand.New(src), opts)
	if err != nil {
		return nil, UnitResult{}, nil, err
	}
	end, err := src.MarshalBinary()
	if err != nil {
		return nil, UnitResult{}, nil, err
	}
	hv, adrs := Score(sc, space, out)
	return out, UnitResult{HV: hv, ADRS: adrs, Runs: out.Runs}, end, nil
}

// aggregate reduces one cell's per-seed results to mean ± sample standard
// deviation, accumulating in seed order so the reduction is bit-identical
// however the units were scheduled.
func aggregate(m Method, rs []UnitResult) Row {
	row := Row{Method: m}
	n := float64(len(rs))
	for _, r := range rs {
		row.HV += r.HV
		row.ADRS += r.ADRS
		row.Runs += float64(r.Runs)
	}
	row.HV /= n
	row.ADRS /= n
	row.Runs /= n
	if len(rs) > 1 {
		var vh, va, vr float64
		for _, r := range rs {
			dh := r.HV - row.HV
			da := r.ADRS - row.ADRS
			dr := float64(r.Runs) - row.Runs
			vh += dh * dh
			va += da * da
			vr += dr * dr
		}
		denom := n - 1
		row.HVStd = math.Sqrt(vh / denom)
		row.ADRSStd = math.Sqrt(va / denom)
		row.RunsStd = math.Sqrt(vr / denom)
	}
	return row
}
