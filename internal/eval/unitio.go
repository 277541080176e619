package eval

import (
	"fmt"
	"strconv"
	"strings"

	"ppatuner/internal/core"
	"ppatuner/internal/robust"
)

// UnitSpec is the wire form of one campaign work unit: scenario, space and
// method by name plus the seed — everything a worker process needs to
// reconstruct the unit, with no pointers into the coordinator's memory. Its
// Key matches Campaign.UnitKey, so specs, checkpoint entries and lease
// records all index the same identity.
type UnitSpec struct {
	Scenario string `json:"scenario"`
	Space    string `json:"space"`
	Method   Method `json:"method"`
	Seed     int64  `json:"seed"`
}

// Key is the unit's stable checkpoint identity (same spelling as
// Campaign.UnitKey).
func (s UnitSpec) Key() string {
	return fmt.Sprintf("%s|%s|%s|seed=%d", s.Scenario, s.Space, s.Method, s.Seed)
}

// Spec exports a unit in wire form.
func (c *Campaign) Spec(u Unit) UnitSpec {
	return UnitSpec{
		Scenario: c.Scenario.Name,
		Space:    c.spaces()[u.SpaceIdx].Name,
		Method:   u.Method,
		Seed:     u.Seed,
	}
}

// SpaceByName resolves one of the paper's objective spaces from its table
// heading — the inverse of ObjSpace.Name for wire-form units.
func SpaceByName(name string) (ObjSpace, error) {
	for _, s := range Spaces() {
		if s.Name == name {
			return s, nil
		}
	}
	return ObjSpace{}, fmt.Errorf("eval: unknown objective space %q", name)
}

// StandardScenario rebuilds one of the paper's scenarios from its name —
// the worker-side resolver for wire-form units. Scenario construction
// regenerates the benchmark datasets, so resolve once per process and reuse.
func StandardScenario(name string) (*Scenario, error) {
	switch name {
	case ScenarioOneName:
		return ScenarioOne()
	case ScenarioTwoName:
		return ScenarioTwo()
	}
	return nil, fmt.Errorf("eval: unknown scenario %q", name)
}

// UnitStartState is the serialised state of the fresh per-unit random
// source — what a unit's RNG looks like before its first draw. The
// coordinator records it via StartCell when first granting a unit, and a
// worker granted a unit with no recorded state derives the same bytes
// itself, so both sides agree without shipping generators around.
func UnitStartState(spec UnitSpec) ([]byte, error) {
	return core.NewPCGSource(uint64(spec.Seed), unitSalt(spec.Key())).MarshalBinary()
}

// ExecuteUnit runs one wire-form unit to completion: the worker-process
// counterpart of Campaign.runUnit. The unit's random source is restored
// from randState (nil starts fresh from the seed), replay observations
// answer their pool indices without touching the tool — bit-for-bit the
// draws a crashed or pre-empted holder already paid for — and every fresh
// valid observation is reported through onFresh before the run proceeds,
// so the caller can stream it to the coordinator. Middleware composes as
// in Campaign.runUnit: the replay cache sits inside base.Wrap, so
// fault-tolerance retries re-enter the cache-miss path and invalid vectors
// are passed up (never cached, never streamed). Returns the scored result
// and the source's serialised end state.
func ExecuteUnit(sc *Scenario, space ObjSpace, spec UnitSpec, randState []byte, replay []robust.Observation, base RunOpts, onFresh func(robust.Observation) error) (UnitResult, []byte, error) {
	src := core.NewPCGSource(uint64(spec.Seed), unitSalt(spec.Key()))
	if randState != nil {
		if err := src.UnmarshalBinary(randState); err != nil {
			return UnitResult{}, nil, err
		}
	}
	cache := make(map[int][]float64, len(replay))
	for _, o := range replay {
		if _, dup := cache[o.Index]; dup {
			continue
		}
		cache[o.Index] = append([]float64(nil), o.QoR...)
	}
	opts := base
	opts.Src = src
	prev := base.Wrap
	opts.Wrap = func(ev core.Evaluator) core.Evaluator {
		cached := func(i int) ([]float64, error) {
			if y, ok := cache[i]; ok {
				return append([]float64(nil), y...), nil
			}
			y, err := ev(i)
			if err != nil {
				return nil, err
			}
			if robust.ValidateVector(y, 0) != nil {
				return y, nil
			}
			cache[i] = append([]float64(nil), y...)
			if onFresh != nil {
				if err := onFresh(robust.Observation{Index: i, QoR: append([]float64(nil), y...)}); err != nil {
					return nil, err
				}
			}
			return y, nil
		}
		if prev != nil {
			return prev(core.Evaluator(cached))
		}
		return cached
	}
	out, err := RunMethodOpts(spec.Method, sc, space, spec.Seed, opts)
	if err != nil {
		return UnitResult{}, nil, err
	}
	hv, adrs := Score(sc, space, out)
	end, err := src.MarshalBinary()
	if err != nil {
		return UnitResult{}, nil, err
	}
	return UnitResult{HV: hv, ADRS: adrs, Runs: out.Runs}, end, nil
}

// maxSeeds caps how many seeds ParseSeeds accepts: each seed adds one unit
// per table cell, and the CLIs default to 3.
const maxSeeds = 1000

// ParseSeeds accepts a count ("3" → seeds 1..3) or an explicit list
// ("1,2,5"; "7," is the single seed 7) — the shared CLI spelling of
// cmd/tables and cmd/ppacoord, and of the seeds field of a ppaserved job.
// Either form names 1 to maxSeeds distinct seeds; a repeated seed is an
// error, since both entries would name one checkpoint cell.
func ParseSeeds(spec string) ([]int64, error) {
	spec = strings.TrimSpace(spec)
	if strings.Contains(spec, ",") {
		var seeds []int64
		for _, part := range strings.Split(spec, ",") {
			part = strings.TrimSpace(part)
			if part == "" {
				continue
			}
			if len(seeds) == maxSeeds {
				return nil, fmt.Errorf("seed list names more than %d seeds", maxSeeds)
			}
			s, err := strconv.ParseInt(part, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("seed %q is not an integer", part)
			}
			seeds = append(seeds, s)
		}
		if len(seeds) == 0 {
			return nil, fmt.Errorf("seed list %q is empty", spec)
		}
		if s, dup := repeatedSeed(seeds); dup {
			return nil, fmt.Errorf("seed %d is listed twice", s)
		}
		return seeds, nil
	}
	n, err := strconv.Atoi(spec)
	if err != nil || n < 1 || n > maxSeeds {
		return nil, fmt.Errorf("-seeds wants a count from 1 to %d or a comma-separated list, got %q", maxSeeds, spec)
	}
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	return seeds, nil
}

// repeatedSeed returns the first seed that seeds lists twice.
func repeatedSeed(seeds []int64) (int64, bool) {
	seen := make(map[int64]bool, len(seeds))
	for _, s := range seeds {
		if seen[s] {
			return s, true
		}
		seen[s] = true
	}
	return 0, false
}
