package shard

import (
	"sync"

	"ppatuner/internal/eval"
)

// scenEntry is one cache slot; once ensures a scenario builds exactly once
// even with concurrent resolvers.
type scenEntry struct {
	once sync.Once
	sc   *eval.Scenario
	err  error
}

// ScenarioCache memoises scenario resolution across RunWorker sessions by
// the scenario identity carried in UnitSpec.Scenario. Building a scenario
// regenerates its benchmark datasets (~10s of synthesis and
// characterisation for Scenario Two, ~30s for Scenario One, on two cores),
// which RunWorker already avoids repeating *within* one session; this cache
// extends that across sessions, so a worker that rejoins after a
// coordinator fail-over — or serves several campaigns under -rejoin — pays
// the regeneration exactly once per scenario for the life of the process.
type ScenarioCache struct {
	resolve func(name string) (*eval.Scenario, error)
	mu      sync.Mutex
	entries map[string]*scenEntry
}

// NewScenarioCache wraps resolve (nil defaults to eval.StandardScenario)
// in a process-lifetime cache. Pass the cache's Resolve as
// WorkerOptions.Scenario.
func NewScenarioCache(resolve func(name string) (*eval.Scenario, error)) *ScenarioCache {
	if resolve == nil {
		resolve = eval.StandardScenario
	}
	return &ScenarioCache{resolve: resolve, entries: map[string]*scenEntry{}}
}

// Resolve returns the cached scenario, building it on first use. Failures
// are not cached: the entry is evicted so a later attempt retries (the
// waiters of the failed round all see the error).
func (c *ScenarioCache) Resolve(name string) (*eval.Scenario, error) {
	c.mu.Lock()
	e, ok := c.entries[name]
	if !ok {
		e = &scenEntry{}
		c.entries[name] = e
	}
	c.mu.Unlock()
	e.once.Do(func() { e.sc, e.err = c.resolve(name) })
	if e.err != nil {
		c.mu.Lock()
		if c.entries[name] == e {
			delete(c.entries, name)
		}
		c.mu.Unlock()
		return nil, e.err
	}
	return e.sc, nil
}
