package robust

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"

	"ppatuner/internal/core"
)

// Checkpoint is a crash-safe cache of tuner observations: evaluated pool
// indices with their golden QoR vectors, persisted as JSON after every
// successful evaluation (write-to-temp + atomic rename, so a kill mid-write
// never corrupts the file). Wrap an evaluator with it and a killed run,
// restarted with the same seed and pool, replays every paid-for observation
// from the file instead of re-invoking the tool — the tuner is deterministic
// given (seed, observations), so the resumed run converges to the identical
// Pareto set.
//
// Invalid vectors (NaN/Inf) are deliberately never cached: persisting
// garbage QoR would replay the corruption forever.
//
// Schema v2 additionally records the tuner's serialised RNG-source state
// and iteration count (SetRandState/SetIters), so a resumed run can restore
// the exact generator state instead of re-deriving it from the seed —
// recovery survives changes to the seed-derivation scheme between the
// crashed and the resumed process. Version-1 files (observations only) load
// transparently and are migrated to v2 on the next save.
type Checkpoint struct {
	mu        sync.Mutex
	path      string
	order     []int
	values    map[int][]float64
	randState []byte
	iters     int
	hits      int
	misses    int
}

// checkpointVersion is the schema version written by saveLocked.
const checkpointVersion = 2

// checkpointFile is the on-disk schema. Version 1 carried Runs only; v2
// adds the RNG-source state (base64 via encoding/json) and the iteration
// count of the run that produced the observations.
type checkpointFile struct {
	Version   int             `json:"version"`
	Runs      []checkpointRun `json:"runs"`
	RandState []byte          `json:"rand_state,omitempty"`
	Iters     int             `json:"iters,omitempty"`
}

type checkpointRun struct {
	Index int       `json:"index"`
	QoR   []float64 `json:"qor"`
}

// NewCheckpoint builds an empty checkpoint persisting to path. An empty path
// keeps the checkpoint in memory only (useful in tests).
func NewCheckpoint(path string) *Checkpoint {
	return &Checkpoint{path: path, values: map[int][]float64{}}
}

// LoadCheckpoint restores a checkpoint from path. A missing file is not an
// error: it yields an empty checkpoint, so the same call serves both a fresh
// start and a resume.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	c := NewCheckpoint(path)
	if path == "" {
		return c, nil
	}
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return c, nil
	}
	if err != nil {
		return nil, fmt.Errorf("robust: read checkpoint: %w", err)
	}
	var f checkpointFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("robust: parse checkpoint %s: %w", path, err)
	}
	if f.Version != 1 && f.Version != checkpointVersion {
		return nil, fmt.Errorf("robust: checkpoint %s has unsupported version %d", path, f.Version)
	}
	c.randState = f.RandState
	c.iters = f.Iters
	for _, r := range f.Runs {
		if err := ValidateVector(r.QoR, 0); err != nil {
			return nil, fmt.Errorf("robust: checkpoint %s entry %d: %v", path, r.Index, err)
		}
		if _, dup := c.values[r.Index]; dup {
			continue
		}
		c.order = append(c.order, r.Index)
		c.values[r.Index] = r.QoR
	}
	return c, nil
}

// Len is the number of cached observations.
func (c *Checkpoint) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.order)
}

// Stats reports cache hits (tool runs saved) and misses (tool runs made)
// since the checkpoint was created or loaded.
func (c *Checkpoint) Stats() (hits, misses int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// Lookup returns the cached golden vector for candidate i, if present.
func (c *Checkpoint) Lookup(i int) ([]float64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	y, ok := c.values[i]
	if !ok {
		return nil, false
	}
	return append([]float64(nil), y...), true
}

// Add records an observation and persists the checkpoint. Invalid vectors
// are rejected.
func (c *Checkpoint) Add(i int, y []float64) error {
	if err := ValidateVector(y, 0); err != nil {
		return fmt.Errorf("robust: refusing to checkpoint candidate %d: %v", i, err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.values[i]; !dup {
		c.order = append(c.order, i)
		c.values[i] = append([]float64(nil), y...)
	}
	return c.saveLocked()
}

// SetRandState records the tuner's serialised RNG-source state (schema v2)
// and persists. Record the state the source had when the run *started*: a
// resumed run restores it, replays the cached observations, and from there
// draws exactly the sequence the crashed run would have.
func (c *Checkpoint) SetRandState(state []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.randState = append([]byte(nil), state...)
	return c.saveLocked()
}

// RandState returns the recorded RNG-source state, nil when none was
// recorded (e.g. a migrated v1 file).
func (c *Checkpoint) RandState() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.randState == nil {
		return nil
	}
	return append([]byte(nil), c.randState...)
}

// SetIters records the run's iteration count (schema v2) and persists.
func (c *Checkpoint) SetIters(n int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.iters = n
	return c.saveLocked()
}

// Iters returns the recorded iteration count (0 for migrated v1 files).
func (c *Checkpoint) Iters() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.iters
}

// Save forces a persist of the current state (Add already persists; Save is
// for explicit flush points).
func (c *Checkpoint) Save() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.saveLocked()
}

func (c *Checkpoint) saveLocked() error {
	if c.path == "" {
		return nil
	}
	f := checkpointFile{
		Version:   checkpointVersion,
		Runs:      make([]checkpointRun, 0, len(c.order)),
		RandState: c.randState,
		Iters:     c.iters,
	}
	for _, i := range c.order {
		f.Runs = append(f.Runs, checkpointRun{Index: i, QoR: c.values[i]})
	}
	data, err := json.MarshalIndent(&f, "", " ")
	if err != nil {
		return fmt.Errorf("robust: encode checkpoint: %w", err)
	}
	if err := WriteFileAtomic(c.path, data); err != nil {
		return fmt.Errorf("robust: write checkpoint: %w", err)
	}
	return nil
}

// Wrap returns an evaluator that answers from the checkpoint when it can and
// writes through to it when it must invoke eval. Compose it *inside* a
// fault-tolerant Evaluator (robust retries re-enter the cache miss path;
// validation failures are never cached), and give the checkpoint file a
// stable location so the next process finds it.
func (c *Checkpoint) Wrap(eval core.Evaluator) core.Evaluator {
	return func(i int) ([]float64, error) {
		if y, ok := c.Lookup(i); ok {
			c.mu.Lock()
			c.hits++
			c.mu.Unlock()
			return y, nil
		}
		y, err := eval(i)
		if err != nil {
			return nil, err
		}
		c.mu.Lock()
		c.misses++
		c.mu.Unlock()
		if ValidateVector(y, 0) != nil {
			// Pass the garbage up for the resilience layer to reject and
			// retry; caching it would replay the corruption on resume.
			return y, nil
		}
		if err := c.Add(i, y); err != nil {
			return nil, err
		}
		return y, nil
	}
}
