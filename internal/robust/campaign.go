package robust

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"

	"ppatuner/internal/core"
)

// ErrFenced reports a checkpoint mutation rejected because a newer
// coordinator generation has adopted the file. A deposed primary that keeps
// writing after a standby takes over sees this error instead of corrupting
// the new owner's state; the only correct reaction is to stop coordinating.
var ErrFenced = errors.New("robust: checkpoint write fenced by a newer coordinator generation")

// CampaignCell is the persisted result of one completed campaign work unit
// (one scenario × objective-space × method × seed run).
type CampaignCell struct {
	HV   float64 `json:"hv"`
	ADRS float64 `json:"adrs"`
	Runs int     `json:"runs"`
}

// Observation is one (pool index, QoR vector) evaluation record — the unit
// of partial-cell progress that distributed workers stream back to the
// coordinator and that grants replay into a resumed unit.
type Observation struct {
	Index int       `json:"index"`
	QoR   []float64 `json:"qor"`
}

// LeaseRecord is the persisted state of one unit's lease: the highest epoch
// ever granted and who held it. Epochs are the zombie-detection currency of
// the distributed scheduler (internal/shard): persisting the high-water mark
// means a restarted coordinator keeps granting strictly increasing epochs,
// so a result computed under a pre-crash lease can never masquerade as
// current.
type LeaseRecord struct {
	Epoch  uint64 `json:"epoch"`
	Holder string `json:"holder,omitempty"`
}

// CampaignCheckpoint is the schema-v4 crash-safe store behind resumable
// table regeneration (internal/eval.Campaign) and resumable single runs
// (cmd/ppatune and cmd/fig3, whose run is the one partial cell RunKey). It
// persists these layers of progress under caller-chosen stable string keys:
//
//   - completed cells: the scored result of a finished unit, so a resumed
//     campaign skips the unit entirely — not a single evaluator call;
//   - partial cells: for units in flight, every paid-for observation plus
//     the serialised RNG-source state the unit started from. A resumed
//     unit restores the recorded RNG state and replays the observations,
//     reproducing the crashed run bit-for-bit without re-deriving anything
//     from the seed;
//   - lease records (schema v3): for distributed campaigns, each in-flight
//     unit's highest granted lease epoch and holder, so coordinator
//     restarts preserve epoch monotonicity and late results from dead
//     workers stay detectable;
//   - a coordinator generation (schema v4): a fencing token adopted via
//     Adopt by each coordinator run. Once adopted, every mutating save
//     first checks the generation recorded on disk and fails with
//     ErrFenced when a higher one appears — a deposed primary lingering
//     after a standby takeover is rejected rather than applied.
//
// Completion clears a unit's partial state and lease record alike, and
// Retire clears the generation once the campaign is done, so a finished
// campaign's file carries no trace of how bumpy the road was — which is
// exactly what makes a distributed, fault-ridden, failed-over run's final
// checkpoint byte-identical to a single-process fault-free one.
//
// Every mutation persists before it returns, and a kill at any point never
// corrupts the state. Each mutation — StartCell, Lease, an observation
// (AddPartialObservation and the WrapCell write-through) and Complete —
// appends one line to the journal beside the file (see journal.go). The
// whole file is rewritten (write-to-temp + atomic rename, removing the
// journal) only by the first mutation of a checkpoint with no file yet, by
// Adopt, and by Retire, which eval.Campaign.Run and shard.Coordinator.Run
// call for a never-adopted handle once the campaign completes. So a
// completed or retired campaign is one file in exactly the v4 format. (A
// handle that replayed a journal, or whose append failed, compacts on its
// next mutation instead: nothing is ever appended after a torn tail.) All
// methods are safe for concurrent use by parallel campaign workers.
// Version-2 files (no lease ledger), version-3 files (no generation) and
// legacy per-run files (see RunKey) load transparently and are migrated to
// v4 on the next compaction.
type CampaignCheckpoint struct {
	mu      sync.Mutex
	path    string
	cells   map[string]CampaignCell
	partial map[string]*partialState
	leases  map[string]LeaseRecord
	// generation is the fencing token this handle writes under. Zero means
	// the handle never adopted (single-process campaigns, serve jobs) and
	// saves are unfenced, preserving pre-v4 behaviour.
	generation uint64
	replayed   int
	fresh      int

	// jnl is the observation journal beside the base file.
	jnl journalLog
	// pin keeps the base file an adopted handle last wrote open, so the
	// per-append fence check is a stat comparison (ownsBase) instead of a
	// re-read of the file.
	pin *os.File
}

// partialState is the in-memory mid-run record of one unit.
type partialState struct {
	order     []int
	values    map[int][]float64
	randState []byte
}

// observe records QoR y for pool index i unless i is already recorded,
// reporting whether it was new. Arrival order is kept: it is the replay
// order a resumed unit sees.
func (p *partialState) observe(i int, y []float64) bool {
	if _, dup := p.values[i]; dup {
		return false
	}
	p.order = append(p.order, i)
	p.values[i] = y
	return true
}

// partialLocked returns key's partial state, creating an empty one (no RNG
// state recorded) on first use; callers hold c.mu.
func (c *CampaignCheckpoint) partialLocked(key string) *partialState {
	p, ok := c.partial[key]
	if !ok {
		p = &partialState{values: map[int][]float64{}}
		c.partial[key] = p
	}
	return p
}

// RunKey is the cell under which a single tuner run (cmd/ppatune,
// cmd/fig3) keeps its observations and starting RNG state. The cell is
// never completed, so rerunning with the same file replays every paid-for
// observation. A per-run checkpoint of schema v1 or v2 (checkpointFile),
// the format those commands wrote before, loads as this cell.
const RunKey = "run"

// checkpointFile is the legacy per-run checkpoint schema, a file with no
// kind: version 1 carried Runs only; version 2 added the RNG-source state
// (base64 via encoding/json). Only the loader reads it; a version-2 file's
// iteration count is ignored.
type checkpointFile struct {
	Version   int             `json:"version"`
	Runs      []checkpointRun `json:"runs"`
	RandState []byte          `json:"rand_state,omitempty"`
}

type checkpointRun struct {
	Index int       `json:"index"`
	QoR   []float64 `json:"qor"`
}

// campaignPartial is the on-disk form of partialState. Files written before
// the count of fresh evaluations was dropped also carry "iters", which
// loads ignore.
type campaignPartial struct {
	Runs      []checkpointRun `json:"runs,omitempty"`
	RandState []byte          `json:"rand_state,omitempty"`
}

// campaignFile is the on-disk schema. Kind distinguishes campaign files
// from the other state files; a file with no kind is a legacy per-run
// checkpoint (checkpointFile). Files written while campaigns parked units
// during outages may list them under "parked", which loads ignore.
type campaignFile struct {
	Version int                        `json:"version"`
	Kind    string                     `json:"kind"`
	Cells   map[string]CampaignCell    `json:"cells"`
	Partial map[string]campaignPartial `json:"partial,omitempty"`
	// Leases (schema v3) records each in-flight unit's lease high-water
	// mark. Completion clears the record.
	Leases map[string]LeaseRecord `json:"leases,omitempty"`
	// Generation (schema v4) is the coordinator fencing token: the highest
	// generation that ever adopted this campaign. Mutating saves from a
	// handle holding a lower generation are rejected with ErrFenced.
	// Retire clears it, so a completed campaign's file omits the field.
	Generation uint64 `json:"generation,omitempty"`
}

const campaignKind = "campaign"

// campaignCheckpointVersion is the schema version written by saveLocked.
// Version 2 (no lease ledger) and version 3 (no coordinator generation)
// load transparently.
const campaignCheckpointVersion = 4

// NewCampaignCheckpoint builds an empty campaign checkpoint persisting to
// path. An empty path keeps it in memory only (useful in tests).
func NewCampaignCheckpoint(path string) *CampaignCheckpoint {
	return &CampaignCheckpoint{
		path:    path,
		cells:   map[string]CampaignCell{},
		partial: map[string]*partialState{},
		leases:  map[string]LeaseRecord{},
		jnl:     journalLog{kind: journalKind, version: journalVersion, name: "campaign checkpoint"},
	}
}

// LoadCampaignCheckpoint restores a campaign checkpoint from path. A
// missing file is not an error — it yields an empty checkpoint, so the same
// call serves both a fresh start and a resume. A legacy per-run checkpoint
// (no kind, version 1 or 2) loads as the partial cell RunKey; a file of
// any other kind is rejected with a pointed error rather than silently
// treated as empty.
func LoadCampaignCheckpoint(path string) (*CampaignCheckpoint, error) {
	c := NewCampaignCheckpoint(path)
	if path == "" {
		return c, nil
	}
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return c, nil
	}
	if err != nil {
		return nil, fmt.Errorf("robust: read campaign checkpoint: %w", err)
	}
	if err := c.restoreLocked(data); err != nil {
		return nil, err
	}
	return c, nil
}

// restoreLocked replaces the in-memory state with the base file contents
// plus the journal records that extend them. Callers hold c.mu (or own the
// checkpoint exclusively, as in load).
func (c *CampaignCheckpoint) restoreLocked(data []byte) error {
	if err := c.restoreBaseLocked(data); err != nil {
		return err
	}
	return c.jnl.load(c.path, data, c.replayRecord)
}

// restoreBaseLocked replaces the in-memory state with the parsed base file.
func (c *CampaignCheckpoint) restoreBaseLocked(data []byte) error {
	var f campaignFile
	if err := json.Unmarshal(data, &f); err != nil {
		return fmt.Errorf("robust: parse campaign checkpoint %s: %w", c.path, err)
	}
	switch {
	case f.Kind == "":
		// No kind: a legacy per-run checkpoint, which loads as the run
		// cell alone.
		var run checkpointFile
		if err := json.Unmarshal(data, &run); err != nil {
			return fmt.Errorf("robust: parse per-run checkpoint %s: %w", c.path, err)
		}
		if run.Version != 1 && run.Version != 2 {
			return fmt.Errorf("robust: per-run checkpoint %s has unsupported version %d", c.path, run.Version)
		}
		f = campaignFile{Partial: map[string]campaignPartial{
			RunKey: {Runs: run.Runs, RandState: run.RandState},
		}}
	case f.Kind != campaignKind:
		return fmt.Errorf("robust: %s is not a campaign checkpoint (kind %q)", c.path, f.Kind)
	case f.Version < 2 || f.Version > campaignCheckpointVersion:
		return fmt.Errorf("robust: campaign checkpoint %s has unsupported version %d", c.path, f.Version)
	}
	c.cells = make(map[string]CampaignCell, len(f.Cells))
	c.partial = map[string]*partialState{}
	c.leases = make(map[string]LeaseRecord, len(f.Leases))
	c.generation = f.Generation
	for key, cell := range f.Cells {
		c.cells[key] = cell
	}
	for key, p := range f.Partial {
		ps := &partialState{values: map[int][]float64{}, randState: p.RandState}
		for _, r := range p.Runs {
			if err := ValidateVector(r.QoR, 0); err != nil {
				return fmt.Errorf("robust: campaign checkpoint %s, cell %q, entry %d: %v", c.path, key, r.Index, err)
			}
			ps.observe(r.Index, r.QoR)
		}
		c.partial[key] = ps
	}
	for key, lr := range f.Leases {
		c.leases[key] = lr
	}
	return nil
}

// Adopt claims the checkpoint for a new coordinator run: under the file
// lock it re-reads the state on disk, base and journal (a standby promoting
// long after its boot-time load must not resurrect a stale view), bumps the
// persisted generation past everything ever recorded, compacts, and arms
// fencing on this
// handle — from here on, every mutating save verifies that no higher
// generation has appeared on disk and fails with ErrFenced if one has.
// It returns the adopted generation. On an in-memory checkpoint Adopt
// only increments the local generation (nothing to fence against).
func (c *CampaignCheckpoint) Adopt() (uint64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.path == "" {
		c.generation++
		return c.generation, nil
	}
	unlock, err := lockFile(c.path)
	if err != nil {
		return 0, fmt.Errorf("robust: adopt campaign checkpoint: %w", err)
	}
	defer unlock()
	data, err := os.ReadFile(c.path)
	switch {
	case os.IsNotExist(err):
		// First adoption of a fresh campaign: nothing on disk to merge.
	case err != nil:
		return 0, fmt.Errorf("robust: adopt campaign checkpoint: %w", err)
	default:
		if err := c.restoreLocked(data); err != nil {
			return 0, err
		}
	}
	c.generation++
	if err := c.compactLocked(); err != nil {
		return 0, err
	}
	return c.generation, nil
}

// Generation returns the fencing token this handle writes under (zero
// until Adopt).
func (c *CampaignCheckpoint) Generation() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.generation
}

// Retire finishes the checkpoint of a completed campaign: it folds the
// journal into the base file and releases an adopted generation, so the
// file is rewritten without the generation field and a finished campaign's
// checkpoint is byte-identical to one produced by a coordinator that never
// needed fencing. The owner of an adopted handle retires it once every
// campaign sharing the file is done; eval.Campaign.Run and
// shard.Coordinator.Run retire a never-adopted handle themselves, and
// ppatune and fig3 retire theirs when the run ends. Retiring while deposed
// fails with ErrFenced like any other write. A never-adopted handle whose
// base file already holds its whole state writes nothing.
func (c *CampaignCheckpoint) Retire() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.path == "" {
		c.generation = 0
		return nil
	}
	if c.generation == 0 {
		if !c.jnl.dirty() {
			return nil
		}
		return c.compactLocked()
	}
	unlock, err := lockFile(c.path)
	if err != nil {
		return fmt.Errorf("robust: retire campaign checkpoint: %w", err)
	}
	defer unlock()
	if err := c.fenceLocked(); err != nil {
		return err
	}
	c.generation = 0
	return c.compactLocked()
}

// diskGeneration reads the generation currently recorded on disk (zero for
// a missing file). Callers hold the file lock.
func (c *CampaignCheckpoint) diskGeneration() (uint64, error) {
	data, err := os.ReadFile(c.path)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("robust: read campaign checkpoint generation: %w", err)
	}
	var f struct {
		Generation uint64 `json:"generation"`
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return 0, fmt.Errorf("robust: parse campaign checkpoint generation: %w", err)
	}
	return f.Generation, nil
}

// fenceLocked is checkFence with a fast path: a base file that is still the
// one this handle wrote cannot carry anyone else's generation. Callers hold
// c.mu and the file lock.
func (c *CampaignCheckpoint) fenceLocked() error {
	if c.ownsBase() {
		return nil
	}
	return c.checkFence()
}

// checkFence fails with ErrFenced when the generation on disk has moved
// past this handle's. Callers hold c.mu and the file lock.
func (c *CampaignCheckpoint) checkFence() error {
	disk, err := c.diskGeneration()
	if err != nil {
		return err
	}
	if disk > c.generation {
		return fmt.Errorf("%w: this handle holds generation %d, disk records %d", ErrFenced, c.generation, disk)
	}
	return nil
}

// Done returns the persisted result of a completed cell, if present.
func (c *CampaignCheckpoint) Done(key string) (CampaignCell, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cell, ok := c.cells[key]
	return cell, ok
}

// Cells reports how many completed cells the checkpoint holds.
func (c *CampaignCheckpoint) Cells() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.cells)
}

// Complete records a finished cell, discards its partial state and lease
// record, and persists. A completed cell is final: completing it
// again changes nothing.
func (c *CampaignCheckpoint) Complete(key string, cell CampaignCell) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.mutateLocked(&journalRecord{Op: opDone, Key: key, Cell: &cell})
}

// Lease records that a unit's lease was granted at epoch to holder and
// persists. Epochs must be monotonically increasing per key: a grant at an
// epoch not above the recorded high-water mark is rejected, which is what
// lets a restarted coordinator keep zombie results from a pre-crash lease
// detectable.
func (c *CampaignCheckpoint) Lease(key string, epoch uint64, holder string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if prev, ok := c.leases[key]; ok && epoch <= prev.Epoch {
		return fmt.Errorf("robust: lease epoch %d for %q does not advance recorded epoch %d", epoch, key, prev.Epoch)
	}
	return c.mutateLocked(&journalRecord{Op: opLease, Key: key, Epoch: epoch, Holder: holder})
}

// LeaseRecords returns a copy of the persisted lease ledger: unit key →
// highest granted epoch and holder.
func (c *CampaignCheckpoint) LeaseRecords() map[string]LeaseRecord {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]LeaseRecord, len(c.leases))
	for k, v := range c.leases {
		out[k] = v
	}
	return out
}

// AddPartialObservation merges one streamed observation into a unit's
// partial state and appends it to the journal: the distributed-campaign
// counterpart of the write-through in WrapCell. Invalid vectors are
// rejected (never cached); duplicates by index, and observations for
// completed cells, are ignored. Observations are epoch-agnostic on purpose
// — even a stale lease's evaluations are paid-for truth (the evaluator is
// deterministic per unit), so merging them guarantees each reclaim round
// makes progress.
func (c *CampaignCheckpoint) AddPartialObservation(key string, obs Observation) error {
	if err := ValidateVector(obs.QoR, 0); err != nil {
		return fmt.Errorf("robust: refusing to checkpoint observation %d for %q: %v", obs.Index, key, err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, done := c.cells[key]; done {
		return nil
	}
	if p, ok := c.partial[key]; ok {
		if _, dup := p.values[obs.Index]; dup {
			return nil
		}
	}
	return c.observeLocked(key, obs.Index, obs.QoR)
}

// PartialObservations returns a unit's recorded observations in arrival
// order — the replay stream a re-granted lease ships to its new worker.
func (c *CampaignCheckpoint) PartialObservations(key string) []Observation {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.partial[key]
	if !ok {
		return nil
	}
	out := make([]Observation, 0, len(p.order))
	for _, i := range p.order {
		out = append(out, Observation{Index: i, QoR: append([]float64(nil), p.values[i]...)})
	}
	return out
}

// PartialRandState returns the RNG-source state recorded when the cell's
// run started (nil if the cell has no partial state) together with the
// number of observations the cell holds.
func (c *CampaignCheckpoint) PartialRandState(key string) (state []byte, observed int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.partial[key]
	if !ok || p.randState == nil {
		return nil, 0
	}
	return append([]byte(nil), p.randState...), len(p.order)
}

// StartCell records the RNG-source state a fresh cell run starts from and
// persists. If the cell already has partial state — a resumed run — the
// recorded state wins and the call is a no-op: the caller must restore via
// PartialRandState instead of overwriting the state the observations were
// drawn under.
func (c *CampaignCheckpoint) StartCell(key string, randState []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.mutateLocked(&journalRecord{Op: opStart, Key: key, RandState: append([]byte(nil), randState...)})
}

// Stats reports observations replayed from the checkpoint versus fresh
// evaluator calls made through WrapCell since load.
func (c *CampaignCheckpoint) Stats() (replayed, fresh int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.replayed, c.fresh
}

// WrapCell returns an evaluator that answers cell-local observations from
// the checkpoint when it can and writes through (the observation, appended
// to the journal) when it must invoke eval. Compose it inside any
// fault-tolerance middleware. It never caches invalid vectors: garbage QoR
// is passed up for the resilience layer to reject so the corruption cannot
// replay on resume.
func (c *CampaignCheckpoint) WrapCell(key string, eval core.Evaluator) core.Evaluator {
	return func(i int) ([]float64, error) {
		c.mu.Lock()
		if p, ok := c.partial[key]; ok {
			if y, ok := p.values[i]; ok {
				c.replayed++
				out := append([]float64(nil), y...)
				c.mu.Unlock()
				return out, nil
			}
		}
		c.mu.Unlock()
		y, err := eval(i)
		if err != nil {
			return nil, err
		}
		if ValidateVector(y, 0) != nil {
			return y, nil
		}
		c.mu.Lock()
		defer c.mu.Unlock()
		if err := c.observeLocked(key, i, y); err != nil {
			return nil, err
		}
		return y, nil
	}
}

// observeLocked records one fresh evaluation of key's pool index: qor joins
// the unit's partial state. Callers hold c.mu.
func (c *CampaignCheckpoint) observeLocked(key string, index int, qor []float64) error {
	c.fresh++
	return c.mutateLocked(&journalRecord{Op: opObs, Key: key, Index: index, QoR: append([]float64(nil), qor...)})
}

// The campaign journal's mutations (journalRecord.Op). An observation has
// none. Journals written while campaigns parked units during outages also
// hold park and unpark records; replay accepts them and changes nothing.
const (
	opObs    = ""
	opStart  = "start"
	opLease  = "lease"
	opDone   = "done"
	opPark   = "park"
	opUnpark = "unpark"
)

// mutateLocked applies one mutation and persists it, unless it changed
// nothing; callers hold c.mu.
func (c *CampaignCheckpoint) mutateLocked(r *journalRecord) error {
	changed, err := c.applyLocked(r)
	if err != nil || !changed {
		return err
	}
	return c.appendLocked(r)
}

// applyLocked performs one mutation on the in-memory state and reports
// whether it changed anything. The mutators and journal replay share it, so
// a replayed journal yields exactly the state its writer held. Replay is
// idempotent because a record the state already reflects changes nothing:
// any record for a completed unit, a start for a unit with partial state, a
// lease at or below the recorded epoch and an observation of an index the
// unit holds. Callers hold c.mu or own the checkpoint exclusively.
func (c *CampaignCheckpoint) applyLocked(r *journalRecord) (bool, error) {
	switch r.Op {
	case opPark, opUnpark:
		return false, nil
	case opStart, opLease:
	case opObs:
		if err := ValidateVector(r.QoR, 0); err != nil {
			return false, fmt.Errorf("cell %q, entry %d: %v", r.Key, r.Index, err)
		}
	case opDone:
		if r.Cell == nil {
			return false, fmt.Errorf("completion of %q has no cell", r.Key)
		}
	default:
		return false, fmt.Errorf("unknown campaign checkpoint mutation %q", r.Op)
	}
	if _, done := c.cells[r.Key]; done {
		return false, nil
	}
	switch r.Op {
	case opStart:
		if _, ok := c.partial[r.Key]; ok {
			return false, nil
		}
		c.partial[r.Key] = &partialState{values: map[int][]float64{}, randState: r.RandState}
	case opLease:
		if prev, ok := c.leases[r.Key]; ok && r.Epoch <= prev.Epoch {
			return false, nil
		}
		c.leases[r.Key] = LeaseRecord{Epoch: r.Epoch, Holder: r.Holder}
	case opObs:
		if !c.partialLocked(r.Key).observe(r.Index, r.QoR) {
			return false, nil
		}
	case opDone:
		c.cells[r.Key] = *r.Cell
		delete(c.partial, r.Key)
		delete(c.leases, r.Key)
	}
	return true, nil
}

// saveLocked compacts the campaign file; callers hold c.mu. An adopted
// handle (generation > 0) verifies the fence first, under the file lock so
// the generation check and the rename are atomic against a concurrent
// Adopt: a deposed coordinator's mutation is rejected with ErrFenced and
// the files are left exactly as the new owner wrote them.
func (c *CampaignCheckpoint) saveLocked() error {
	if c.path == "" {
		return nil
	}
	if c.generation == 0 {
		return c.compactLocked()
	}
	unlock, err := lockFile(c.path)
	if err != nil {
		return fmt.Errorf("robust: write campaign checkpoint: %w", err)
	}
	defer unlock()
	if err := c.fenceLocked(); err != nil {
		return err
	}
	return c.compactLocked()
}

// compactLocked writes the whole state as the base file and removes the
// observation journal (journalLog.compact) without consulting the fence;
// callers hold c.mu.
func (c *CampaignCheckpoint) compactLocked() error {
	data, err := c.encodeLocked()
	if err != nil {
		return err
	}
	if c.pin != nil {
		_ = c.pin.Close()
		c.pin = nil
	}
	if err := c.jnl.compact(c.path, data); err != nil {
		return err
	}
	if c.generation > 0 {
		// Under the file lock nobody else can have renamed over the base
		// since our own rename. Without a pin, ownsBase fails and the next
		// append re-checks the fence and compacts.
		pin, err := os.Open(c.path)
		if err != nil {
			return fmt.Errorf("robust: write campaign checkpoint: %w", err)
		}
		c.pin = pin
	}
	return nil
}

// encodeLocked renders the state as base file bytes; callers hold c.mu.
// Maps are flattened over sorted keys so the bytes are deterministic.
func (c *CampaignCheckpoint) encodeLocked() ([]byte, error) {
	f := campaignFile{
		Version: campaignCheckpointVersion,
		Kind:    campaignKind,
		Cells:   make(map[string]CampaignCell, len(c.cells)),
		Partial: make(map[string]campaignPartial, len(c.partial)),
	}
	for _, key := range sortedKeys(c.cells) {
		f.Cells[key] = c.cells[key]
	}
	for _, key := range sortedKeys(c.partial) {
		p := c.partial[key]
		cp := campaignPartial{RandState: p.randState}
		for _, i := range p.order {
			cp.Runs = append(cp.Runs, checkpointRun{Index: i, QoR: p.values[i]})
		}
		f.Partial[key] = cp
	}
	if len(f.Partial) == 0 {
		f.Partial = nil
	}
	if len(c.leases) > 0 {
		f.Leases = make(map[string]LeaseRecord, len(c.leases))
		for _, key := range sortedKeys(c.leases) {
			f.Leases[key] = c.leases[key]
		}
	}
	f.Generation = c.generation
	data, err := json.MarshalIndent(&f, "", " ")
	if err != nil {
		return nil, fmt.Errorf("robust: encode campaign checkpoint: %w", err)
	}
	return data, nil
}

// sortedKeys returns the map's keys in sorted order (deterministic file
// bytes and iteration order; see the maporder analyzer).
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
