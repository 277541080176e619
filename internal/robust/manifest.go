package robust

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// JobUnit is the persisted outcome of one completed unit of a served tuning
// job: the scored metrics plus the learned Pareto front in wire form. It
// lives in the job manifest (not the campaign checkpoint) because it
// carries presentation state — the front points the HTTP front endpoint
// serves — while the checkpoint carries only resume state.
type JobUnit struct {
	Space  string      `json:"space"`
	Method string      `json:"method"`
	Seed   int64       `json:"seed"`
	HV     float64     `json:"hv"`
	ADRS   float64     `json:"adrs"`
	Runs   int         `json:"runs"`
	Front  [][]float64 `json:"front,omitempty"`
}

// JobRecord is one tuning job's durable state in the server-side manifest:
// identity, owner, lifecycle status, the submitted spec verbatim (opaque to
// this package — the serving layer owns its schema and locks it separately),
// the campaign checkpoint file the job resumes from, and per-unit results
// as they complete. Everything except FinishedAtUnix is derived
// deterministically from the spec, so a manifest rebuilt through any
// kill/restart schedule is byte-identical to one written by an
// uninterrupted run up to that one wall-clock stamp — which exists only to
// age terminal jobs out under a retention window.
type JobRecord struct {
	ID         string                 `json:"id"`
	Client     string                 `json:"client"`
	Status     string                 `json:"status"`
	Spec       json.RawMessage        `json:"spec"`
	Checkpoint string                 `json:"checkpoint,omitempty"`
	Error      string                 `json:"error,omitempty"`
	Golden     map[string][][]float64 `json:"golden,omitempty"`
	Units      map[string]JobUnit     `json:"units,omitempty"`
	// FinishedAtUnix is when the job reached a terminal status (Unix
	// seconds; zero for live jobs and for records written before retention
	// existed — those never age out).
	FinishedAtUnix int64 `json:"finished_at_unix,omitempty"`
}

// jobsFile is the on-disk schema of the job manifest. Kind distinguishes it
// from the checkpoint files sharing the state directory.
type jobsFile struct {
	Version int                  `json:"version"`
	Kind    string               `json:"kind"`
	NextID  int                  `json:"next_id"`
	Jobs    map[string]JobRecord `json:"jobs,omitempty"`
}

const (
	jobsKind            = "jobs"
	jobManifestVersion  = 1
	jobManifestFileName = "jobs.json"
)

// JobManifestPath returns the manifest file path inside a server state
// directory — the single spelling cmd/ppaserved and tests share.
func JobManifestPath(stateDir string) string {
	return filepath.Join(stateDir, jobManifestFileName)
}

// JobManifest is the crash-safe store of a tuning server's job table. It
// sits alongside the per-job CampaignCheckpoint files: the manifest answers
// "what jobs exist, who owns them, where did they get to", the checkpoints
// answer "how do I resume this one bit-identically". Every mutation
// persists via write-to-temp + atomic rename; all methods are safe for
// concurrent use.
type JobManifest struct {
	mu   sync.Mutex
	path string
	next int
	jobs map[string]JobRecord
}

// NewJobManifest builds an empty manifest persisting to path. An empty path
// keeps it in memory only (tests).
func NewJobManifest(path string) *JobManifest {
	return &JobManifest{path: path, next: 1, jobs: map[string]JobRecord{}}
}

// LoadJobManifest restores a manifest from path. A missing file yields an
// empty manifest, so the same call serves first boot and restart. A file of
// a different kind (a checkpoint sharing the directory) is rejected.
func LoadJobManifest(path string) (*JobManifest, error) {
	m := NewJobManifest(path)
	if path == "" {
		return m, nil
	}
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return m, nil
	}
	if err != nil {
		return nil, fmt.Errorf("robust: read job manifest: %w", err)
	}
	var f jobsFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("robust: parse job manifest %s: %w", path, err)
	}
	if f.Kind != jobsKind {
		return nil, fmt.Errorf("robust: %s is not a job manifest (kind %q)", path, f.Kind)
	}
	if f.Version != jobManifestVersion {
		return nil, fmt.Errorf("robust: job manifest %s has unsupported version %d", path, f.Version)
	}
	if f.NextID > 0 {
		m.next = f.NextID
	}
	for id, r := range f.Jobs {
		m.jobs[id] = r
	}
	return m, nil
}

// NextID allocates the next job ID ("j1", "j2", ...) and persists the
// high-water mark, so IDs stay unique across restarts even when the job
// they were minted for was never recorded.
func (m *JobManifest) NextID() (string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	id := "j" + strconv.Itoa(m.next)
	m.next++
	if err := m.saveLocked(); err != nil {
		return "", err
	}
	return id, nil
}

// Put records (or replaces) a job and persists.
func (m *JobManifest) Put(r JobRecord) error {
	if r.ID == "" {
		return fmt.Errorf("robust: job record has no ID")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.jobs[r.ID] = cloneJob(r)
	return m.saveLocked()
}

// Get returns a copy of one job record.
func (m *JobManifest) Get(id string) (JobRecord, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	r, ok := m.jobs[id]
	if !ok {
		return JobRecord{}, false
	}
	return cloneJob(r), true
}

// Jobs returns copies of every record, ordered by numeric job ID (j2 before
// j10), so listings and boot-time requeues are deterministic.
func (m *JobManifest) Jobs() []JobRecord {
	m.mu.Lock()
	defer m.mu.Unlock()
	ids := make([]string, 0, len(m.jobs))
	for id := range m.jobs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool { return jobIDLess(ids[a], ids[b]) })
	out := make([]JobRecord, 0, len(ids))
	for _, id := range ids {
		out = append(out, cloneJob(m.jobs[id]))
	}
	return out
}

// SetStatus updates a job's lifecycle status (and its error annotation —
// empty clears it) and persists.
func (m *JobManifest) SetStatus(id, status, errMsg string) error {
	return m.SetStatusAt(id, status, errMsg, 0)
}

// SetStatusAt is SetStatus with an explicit finished-at stamp: pass the
// current Unix time when moving a job to a terminal status (retention ages
// it from there), zero for live statuses (it clears any previous stamp, so
// a requeued job never inherits a stale one).
func (m *JobManifest) SetStatusAt(id, status, errMsg string, finishedAtUnix int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	r, ok := m.jobs[id]
	if !ok {
		return fmt.Errorf("robust: job %q not in manifest", id)
	}
	r.Status = status
	r.Error = errMsg
	r.FinishedAtUnix = finishedAtUnix
	m.jobs[id] = r
	return m.saveLocked()
}

// SetGolden records the job's golden fronts (space name → front) and
// persists. Idempotent: the fronts are a pure function of the job spec, so
// a re-run after a crash writes identical bytes.
func (m *JobManifest) SetGolden(id string, golden map[string][][]float64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	r, ok := m.jobs[id]
	if !ok {
		return fmt.Errorf("robust: job %q not in manifest", id)
	}
	r.Golden = cloneFronts(golden)
	m.jobs[id] = r
	return m.saveLocked()
}

// SetUnit records one completed unit under its campaign unit key and
// persists. Like SetGolden, replays after a crash overwrite with identical
// data.
func (m *JobManifest) SetUnit(id, key string, u JobUnit) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	r, ok := m.jobs[id]
	if !ok {
		return fmt.Errorf("robust: job %q not in manifest", id)
	}
	if r.Units == nil {
		r.Units = map[string]JobUnit{}
	}
	r.Units[key] = u
	m.jobs[id] = r
	return m.saveLocked()
}

// Delete removes a job record entirely (cancellation of a queued job) and
// persists.
func (m *JobManifest) Delete(id string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.jobs[id]; !ok {
		return nil
	}
	delete(m.jobs, id)
	return m.saveLocked()
}

// jobIDLess orders "j<N>" IDs numerically, falling back to string order for
// foreign spellings.
func jobIDLess(a, b string) bool {
	na, aok := strconv.Atoi(strings.TrimPrefix(a, "j"))
	nb, bok := strconv.Atoi(strings.TrimPrefix(b, "j"))
	if aok == nil && bok == nil {
		return na < nb
	}
	return a < b
}

func cloneJob(r JobRecord) JobRecord {
	out := r
	out.Spec = append(json.RawMessage(nil), r.Spec...)
	out.Golden = cloneFronts(r.Golden)
	if r.Units != nil {
		out.Units = make(map[string]JobUnit, len(r.Units))
		for k, u := range r.Units {
			out.Units[k] = u
		}
	}
	return out
}

// cloneFronts copies the outer map; the point slices are treated as
// immutable by every consumer.
func cloneFronts(g map[string][][]float64) map[string][][]float64 {
	if g == nil {
		return nil
	}
	out := make(map[string][][]float64, len(g))
	for k, v := range g {
		out[k] = v
	}
	return out
}

// saveLocked persists the manifest; callers hold m.mu. encoding/json sorts
// map keys, so the bytes on disk are deterministic.
func (m *JobManifest) saveLocked() error {
	if m.path == "" {
		return nil
	}
	f := jobsFile{Version: jobManifestVersion, Kind: jobsKind, NextID: m.next}
	if len(m.jobs) > 0 {
		f.Jobs = make(map[string]JobRecord, len(m.jobs))
		for _, id := range sortedKeys(m.jobs) {
			f.Jobs[id] = m.jobs[id]
		}
	}
	data, err := json.MarshalIndent(&f, "", " ")
	if err != nil {
		return fmt.Errorf("robust: encode job manifest: %w", err)
	}
	if err := WriteFileAtomic(m.path, data); err != nil {
		return fmt.Errorf("robust: write job manifest: %w", err)
	}
	return nil
}
