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

// manifestRecord is one journaled job-manifest mutation (see journal.go).
// Op names the mutation and the fields it carries:
//
//	next    Next: the ID high-water mark after NextID
//	put     Job: the whole record (Put of a live job)
//	status  ID, Status, Error, FinishedAtUnix (SetStatusAt to a live status)
//	golden  ID, Golden
//	unit    ID, Key, Unit: one unit, so a job's journal grows linearly
type manifestRecord struct {
	Op             string                 `json:"op"`
	Next           int                    `json:"next,omitempty"`
	Job            *JobRecord             `json:"job,omitempty"`
	ID             string                 `json:"id,omitempty"`
	Status         string                 `json:"status,omitempty"`
	Error          string                 `json:"error,omitempty"`
	FinishedAtUnix int64                  `json:"finished_at_unix,omitempty"`
	Golden         map[string][][]float64 `json:"golden,omitempty"`
	Key            string                 `json:"key,omitempty"`
	Unit           *JobUnit               `json:"unit,omitempty"`
}

const (
	jobsKind            = "jobs"
	jobManifestVersion  = 1
	jobManifestFileName = "jobs.json"
	manifestJournalKind = "jobs-journal"
	// manifestJournalVersion is the one format of manifest journal records.
	manifestJournalVersion = 1
)

// JobManifestPath returns the manifest file path inside a server state
// directory — the single spelling cmd/ppaserved and tests share.
func JobManifestPath(stateDir string) string {
	return filepath.Join(stateDir, jobManifestFileName)
}

// JobManifest is the crash-safe store of a tuning server's job table. It
// sits alongside the per-job CampaignCheckpoint files: the manifest answers
// "what jobs exist, who owns them, where did they get to", the checkpoints
// answer "how do I resume this one bit-identically". All methods are safe
// for concurrent use.
//
// Every mutation persists before it returns, as a base file plus a journal
// (journal.go). The mutations of a live job — NextID, Put of a live record,
// SetStatus to a live status, SetGolden, SetUnit — append one line to the
// journal beside the file. A job's terminal transition (SetStatus or Put
// with done, failed or cancelled) and Delete compact: the whole table is
// rewritten via write-to-temp + atomic rename and the journal removed. So
// once every job is terminal the manifest is one file in exactly the v1
// format.
type JobManifest struct {
	mu   sync.Mutex
	path string
	next int
	jobs map[string]JobRecord
	jnl  journalLog
}

// NewJobManifest builds an empty manifest persisting to path. An empty path
// keeps it in memory only (tests).
func NewJobManifest(path string) *JobManifest {
	return &JobManifest{
		path: path, next: 1, jobs: map[string]JobRecord{},
		jnl: journalLog{kind: manifestJournalKind, version: manifestJournalVersion, name: "job manifest"},
	}
}

// LoadJobManifest restores a manifest from path and the journal beside it.
// A missing file yields an empty manifest, so the same call serves first
// boot and restart. A file of a different kind (a checkpoint sharing the
// directory) is rejected, and so is a table the manifest could never have
// written: a record filed under a key other than its ID, or a next_id that
// would re-mint an existing job's ID.
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
	err = m.jnl.load(path, data, func(line []byte) error {
		var r manifestRecord
		if err := json.Unmarshal(line, &r); err != nil {
			return err
		}
		return m.applyLocked(&r)
	})
	if err != nil {
		return nil, err
	}
	if err := m.checkLocked(); err != nil {
		return nil, fmt.Errorf("robust: job manifest %s: %w", path, err)
	}
	return m, nil
}

// checkLocked rejects a job table that would misdirect the server: a record
// whose ID is not its key (every lookup by ID misses it, so the job never
// leaves its status), and a high-water mark at or below a minted ID (NextID
// would hand out that ID again and the submit's Put overwrite the job).
func (m *JobManifest) checkLocked() error {
	for _, key := range sortedKeys(m.jobs) {
		if id := m.jobs[key].ID; id != key {
			return fmt.Errorf("job %q records id %q", key, id)
		}
		if n, ok := mintedID(key); ok && n >= m.next {
			return fmt.Errorf("next_id %d would re-mint job %s", m.next, key)
		}
	}
	return nil
}

// mintedID parses an ID NextID could have minted ("j<N>", N >= 1, no
// other spelling of N).
func mintedID(id string) (int, bool) {
	n, err := strconv.Atoi(strings.TrimPrefix(id, "j"))
	return n, err == nil && n >= 1 && id == "j"+strconv.Itoa(n)
}

// terminalJobStatus reports whether a job in this status never runs again:
// the serving layer's done, failed and cancelled. Mutations into one
// compact the manifest.
func terminalJobStatus(status string) bool {
	return status == "done" || status == "failed" || status == "cancelled"
}

// NextID allocates the next job ID ("j1", "j2", ...) and persists the
// high-water mark, so IDs stay unique across restarts even when the job
// they were minted for was never recorded.
func (m *JobManifest) NextID() (string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	id := "j" + strconv.Itoa(m.next)
	if err := m.mutateLocked(&manifestRecord{Op: "next", Next: m.next + 1}, false); err != nil {
		return "", err
	}
	return id, nil
}

// Put records (or replaces) a job and persists.
func (m *JobManifest) Put(r JobRecord) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.mutateLocked(&manifestRecord{Op: "put", Job: &r}, terminalJobStatus(r.Status))
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
	rec := manifestRecord{Op: "status", ID: id, Status: status, Error: errMsg, FinishedAtUnix: finishedAtUnix}
	return m.mutateLocked(&rec, terminalJobStatus(status))
}

// SetGolden records the job's golden fronts (space name → front) and
// persists. Idempotent: the fronts are a pure function of the job spec, so
// a re-run after a crash writes identical bytes.
func (m *JobManifest) SetGolden(id string, golden map[string][][]float64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.mutateLocked(&manifestRecord{Op: "golden", ID: id, Golden: golden}, false)
}

// SetUnit records one completed unit under its campaign unit key and
// persists. Like SetGolden, replays after a crash overwrite with identical
// data.
func (m *JobManifest) SetUnit(id, key string, u JobUnit) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.mutateLocked(&manifestRecord{Op: "unit", ID: id, Key: key, Unit: &u}, false)
}

// Delete removes job records entirely (retention collection) and persists
// them all with one compaction. IDs not in the manifest are ignored; when
// none is, nothing is written.
func (m *JobManifest) Delete(ids ...string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := len(m.jobs)
	for _, id := range ids {
		delete(m.jobs, id)
	}
	if len(m.jobs) == n {
		return nil
	}
	return m.compactLocked()
}

// mutateLocked applies one mutation and persists it: appended to the
// journal, or by compaction when compact is set or the journal has no base
// to extend (always so in memory, where compaction is a no-op). Callers
// hold m.mu.
func (m *JobManifest) mutateLocked(r *manifestRecord, compact bool) error {
	if err := m.applyLocked(r); err != nil {
		return err
	}
	if compact || m.jnl.base == "" {
		return m.compactLocked()
	}
	return m.jnl.append(m.path, r)
}

// applyLocked performs one mutation on the in-memory table. The mutators
// and journal replay share it, so a replayed journal yields exactly the
// state its writer held. Callers hold m.mu or own the manifest exclusively.
func (m *JobManifest) applyLocked(r *manifestRecord) error {
	switch r.Op {
	case "next":
		m.next = max(m.next, r.Next)
		return nil
	case "put":
		if r.Job == nil || r.Job.ID == "" {
			return fmt.Errorf("robust: job record has no ID")
		}
		m.jobs[r.Job.ID] = cloneJob(*r.Job)
		return nil
	case "status", "golden", "unit":
	default:
		return fmt.Errorf("robust: unknown job manifest mutation %q", r.Op)
	}
	job, ok := m.jobs[r.ID]
	if !ok {
		return fmt.Errorf("robust: job %q not in manifest", r.ID)
	}
	switch r.Op {
	case "status":
		job.Status, job.Error, job.FinishedAtUnix = r.Status, r.Error, r.FinishedAtUnix
	case "golden":
		job.Golden = cloneFronts(r.Golden)
	case "unit":
		if r.Unit == nil {
			return fmt.Errorf("robust: job %q unit %q has no result", r.ID, r.Key)
		}
		if job.Units == nil {
			job.Units = map[string]JobUnit{}
		}
		job.Units[r.Key] = *r.Unit
	}
	m.jobs[r.ID] = job
	return nil
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

// compactLocked writes the whole table as the base file and removes the
// journal (journalLog.compact); callers hold m.mu.
func (m *JobManifest) compactLocked() error {
	if m.path == "" {
		return nil
	}
	data, err := m.encodeLocked()
	if err != nil {
		return err
	}
	return m.jnl.compact(m.path, data)
}

// encodeLocked renders the table as base file bytes; callers hold m.mu.
// encoding/json sorts map keys, so the bytes are deterministic.
func (m *JobManifest) encodeLocked() ([]byte, error) {
	f := jobsFile{Version: jobManifestVersion, Kind: jobsKind, NextID: m.next}
	if len(m.jobs) > 0 {
		f.Jobs = make(map[string]JobRecord, len(m.jobs))
		for _, id := range sortedKeys(m.jobs) {
			f.Jobs[id] = m.jobs[id]
		}
	}
	data, err := json.MarshalIndent(&f, "", " ")
	if err != nil {
		return nil, fmt.Errorf("robust: encode job manifest: %w", err)
	}
	return data, nil
}
