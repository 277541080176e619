package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ppatuner/internal/clock"
	"ppatuner/internal/core"
	"ppatuner/internal/eval"
	"ppatuner/internal/robust"
)

// ckptFiles lists the checkpoint files currently in a state dir.
func ckptFiles(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "job-*.ckpt.json"))
	if err != nil {
		t.Fatal(err)
	}
	return files
}

func TestRetentionCollectsExpiredJobsAndOrphans(t *testing.T) {
	fake := clock.NewFake(time.Unix(1_000_000, 0))
	dir := t.TempDir()
	s := newTestServer(t, func(c *Config) {
		c.StateDir = dir
		c.Clock = fake
		c.Retain = time.Hour
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	sub, resp := postJob(t, ts, JobRequest{
		Client: "alice", Scenario: "table2",
		Spaces:  []string{"Area-Delay"},
		Methods: []string{"DAC'19"},
		Seeds:   "1",
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	waitStatus(t, ts, sub.ID, StatusDone)
	if n := len(ckptFiles(t, dir)); n != 1 {
		t.Fatalf("done job left %d checkpoint files, want 1", n)
	}

	// Young terminal job: inside the window, nothing is collected and the
	// checkpoint is not mistaken for an orphan.
	fake.Advance(30 * time.Minute)
	if n, err := s.CollectGarbage(); err != nil || n != 0 {
		t.Fatalf("CollectGarbage inside window = (%d, %v), want (0, nil)", n, err)
	}
	if n := len(ckptFiles(t, dir)); n != 1 {
		t.Fatalf("young job's checkpoint swept: %d files left", n)
	}

	// Past the window: the record goes first, then the file.
	fake.Advance(31 * time.Minute)
	if n, err := s.CollectGarbage(); err != nil || n != 1 {
		t.Fatalf("CollectGarbage past window = (%d, %v), want (1, nil)", n, err)
	}
	if code := getJSON(t, ts, "/jobs/"+sub.ID, nil); code != http.StatusNotFound {
		t.Fatalf("collected job still served: %d", code)
	}
	if n := len(ckptFiles(t, dir)); n != 0 {
		t.Fatalf("collected job left %d checkpoint files", n)
	}

	// An orphaned checkpoint — as left by a crash between record delete and
	// file delete — is swept on the next round even with no expired jobs.
	orphan := filepath.Join(dir, "job-999.ckpt.json")
	if err := os.WriteFile(orphan, []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	if n, err := s.CollectGarbage(); err != nil || n != 0 {
		t.Fatalf("orphan sweep = (%d, %v), want (0, nil)", n, err)
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatalf("orphaned checkpoint not swept: %v", err)
	}
}

// TestRetentionCollectsCancelledJobJournal: a job cancelled mid-unit leaves
// its checkpoint's observation journal behind; collection removes it with
// the checkpoint, and the sweep takes sidecars orphaned without their base.
func TestRetentionCollectsCancelledJobJournal(t *testing.T) {
	fake := clock.NewFake(time.Unix(1_000_000, 0))
	dir := t.TempDir()
	held, proceed := make(chan struct{}), make(chan struct{})
	var once sync.Once
	var calls atomic.Int32
	s := newTestServer(t, func(c *Config) {
		c.StateDir = dir
		c.Clock = fake
		c.Retain = time.Hour
	})
	s.wrapUnit = func(u eval.Unit, ev core.Evaluator) core.Evaluator {
		return func(i int) ([]float64, error) {
			// Hold the third tool run until the cancel is in: the unit has
			// journaled two observations and will journal this one.
			if calls.Add(1) == 3 {
				once.Do(func() { close(held) })
				<-proceed
			}
			return ev(i)
		}
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	sub, resp := postJob(t, ts, JobRequest{
		Client: "alice", Scenario: "table2",
		Spaces:  []string{"Area-Delay"},
		Methods: []string{"DAC'19"},
		Seeds:   "1",
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	<-held
	if _, err := s.Cancel(sub.ID); err != nil {
		t.Fatal(err)
	}
	close(proceed)
	waitStatus(t, ts, sub.ID, StatusCancelled)
	ckpt := filepath.Join(dir, checkpointName(sub.ID))
	if _, err := os.Stat(robust.JournalPath(ckpt)); err != nil {
		t.Fatalf("cancelled mid-unit job left no journal: %v", err)
	}

	fake.Advance(2 * time.Hour)
	if n, err := s.CollectGarbage(); err != nil || n != 1 {
		t.Fatalf("CollectGarbage = (%d, %v), want (1, nil)", n, err)
	}
	for _, p := range []string{ckpt, robust.JournalPath(ckpt)} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Fatalf("%s survived collection: %v", p, err)
		}
	}

	// Sidecars whose base is gone — an interrupted removal or a killed
	// write's temp file — are swept too.
	orphans := []string{
		robust.JournalPath(filepath.Join(dir, "job-998.ckpt.json")),
		filepath.Join(dir, "job-998.ckpt.json.lock"),
		filepath.Join(dir, "job-997.ckpt.json.tmp123"),
	}
	for _, p := range orphans {
		if err := os.WriteFile(p, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := s.CollectGarbage(); err != nil || n != 0 {
		t.Fatalf("orphan sweep = (%d, %v), want (0, nil)", n, err)
	}
	for _, p := range orphans {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Fatalf("orphaned sidecar %s not swept: %v", p, err)
		}
	}
}

// TestRetentionSweepMatchesOneAtATime: one sweep collecting three expired
// jobs, which deletes their records with a single manifest compaction,
// leaves jobs.json byte-identical to deleting the records one at a time,
// and still takes each collected job's checkpoint with it.
func TestRetentionSweepMatchesOneAtATime(t *testing.T) {
	fake := clock.NewFake(time.Unix(1_000_000, 0))
	dir, ref := t.TempDir(), t.TempDir()
	for _, d := range []string{dir, ref} {
		m := robust.NewJobManifest(robust.JobManifestPath(d))
		for i, status := range []string{StatusDone, StatusFailed, StatusCancelled, StatusDone} {
			id, err := m.NextID()
			if err != nil {
				t.Fatal(err)
			}
			finished := fake.Now().Add(-2 * time.Hour).Unix()
			if i == 3 {
				finished = fake.Now().Unix() // inside the window: kept
			}
			if err := m.Put(robust.JobRecord{
				ID: id, Client: "alice", Status: status, Spec: []byte(`{}`),
				Checkpoint: checkpointName(id), FinishedAtUnix: finished,
			}); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(d, checkpointName(id)), []byte("{}"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	s := newTestServer(t, func(c *Config) {
		c.StateDir = dir
		c.Clock = fake
		c.Retain = time.Hour
	})
	if n, err := s.CollectGarbage(); err != nil || n != 3 {
		t.Fatalf("CollectGarbage = (%d, %v), want (3, nil)", n, err)
	}

	m, err := robust.LoadJobManifest(robust.JobManifestPath(ref))
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"j1", "j2", "j3"} {
		if err := m.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(robust.JobManifestPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(robust.JobManifestPath(ref))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("swept jobs.json\n%s\nwant (one Delete per job)\n%s", got, want)
	}
	if files := ckptFiles(t, dir); len(files) != 1 || filepath.Base(files[0]) != checkpointName("j4") {
		t.Fatalf("checkpoints after the sweep = %v, want only j4's", files)
	}
}

func TestRetentionSparesLiveAndLegacyJobs(t *testing.T) {
	fake := clock.NewFake(time.Unix(1_000_000, 0))
	release := make(chan struct{})
	var once sync.Once
	dir := t.TempDir()
	s := newTestServer(t, func(c *Config) {
		c.StateDir = dir
		c.Clock = fake
		c.Retain = time.Hour
		c.Resolve = func(name string) (*eval.Scenario, error) {
			// Park the first unit until released so the job stays running
			// while the clock races past the retention window.
			once.Do(func() { <-release })
			return miniResolve(name)
		}
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// A legacy terminal record with no FinishedAtUnix stamp (written before
	// retention existed) must never age out.
	if err := s.manifest.Put(robust.JobRecord{
		ID: "j0", Client: "old", Status: StatusFailed,
		Spec: []byte(`{}`), Error: "ancient history",
	}); err != nil {
		t.Fatal(err)
	}

	sub, resp := postJob(t, ts, JobRequest{
		Client: "alice", Scenario: "table2",
		Spaces:  []string{"Area-Delay"},
		Methods: []string{"DAC'19"},
		Seeds:   "1",
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	waitStatus(t, ts, sub.ID, StatusRunning)
	// The live job's submit and start are in the manifest journal, which
	// the checkpoint sweep must never take for an orphaned sidecar.
	journal := robust.JournalPath(robust.JobManifestPath(dir))
	before, err := os.ReadFile(journal)
	if err != nil {
		t.Fatalf("a live job left no manifest journal: %v", err)
	}

	fake.Advance(48 * time.Hour)
	if n, err := s.CollectGarbage(); err != nil || n != 0 {
		t.Fatalf("CollectGarbage = (%d, %v), want (0, nil): live and legacy jobs are not collectable", n, err)
	}
	if after, err := os.ReadFile(journal); err != nil || !bytes.Equal(after, before) {
		t.Fatalf("collection touched the manifest journal (%v)", err)
	}
	if _, ok := s.manifest.Get("j0"); !ok {
		t.Fatal("legacy record without a finish stamp was collected")
	}
	if _, ok := s.manifest.Get(sub.ID); !ok {
		t.Fatal("running job was collected")
	}

	close(release)
	waitStatus(t, ts, sub.ID, StatusDone)

	// Now the job finishes at the *advanced* clock, so it only expires an
	// hour from here — then collection takes it, while the stampless legacy
	// record still survives.
	fake.Advance(2 * time.Hour)
	n, err := s.CollectGarbage()
	if err != nil || n != 1 {
		t.Fatalf("CollectGarbage after finish+expiry = (%d, %v), want (1, nil)", n, err)
	}
	if _, ok := s.manifest.Get(sub.ID); ok {
		t.Fatal("expired done job survived collection")
	}
	if _, ok := s.manifest.Get("j0"); !ok {
		t.Fatal("legacy record collected on the second pass")
	}
}
