package shard_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"ppatuner/internal/core"
	"ppatuner/internal/eval"
	"ppatuner/internal/robust"
	"ppatuner/internal/shard"
	"ppatuner/internal/shard/transport"
)

// baseWatch samples the identity of a checkpoint's base file. The first
// sample keeps the file open, so its inode cannot be recycled for a later
// base while the samples are compared.
type baseWatch struct {
	path string

	mu      sync.Mutex
	pinned  *os.File
	samples int
	moved   int
	err     error
}

// sample records one evaluator call's view of the base file.
func (w *baseWatch) sample() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.samples++
	if w.pinned == nil {
		w.pinned, w.err = os.Open(w.path)
		return
	}
	if !w.sameLocked() {
		w.moved++
	}
}

// same reports whether the path still names the first sampled file.
func (w *baseWatch) same() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.sameLocked()
}

func (w *baseWatch) sameLocked() bool {
	if w.pinned == nil {
		return false
	}
	pinned, err := w.pinned.Stat()
	if err != nil {
		return false
	}
	cur, err := os.Stat(w.path)
	return err == nil && os.SameFile(pinned, cur)
}

// check requires one base file for every sample, a replacement since, the
// finished bytes want, and no journal.
func (w *baseWatch) check(t *testing.T, want []byte) {
	t.Helper()
	w.mu.Lock()
	samples, moved, err := w.samples, w.moved, w.err
	w.mu.Unlock()
	if err != nil {
		t.Fatalf("sampling the base file: %v", err)
	}
	if samples < 2 {
		t.Fatalf("%d samples of the base file, want one per evaluator call", samples)
	}
	if moved != 0 {
		t.Fatalf("the base file was replaced under %d of %d evaluator calls, want none", moved, samples)
	}
	if w.same() {
		t.Fatal("the finished campaign's base file is the one written before its first evaluator call: it was never compacted")
	}
	got, err := os.ReadFile(w.path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("finished checkpoint differs:\n%s\n--- want ---\n%s", got, want)
	}
	if _, err := os.Stat(robust.JournalPath(w.path)); !os.IsNotExist(err) {
		t.Fatalf("a journal survived the finished campaign: %v", err)
	}
}

func (w *baseWatch) close() {
	if w.pinned != nil {
		_ = w.pinned.Close()
	}
}

// TestCheckpointCompactsOncePerCampaign pins the compaction schedule: every
// start, lease, observation, park and completion of a campaign is a journal
// append, so the base file stays the same file from before the first
// evaluator call to the end, and is replaced exactly once — by
// eval.Campaign.Run as the campaign completes, or by Retire for the
// adopted checkpoint of a coordinator.
func TestCheckpointCompactsOncePerCampaign(t *testing.T) {
	_, wantCk := referenceRun(t)

	t.Run("Campaign", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "campaign.json")
		w := &baseWatch{path: path}
		defer w.close()
		c := miniCampaign(t, path)
		c.Workers = 2
		c.WrapUnit = func(_ eval.Unit, ev core.Evaluator) core.Evaluator {
			return func(i int) ([]float64, error) {
				w.sample()
				return ev(i)
			}
		}
		if _, err := c.Run(); err != nil {
			t.Fatal(err)
		}
		w.check(t, wantCk)
	})

	t.Run("Coordinator", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "coord.json")
		w := &baseWatch{path: path}
		defer w.close()
		c := miniCampaign(t, path)
		if _, err := c.Checkpoint.Adopt(); err != nil {
			t.Fatal(err)
		}
		w.sample() // the base Adopt wrote, before any grant
		co, err := shard.New(shard.Options{Campaign: c, LeaseTTL: 30 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		defer cancel()
		conns := make(chan shard.Conn, 2)
		var wg sync.WaitGroup
		for i := 0; i < 2; i++ {
			coordSide, workerSide := transport.Loopback()
			conns <- coordSide
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				opts := shard.WorkerOptions{ID: fmt.Sprintf("w%d", id), Scenario: resolveMini(t)}
				opts.Run.Wrap = func(ev core.Evaluator) core.Evaluator {
					return func(i int) ([]float64, error) {
						w.sample()
						return ev(i)
					}
				}
				_ = shard.RunWorker(ctx, workerSide, opts)
			}(i)
		}
		_, err = co.Run(ctx, conns)
		wg.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if !w.same() {
			t.Fatal("Run replaced an adopted checkpoint's base file; only Retire may")
		}
		if err := c.Checkpoint.Retire(); err != nil {
			t.Fatal(err)
		}
		w.check(t, wantCk)
	})
}
