package serve

import (
	"os"
	"path/filepath"
	"strings"
	"time"

	"ppatuner/internal/robust"
)

// CollectGarbage removes every terminal job (done, failed, cancelled)
// that reached its terminal status at least Config.Retain ago, along with
// its campaign checkpoint and the checkpoint's sidecars (observation
// journal, lock file), and sweeps orphaned checkpoint files and sidecars a
// previous interrupted collection left behind. Returns how many jobs were
// collected. A zero/negative Retain disables collection entirely.
//
// Delete ordering is manifest-record first, checkpoint file second: the
// invariant every reader relies on is "record exists ⇒ checkpoint exists",
// so a crash between the two steps leaves an orphaned file (harmless,
// swept next round) rather than a resumable job whose resume state is
// gone. One manifest Delete drops every expired record of the sweep, so
// jobs.json is rewritten once per sweep, before any checkpoint file goes.
func (s *Server) CollectGarbage() (int, error) {
	if s.cfg.Retain <= 0 {
		return 0, nil
	}
	// Checkpoint files and their sidecars are listed BEFORE the manifest
	// snapshot. Submit persists a job's record before its checkpoint file
	// ever exists, so a file in this list whose job is absent from the
	// later snapshot can only be an orphan from an interrupted collection —
	// never a job racing in. (A file created after this listing is simply
	// not swept this round.)
	files, err := filepath.Glob(filepath.Join(s.cfg.StateDir, "job-*"+ckptSuffix+"*"))
	if err != nil {
		return 0, err
	}

	now := s.clk.Now().Unix()
	referenced := map[string]bool{}
	var expired []robust.JobRecord
	var ids []string
	for _, rec := range s.manifest.Jobs() {
		if TerminalStatus(rec.Status) && rec.FinishedAtUnix > 0 &&
			now-rec.FinishedAtUnix >= int64(s.cfg.Retain/time.Second) {
			expired = append(expired, rec)
			ids = append(ids, rec.ID)
		} else if rec.Checkpoint != "" {
			referenced[rec.Checkpoint] = true
		}
	}
	if err := s.manifest.Delete(ids...); err != nil {
		return 0, err
	}
	collected := 0
	for _, rec := range expired {
		if rec.Checkpoint != "" {
			if err := robust.RemoveCampaignCheckpoint(filepath.Join(s.cfg.StateDir, rec.Checkpoint)); err != nil {
				return collected, err
			}
		}
		s.mu.Lock()
		delete(s.jobs, rec.ID)
		s.mu.Unlock()
		collected++
		s.logf("serve: gc: job %s (%s, finished %s ago) removed", rec.ID, rec.Status,
			(time.Duration(now-rec.FinishedAtUnix) * time.Second).Round(time.Second))
	}

	for _, f := range files {
		// A sidecar (journal, lock, interrupted temp file) belongs to the
		// checkpoint its name extends.
		prefix, _, _ := strings.Cut(filepath.Base(f), ckptSuffix)
		base := prefix + ckptSuffix
		if referenced[base] {
			continue
		}
		// Either just deleted above (a second removal is a no-op) or
		// orphaned by an earlier interrupted collection; the glob lists the
		// base and each sidecar on its own.
		if err := os.Remove(f); err != nil && !os.IsNotExist(err) {
			return collected, err
		}
	}
	return collected, nil
}

// gcLoop periodically collects garbage until shutdown. Pacing runs on
// real time — it is a pure wall-clock hygiene concern — while the expiry
// decisions inside CollectGarbage use the injected clock, so fake-clock
// tests drive collection directly instead of spinning this loop.
func (s *Server) gcLoop() {
	defer s.wg.Done()
	every := s.cfg.Retain / 4
	if every < time.Second {
		every = time.Second
	}
	if every > time.Minute {
		every = time.Minute
	}
	for {
		select {
		case <-s.stop:
			return
		case <-time.After(every):
		}
		if n, err := s.CollectGarbage(); err != nil {
			s.logf("serve: gc: %v", err)
		} else if n > 0 {
			s.logf("serve: gc: collected %d job(s)", n)
		}
	}
}
