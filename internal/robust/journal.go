package robust

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
)

// A campaign checkpoint is a base file plus an append-only observation
// journal beside it (JournalPath). The base holds the full campaign state in
// the schema-v4 format; the journal holds the observations streamed in since
// the base was last written, one JSON line each, behind a header line naming
// the base they extend by digest:
//
//	{"kind":"campaign-obs","version":1,"base":"<sha256 of the base bytes>"}
//	{"key":"u","index":17,"qor":[0.4,1.2],"iters":3}
//	...
//
// Observations — the per-tool-run mutation — append one line; every other
// mutation compacts: the whole state is rewritten into the base through the
// atomic-rename path and the journal is removed. A load reads the base, then
// replays the journal if its header names exactly those base bytes.
//
// Replay is idempotent: a record whose index the unit already holds adds
// nothing, its iteration count only ever raises the unit's, and records for
// completed units are skipped. A final line without its newline is a torn
// append from a killed writer and is dropped; any other unparsable line is
// a load error. A journal whose header names different base bytes (the base
// was rewritten and the process died before removing the journal, or the
// base was deleted) is stale and ignored.

const (
	journalKind    = "campaign-obs"
	journalVersion = 1
)

// JournalPath returns the observation journal's path for the campaign
// checkpoint at path.
func JournalPath(path string) string { return path + ".obs" }

// journalHeader is the journal's first line: it binds the records that
// follow to one exact base file.
type journalHeader struct {
	Kind    string `json:"kind"`
	Version int    `json:"version"`
	// Base is the hex SHA-256 of the base file the records extend.
	Base string `json:"base"`
}

// journalRecord is one streamed observation of a unit's partial state.
type journalRecord struct {
	Key   string    `json:"key"`
	Index int       `json:"index"`
	QoR   []float64 `json:"qor"`
	// Iters is the unit's fresh-evaluation count after this observation.
	Iters int `json:"iters"`
}

// baseDigest names a base file's bytes in a journal header.
func baseDigest(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// RemoveCampaignCheckpoint deletes a campaign checkpoint together with its
// sidecars: the observation journal and the fencing lock file. Sidecars go
// first, so an interrupted removal leaves the base — which the caller
// still recognises as its own and can remove again — rather than an
// orphaned sidecar. Missing files are not an error.
func RemoveCampaignCheckpoint(path string) error {
	for _, p := range []string{JournalPath(path), path + ".lock", path} {
		if err := os.Remove(p); err != nil && !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("robust: remove campaign checkpoint: %w", err)
		}
	}
	return nil
}

// replayJournalLocked applies the journal beside c.path to the state just
// restored from the base bytes whose digest is base. It reports whether the
// journal belonged to that base (and so was replayed, even if empty).
// Callers hold c.mu or own the checkpoint exclusively.
func (c *CampaignCheckpoint) replayJournalLocked(base string) (bool, error) {
	data, err := os.ReadFile(JournalPath(c.path))
	if errors.Is(err, os.ErrNotExist) {
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("robust: read campaign journal: %w", err)
	}
	lines := bytes.Split(data, []byte("\n"))
	// The element after the last newline is empty for a cleanly ended
	// journal and a torn append otherwise; either way it is not a record.
	lines = lines[:len(lines)-1]
	if len(lines) == 0 {
		return false, nil
	}
	var h journalHeader
	if err := json.Unmarshal(lines[0], &h); err != nil {
		return false, fmt.Errorf("robust: parse campaign journal %s header: %w", JournalPath(c.path), err)
	}
	if h.Kind != journalKind || h.Version != journalVersion {
		return false, fmt.Errorf("robust: %s is not a version-%d campaign journal (kind %q, version %d)", JournalPath(c.path), journalVersion, h.Kind, h.Version)
	}
	if h.Base != base {
		return false, nil
	}
	for n, line := range lines[1:] {
		var r journalRecord
		if err := json.Unmarshal(line, &r); err != nil {
			return false, fmt.Errorf("robust: parse campaign journal %s, record %d: %w", JournalPath(c.path), n+1, err)
		}
		if err := ValidateVector(r.QoR, 0); err != nil {
			return false, fmt.Errorf("robust: campaign journal %s, cell %q, entry %d: %v", JournalPath(c.path), r.Key, r.Index, err)
		}
		if _, done := c.cells[r.Key]; done {
			continue
		}
		p := c.partialLocked(r.Key)
		p.observe(r.Index, r.QoR)
		p.iters = max(p.iters, r.Iters)
	}
	return true, nil
}

// appendLocked journals one observation the caller has already merged into
// key's partial state; callers hold c.mu. It is one write(2) of one line.
// A handle with no journal-able base on disk (nothing written yet, or a
// journal of unknown provenance left by a load) compacts instead. An
// adopted handle takes the file lock and proves the base on disk is still
// the file it last wrote before appending; if it is not, the full fence
// check decides between ErrFenced and a compaction.
func (c *CampaignCheckpoint) appendLocked(key string, index int, qor []float64, iters int) error {
	if c.path == "" {
		return nil
	}
	if c.base == "" {
		return c.saveLocked()
	}
	if c.generation > 0 {
		unlock, err := lockFile(c.path)
		if err != nil {
			return fmt.Errorf("robust: append campaign journal: %w", err)
		}
		defer unlock()
		if !c.ownsBase() {
			if err := c.checkFence(); err != nil {
				return err
			}
			return c.compactLocked()
		}
	}
	line, err := json.Marshal(journalRecord{Key: key, Index: index, QoR: qor, Iters: iters})
	if err != nil {
		return fmt.Errorf("robust: encode campaign journal record: %w", err)
	}
	line = append(line, '\n')
	if c.journal == nil {
		hdr, err := json.Marshal(journalHeader{Kind: journalKind, Version: journalVersion, Base: c.base})
		if err != nil {
			return fmt.Errorf("robust: encode campaign journal header: %w", err)
		}
		line = append(append(hdr, '\n'), line...)
		// O_TRUNC: whatever is there belongs to another base (stale) — the
		// live journal for this base is only ever written through c.journal.
		f, err := os.OpenFile(JournalPath(c.path), os.O_CREATE|os.O_TRUNC|os.O_WRONLY|os.O_APPEND, 0o600)
		if err != nil {
			return fmt.Errorf("robust: open campaign journal: %w", err)
		}
		c.journal = f
	}
	if _, err := c.journal.Write(line); err != nil {
		// The journal may now end in a partial line: never append after it.
		// Forgetting the base makes the next mutation compact, which rewrites
		// the base with everything and removes the journal.
		c.closeJournal()
		c.base = ""
		return fmt.Errorf("robust: append campaign journal: %w", err)
	}
	return nil
}

// ownsBase reports whether the base file on disk is still the one this
// handle last wrote. The handle keeps that file open (c.pin), so its inode
// cannot be recycled for a competitor's rename while the comparison means
// anything. Callers hold c.mu and the file lock.
func (c *CampaignCheckpoint) ownsBase() bool {
	if c.pin == nil {
		return false
	}
	pinned, err := c.pin.Stat()
	if err != nil {
		return false
	}
	cur, err := os.Stat(c.path)
	return err == nil && os.SameFile(pinned, cur)
}

// closeJournal drops the handle's journal file descriptor.
func (c *CampaignCheckpoint) closeJournal() {
	if c.journal != nil {
		_ = c.journal.Close()
		c.journal = nil
	}
}
