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

// Two stores keep their state as a base file plus an append-only journal
// beside it (JournalPath): the campaign checkpoint and the job manifest
// (manifest.go). The base holds the full state in the store's own format;
// the journal holds the mutations made since the base was last written, one
// JSON line each, behind a header line naming the base they extend by
// digest. For a campaign checkpoint:
//
//	{"kind":"campaign-obs","version":2,"base":"<sha256 of the base bytes>"}
//	{"op":"lease","key":"u","epoch":1,"holder":"w0"}
//	{"op":"start","key":"u","rand_state":"..."}
//	{"key":"u","index":17,"qor":[0.4,1.2],"iters":1}
//	...
//	{"op":"done","key":"u","cell":{"hv":0.02,"adrs":0.01,"runs":40}}
//
// Mutations append one line; a compaction rewrites the whole state into the
// base through the atomic-rename path and removes the journal. A load reads
// the base, then replays the journal if its header names exactly those base
// bytes. A campaign checkpoint journals every mutation and compacts only
// when it is created or adopted and when its campaign is retired
// (CampaignCheckpoint.Retire); the job manifest compacts at each job's
// terminal transition (manifest.go). A version-1 campaign journal, written
// before the other mutations were journaled, holds only observations, whose
// records are unchanged, and still replays; the version bump keeps a
// version-1 reader from taking the other records for observations.
//
// Campaign replay is idempotent: a record the state already reflects
// changes nothing (CampaignCheckpoint.applyLocked). For both stores, a
// final line without its newline is a torn append from a killed writer and
// is dropped; any other unparsable or invalid line is a load error. A
// journal whose header names different base bytes (the base was rewritten
// and the process died before removing the journal, or the base was
// deleted) is stale and ignored.

const (
	journalKind = "campaign-obs"
	// journalVersion is the campaign journal format written. Version 1
	// holds observations only.
	journalVersion = 2
)

// JournalPath returns the journal's path for the base file at path: a
// campaign checkpoint's or the job manifest's mutation journal.
func JournalPath(path string) string { return path + ".obs" }

// journalHeader is the journal's first line: it binds the records that
// follow to one exact base file.
type journalHeader struct {
	Kind    string `json:"kind"`
	Version int    `json:"version"`
	// Base is the hex SHA-256 of the base file the records extend.
	Base string `json:"base"`
}

// journalRecord is one journaled campaign-checkpoint mutation. Op names the
// mutation and the fields it carries:
//
//	(none)  Key, Index, QoR, Iters: one observation, Iters being the unit's
//	        fresh-evaluation count after it (WrapCell, AddPartialObservation)
//	start   Key, RandState (StartCell)
//	lease   Key, Epoch, Holder (Lease)
//	park    Key (Park)
//	unpark  Key (Unpark)
//	done    Key, Cell (Complete)
//
// An observation, the one record per tool run, carries no op: it keeps the
// version-1 record's fields and length.
type journalRecord struct {
	Op        string        `json:"op,omitempty"`
	Key       string        `json:"key"`
	Index     int           `json:"index,omitempty"`
	QoR       []float64     `json:"qor,omitempty"`
	Iters     int           `json:"iters,omitempty"`
	RandState []byte        `json:"rand_state,omitempty"`
	Epoch     uint64        `json:"epoch,omitempty"`
	Holder    string        `json:"holder,omitempty"`
	Cell      *CampaignCell `json:"cell,omitempty"`
}

// baseDigest names a base file's bytes in a journal header.
func baseDigest(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// journalLog is the journal side of a base + journal store, shared by the
// campaign checkpoint and the job manifest. Callers serialise access (the
// owning store's mutex).
type journalLog struct {
	// kind is the header kind naming the store's record type.
	kind string
	// version is the record format the store appends; loads accept it and
	// every older version.
	version int
	// name is the store in error messages ("campaign checkpoint").
	name string
	// base is the digest of the base file on disk that the store's state
	// extends by appends alone; empty makes the next mutation compact
	// instead (nothing written yet, a load found a journal the store must
	// not append after, or an append failed).
	base string
	// f is the open journal, nil until the first append after a compaction.
	f *os.File
}

// load binds the log to the base bytes data just read from path and hands
// apply every complete record of the journal bound to them, in order. A
// journal that was replayed — even an empty one — leaves the log unbound,
// since appending after a torn tail would glue a record to garbage: the
// first mutation compacts. With no live journal the base is a fine
// foundation for a fresh one.
func (l *journalLog) load(path string, data []byte, apply func(line []byte) error) error {
	l.close()
	digest := baseDigest(data)
	records, live, err := l.read(path, digest)
	if err != nil {
		return err
	}
	for n, line := range records {
		if err := apply(line); err != nil {
			return fmt.Errorf("robust: %s journal %s, record %d: %w", l.name, JournalPath(path), n+1, err)
		}
	}
	l.base = digest
	if live {
		l.base = ""
	}
	return nil
}

// read returns the complete record lines of the journal beside path if its
// header names the base digest; live is false for a missing, empty or stale
// journal. Every format version up to the store's own is accepted.
func (l *journalLog) read(path, digest string) (records [][]byte, live bool, err error) {
	data, err := os.ReadFile(JournalPath(path))
	if errors.Is(err, os.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("robust: read %s journal: %w", l.name, err)
	}
	lines := bytes.Split(data, []byte("\n"))
	// The element after the last newline is empty for a cleanly ended
	// journal and a torn append otherwise; either way it is not a record.
	lines = lines[:len(lines)-1]
	if len(lines) == 0 {
		return nil, false, nil
	}
	var h journalHeader
	if err := json.Unmarshal(lines[0], &h); err != nil {
		return nil, false, fmt.Errorf("robust: parse %s journal %s header: %w", l.name, JournalPath(path), err)
	}
	if h.Kind != l.kind || h.Version < 1 || h.Version > l.version {
		return nil, false, fmt.Errorf("robust: %s is not a %s journal of a version up to %d (kind %q, version %d)", JournalPath(path), l.name, l.version, h.Kind, h.Version)
	}
	if h.Base != digest {
		return nil, false, nil
	}
	return lines[1:], true, nil
}

// append journals one record the store has already applied to its state.
// It is one write(2) of one line; the first append after a compaction
// opens the journal once and writes the header with it. Callers check that
// the log is bound (base non-empty) and compact instead when it is not.
func (l *journalLog) append(path string, rec any) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("robust: encode %s journal record: %w", l.name, err)
	}
	line = append(line, '\n')
	if l.f == nil {
		hdr, err := json.Marshal(journalHeader{Kind: l.kind, Version: l.version, Base: l.base})
		if err != nil {
			return fmt.Errorf("robust: encode %s journal header: %w", l.name, err)
		}
		line = append(append(hdr, '\n'), line...)
		// O_TRUNC: whatever is there belongs to another base (stale) — the
		// live journal for this base is only ever written through l.f.
		f, err := os.OpenFile(JournalPath(path), os.O_CREATE|os.O_TRUNC|os.O_WRONLY|os.O_APPEND, 0o600)
		if err != nil {
			return fmt.Errorf("robust: open %s journal: %w", l.name, err)
		}
		l.f = f
	}
	if _, err := l.f.Write(line); err != nil {
		// The journal may now end in a partial line: never append after it.
		// Forgetting the base makes the next mutation compact, which rewrites
		// the base with everything and removes the journal.
		l.close()
		l.base = ""
		return fmt.Errorf("robust: append %s journal: %w", l.name, err)
	}
	return nil
}

// compact writes data as the base file at path (atomic rename) and removes
// the journal, whose records data now holds, binding the log to the new
// base. A crash between the rename and the removal leaves a journal naming
// the old base, which loads ignore.
func (l *journalLog) compact(path string, data []byte) error {
	l.close()
	l.base = ""
	if err := WriteFileAtomic(path, data); err != nil {
		return fmt.Errorf("robust: write %s: %w", l.name, err)
	}
	if err := os.Remove(JournalPath(path)); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("robust: remove %s journal: %w", l.name, err)
	}
	l.base = baseDigest(data)
	return nil
}

// close drops the journal file descriptor.
func (l *journalLog) close() {
	if l.f != nil {
		_ = l.f.Close()
		l.f = nil
	}
}

// dirty reports whether the base file on disk may lack part of the store's
// state: records were appended since the last compaction, or the log is
// unbound (see base).
func (l *journalLog) dirty() bool { return l.base == "" || l.f != nil }

// RemoveCampaignCheckpoint deletes a campaign checkpoint together with its
// sidecars: the journal and the fencing lock file. Sidecars go first, so an
// interrupted removal leaves the base — which the caller still recognises
// as its own and can remove again — rather than an orphaned sidecar.
// Missing files are not an error.
func RemoveCampaignCheckpoint(path string) error {
	for _, p := range []string{JournalPath(path), path + ".lock", path} {
		if err := os.Remove(p); err != nil && !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("robust: remove campaign checkpoint: %w", err)
		}
	}
	return nil
}

// replayRecord applies one campaign journal line to the state just restored
// from the base. Callers hold c.mu or own the checkpoint exclusively.
func (c *CampaignCheckpoint) replayRecord(line []byte) error {
	var r journalRecord
	if err := json.Unmarshal(line, &r); err != nil {
		return err
	}
	_, err := c.applyLocked(&r)
	return err
}

// appendLocked journals one mutation the caller has already applied;
// callers hold c.mu. A handle with no journal-able base on disk compacts
// instead. An adopted handle takes the file lock and proves the base on
// disk is still the file it last wrote before appending; if it is not, the
// full fence check decides between ErrFenced and a compaction.
func (c *CampaignCheckpoint) appendLocked(r *journalRecord) error {
	if c.path == "" {
		return nil
	}
	if c.jnl.base == "" {
		return c.saveLocked()
	}
	if c.generation > 0 {
		unlock, err := lockFile(c.path)
		if err != nil {
			return fmt.Errorf("robust: append campaign checkpoint journal: %w", err)
		}
		defer unlock()
		if !c.ownsBase() {
			if err := c.checkFence(); err != nil {
				return err
			}
			return c.compactLocked()
		}
	}
	return c.jnl.append(c.path, r)
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
