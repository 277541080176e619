package robust

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func TestJobManifestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := JobManifestPath(dir)
	m := NewJobManifest(path)

	id, err := m.NextID()
	if err != nil {
		t.Fatal(err)
	}
	if id != "j1" {
		t.Fatalf("first ID = %q, want j1", id)
	}
	rec := JobRecord{
		ID: id, Client: "alice", Status: "queued",
		Spec: json.RawMessage(`{"scenario":"table2"}`), Checkpoint: "job-j1.ckpt.json",
	}
	if err := m.Put(rec); err != nil {
		t.Fatal(err)
	}
	if err := m.SetStatus(id, "running", ""); err != nil {
		t.Fatal(err)
	}
	if err := m.SetGolden(id, map[string][][]float64{"Area-Delay": {{1, 2}, {3, 4}}}); err != nil {
		t.Fatal(err)
	}
	unit := JobUnit{Space: "Area-Delay", Method: "PPATuner", Seed: 1, HV: 0.5, ADRS: 0.1, Runs: 40, Front: [][]float64{{1, 2}}}
	if err := m.SetUnit(id, "k|Area-Delay|PPATuner|seed=1", unit); err != nil {
		t.Fatal(err)
	}

	// A fresh load (the restart path) must see everything, including the
	// ID high-water mark.
	m2, err := LoadJobManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := m2.Get(id)
	if !ok {
		t.Fatalf("job %s missing after reload", id)
	}
	if got.Status != "running" || got.Client != "alice" {
		t.Errorf("reloaded record = %+v", got)
	}
	// MarshalIndent may reflow the raw spec's whitespace; the JSON value
	// must survive untouched.
	var spec struct {
		Scenario string `json:"scenario"`
	}
	if err := json.Unmarshal(got.Spec, &spec); err != nil || spec.Scenario != "table2" {
		t.Errorf("reloaded spec = %q (%v)", got.Spec, err)
	}
	u := got.Units["k|Area-Delay|PPATuner|seed=1"]
	if u.HV != 0.5 || u.ADRS != 0.1 || u.Runs != 40 || len(u.Front) != 1 {
		t.Errorf("reloaded unit = %+v", u)
	}
	if len(got.Golden["Area-Delay"]) != 2 {
		t.Errorf("reloaded golden = %+v", got.Golden)
	}
	id2, err := m2.NextID()
	if err != nil {
		t.Fatal(err)
	}
	if id2 != "j2" {
		t.Fatalf("ID after reload = %q, want j2 (high-water mark must persist)", id2)
	}
}

func TestJobManifestOrdering(t *testing.T) {
	m := NewJobManifest("")
	for _, id := range []string{"j10", "j2", "j1"} {
		if err := m.Put(JobRecord{ID: id, Status: "queued", Spec: json.RawMessage(`{}`)}); err != nil {
			t.Fatal(err)
		}
	}
	jobs := m.Jobs()
	want := []string{"j1", "j2", "j10"}
	for i, rec := range jobs {
		if rec.ID != want[i] {
			t.Fatalf("Jobs()[%d] = %s, want %s (numeric ID order)", i, rec.ID, want[i])
		}
	}
}

func TestJobManifestRejectsForeignFiles(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "jobs.json")
	if err := os.WriteFile(path, []byte(`{"version":3,"kind":"campaign"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadJobManifest(path); err == nil {
		t.Fatal("loading a campaign checkpoint as a job manifest must fail")
	}
}

func TestJobManifestMissingFileIsEmpty(t *testing.T) {
	m, err := LoadJobManifest(filepath.Join(t.TempDir(), "absent.json"))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(m.Jobs()); n != 0 {
		t.Fatalf("fresh manifest has %d jobs", n)
	}
	if err := m.SetStatus("j1", "running", ""); err == nil {
		t.Fatal("SetStatus on an unknown job must fail")
	}
}

func TestJobManifestDelete(t *testing.T) {
	m := NewJobManifest(JobManifestPath(t.TempDir()))
	if err := m.Put(JobRecord{ID: "j1", Status: "queued", Spec: json.RawMessage(`{}`)}); err != nil {
		t.Fatal(err)
	}
	if err := m.Delete("j1"); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Get("j1"); ok {
		t.Fatal("job survived Delete")
	}
	if err := m.Delete("j1"); err != nil {
		t.Fatal("deleting an absent job must be a no-op, got error")
	}
}

// TestJobManifestDeterministicBytes is the byte-identity contract the
// serve-proof CI job builds on: the same logical state written through any
// interleaving of mutations produces identical bytes.
func TestJobManifestDeterministicBytes(t *testing.T) {
	write := func(dir string, order []string) []byte {
		t.Helper()
		m := NewJobManifest(JobManifestPath(dir))
		if _, err := m.NextID(); err != nil {
			t.Fatal(err)
		}
		if _, err := m.NextID(); err != nil {
			t.Fatal(err)
		}
		for _, id := range order {
			if err := m.Put(JobRecord{ID: id, Client: "c", Status: "done", Spec: json.RawMessage(`{}`)}); err != nil {
				t.Fatal(err)
			}
		}
		data, err := os.ReadFile(JobManifestPath(dir))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	a := write(t.TempDir(), []string{"j1", "j2"})
	b := write(t.TempDir(), []string{"j2", "j1"})
	if string(a) != string(b) {
		t.Fatalf("manifest bytes depend on write order:\n%s\nvs\n%s", a, b)
	}
}

// TestJobManifestRejectsInconsistentTables: a table whose next_id would
// re-mint an existing job's ID, or whose record is filed under a key other
// than its ID, fails the load — whether the base holds it or a journal
// replays into it.
func TestJobManifestRejectsInconsistentTables(t *testing.T) {
	const okBase = `{"version":1,"kind":"jobs","next_id":2,"jobs":{"j1":{"id":"j1","client":"c","status":"done","spec":{}}}}`
	for _, tc := range []struct {
		name, base, journal string
		ok                  bool
	}{
		{name: "consistent", base: okBase, ok: true},
		{name: "next_id at the highest ID", base: `{"version":1,"kind":"jobs","next_id":1,"jobs":{"j1":{"id":"j1","status":"done","spec":{}}}}`},
		{name: "next_id below the highest ID", base: `{"version":1,"kind":"jobs","next_id":3,"jobs":{"j1":{"id":"j1","spec":{}},"j7":{"id":"j7","spec":{}}}}`},
		{name: "next_id missing", base: `{"version":1,"kind":"jobs","jobs":{"j1":{"id":"j1","spec":{}}}}`},
		{name: "id differs from key", base: `{"version":1,"kind":"jobs","next_id":3,"jobs":{"j1":{"id":"j2","status":"queued","spec":{}}}}`},
		{name: "empty id", base: `{"version":1,"kind":"jobs","next_id":2,"jobs":{"j1":{"status":"queued","spec":{}}}}`},
		{name: "IDs NextID never mints", base: `{"version":1,"kind":"jobs","next_id":1,"jobs":{"j0":{"id":"j0","spec":{}},"j01":{"id":"j01","spec":{}},"legacy":{"id":"legacy","spec":{}}}}`, ok: true},
		{name: "journal puts a job past next_id", base: okBase, journal: `{"op":"put","job":{"id":"j2","status":"queued","spec":{}}}`},
		{name: "journal mints before the put", base: okBase, journal: `{"op":"next","next":3}` + "\n" + `{"op":"put","job":{"id":"j2","status":"queued","spec":{}}}`, ok: true},
		{name: "journal record for an unknown job", base: okBase, journal: `{"op":"status","id":"j9","status":"running"}`},
		{name: "journal unit without a result", base: okBase, journal: `{"op":"unit","id":"j1","key":"k"}`},
		{name: "journal put without a record", base: okBase, journal: `{"op":"put"}`},
		{name: "journal unknown mutation", base: okBase, journal: `{"op":"drop","id":"j1"}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := JobManifestPath(t.TempDir())
			if err := os.WriteFile(path, []byte(tc.base), 0o600); err != nil {
				t.Fatal(err)
			}
			if tc.journal != "" {
				hdr := fmt.Sprintf(`{"kind":%q,"version":%d,"base":%q}`, manifestJournalKind, manifestJournalVersion, baseDigest([]byte(tc.base)))
				if err := os.WriteFile(JournalPath(path), []byte(hdr+"\n"+tc.journal+"\n"), 0o600); err != nil {
					t.Fatal(err)
				}
			}
			_, err := LoadJobManifest(path)
			if tc.ok && err != nil {
				t.Fatalf("consistent manifest rejected: %v", err)
			}
			if !tc.ok && err == nil {
				t.Fatal("inconsistent manifest loaded without error")
			}
		})
	}
}

// encodeManifestT renders a manifest's state as base file bytes.
func encodeManifestT(t *testing.T, m *JobManifest) []byte {
	t.Helper()
	m.mu.Lock()
	defer m.mu.Unlock()
	data, err := m.encodeLocked()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// loadManifestT loads the manifest at path and renders it as base bytes.
func loadManifestT(t *testing.T, path string) []byte {
	t.Helper()
	m, err := LoadJobManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	return encodeManifestT(t, m)
}

// liveJobScript is one job's life up to (not including) its terminal
// transition, as the server drives it: submit, start, golden fronts, one
// mutation per completed unit.
func liveJobScript(m *JobManifest) []func() error {
	var id string
	script := []func() error{
		func() (err error) { id, err = m.NextID(); return err },
		func() error {
			return m.Put(JobRecord{ID: id, Client: "alice", Status: "queued", Spec: json.RawMessage(`{"scenario": "table2"}`), Checkpoint: "job-" + id + ".ckpt.json"})
		},
		func() error { return m.SetStatus(id, "running", "") },
		func() error { return m.SetGolden(id, map[string][][]float64{"Area-Delay": {{1, 2}, {3, 4}}}) },
	}
	for s := int64(1); s <= 3; s++ {
		key := fmt.Sprintf("k|Area-Delay|PPATuner|seed=%d", s)
		u := JobUnit{Space: "Area-Delay", Method: "PPATuner", Seed: s, HV: 0.5 / float64(s), Runs: 40, Front: [][]float64{{float64(s), 2}}}
		script = append(script, func() error { return m.SetUnit(id, key, u) })
	}
	return script
}

// newManifestWithBaseT builds a manifest at path whose base file already
// holds one finished job.
func newManifestWithBaseT(t *testing.T, path string) *JobManifest {
	t.Helper()
	m := NewJobManifest(path)
	id, err := m.NextID()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Put(JobRecord{ID: id, Client: "bob", Status: "done", Spec: json.RawMessage(`{}`), FinishedAtUnix: 7}); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestJobManifestJournalAppends: a live job's mutations leave the base
// file alone and append one journal line each, carrying only what changed;
// at every step base plus journal loads to the handle's state. The job's
// terminal transition compacts into a base in the v1 format and removes the
// journal.
func TestJobManifestJournalAppends(t *testing.T) {
	path := JobManifestPath(t.TempDir())
	m := newManifestWithBaseT(t, path)
	base := readT(t, path)
	if readT(t, JournalPath(path)) != nil {
		t.Fatal("a terminal Put left a journal")
	}
	for n, step := range liveJobScript(m) {
		if err := step(); err != nil {
			t.Fatal(err)
		}
		if got := readT(t, path); !bytes.Equal(got, base) {
			t.Fatalf("live mutation %d rewrote the base file", n)
		}
		journal := readT(t, JournalPath(path))
		lines := bytes.Split(bytes.TrimSuffix(journal, []byte("\n")), []byte("\n"))
		if len(lines) != n+2 {
			t.Fatalf("after %d mutations the journal has %d lines, want %d (header + records)", n+1, len(lines), n+2)
		}
		if last := lines[len(lines)-1]; bytes.Contains(last, []byte(`"scenario"`)) != (n == 1) || bytes.Contains(last, []byte("seed=1")) != (n == 4) {
			t.Fatalf("mutation %d journaled more than it changed: %s", n, last)
		}
		if got, want := loadManifestT(t, path), encodeManifestT(t, m); !bytes.Equal(got, want) {
			t.Fatalf("base + journal loads to\n%s\nwant\n%s", got, want)
		}
	}
	if err := m.SetStatusAt("j2", "done", "", 9); err != nil {
		t.Fatal(err)
	}
	if readT(t, JournalPath(path)) != nil {
		t.Fatal("the terminal transition left the journal behind")
	}
	if got, want := readT(t, path), encodeManifestT(t, m); !bytes.Equal(got, want) || bytes.Equal(got, base) {
		t.Fatalf("compacted base\n%s\nwant\n%s", got, want)
	}
}

// TestJobManifestTornTailEveryOffset is the crash property: a journal cut
// at any byte offset (a writer killed mid-append) loads to the state after
// its last complete line, and the first mutation after that load compacts.
func TestJobManifestTornTailEveryOffset(t *testing.T) {
	dir := t.TempDir()
	path := JobManifestPath(dir)
	m := newManifestWithBaseT(t, path)
	base := readT(t, path)
	states := [][]byte{encodeManifestT(t, m)}
	ends := []int{0}
	for _, step := range liveJobScript(m) {
		if err := step(); err != nil {
			t.Fatal(err)
		}
		states = append(states, encodeManifestT(t, m))
		ends = append(ends, len(readT(t, JournalPath(path))))
	}
	journal := readT(t, JournalPath(path))

	for cut := 0; cut <= len(journal); cut++ {
		p := filepath.Join(dir, fmt.Sprintf("cut%d.json", cut))
		if err := os.WriteFile(p, base, 0o600); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(JournalPath(p), journal[:cut], 0o600); err != nil {
			t.Fatal(err)
		}
		k := 0
		for k+1 < len(ends) && ends[k+1] <= cut {
			k++
		}
		re, err := LoadJobManifest(p)
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		if got := encodeManifestT(t, re); !bytes.Equal(got, states[k]) {
			t.Fatalf("cut at %d: loaded\n%s\nwant the state after %d mutations\n%s", cut, got, k, states[k])
		}
		if _, err := re.NextID(); err != nil {
			t.Fatal(err)
		}
		replayed := cut >= bytes.IndexByte(journal, '\n')+1
		if compacted := readT(t, JournalPath(p)) == nil; compacted != replayed {
			t.Fatalf("cut at %d: first mutation compacted = %v, want %v (only after a replayed journal)", cut, compacted, replayed)
		}
		if got, want := loadManifestT(t, p), encodeManifestT(t, re); !bytes.Equal(got, want) {
			t.Fatalf("cut at %d: after the next mutation loads to\n%s\nwant\n%s", cut, got, want)
		}
	}
}

// TestJobManifestStaleJournalIgnored: a journal whose header names other
// base bytes — a crash between a compaction's rename and the journal's
// removal — contributes nothing, and the next append replaces it.
func TestJobManifestStaleJournalIgnored(t *testing.T) {
	path := JobManifestPath(t.TempDir())
	m := newManifestWithBaseT(t, path)
	for _, step := range liveJobScript(m) {
		if err := step(); err != nil {
			t.Fatal(err)
		}
	}
	oldJournal := readT(t, JournalPath(path))
	if err := m.SetStatusAt("j2", "failed", "tool licence lost", 9); err != nil { // compacts
		t.Fatal(err)
	}
	compacted := readT(t, path)
	if err := os.WriteFile(JournalPath(path), oldJournal, 0o600); err != nil {
		t.Fatal(err)
	}
	re, err := LoadJobManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := encodeManifestT(t, re); !bytes.Equal(got, compacted) {
		t.Fatalf("stale journal changed the loaded state:\n%s\nwant\n%s", got, compacted)
	}
	if _, err := re.NextID(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(readT(t, path), compacted) {
		t.Fatal("the first mutation after a stale journal rewrote the base instead of appending")
	}
	if got, want := loadManifestT(t, path), encodeManifestT(t, re); !bytes.Equal(got, want) {
		t.Fatalf("fresh journal after a stale one loads to\n%s\nwant\n%s", got, want)
	}
}

// TestJobManifestFailedAppendCompacts: after an append fails, the journal
// may end in a partial line, so the next mutation compacts everything —
// the failed mutation included — instead of appending after it.
func TestJobManifestFailedAppendCompacts(t *testing.T) {
	path := JobManifestPath(t.TempDir())
	m := newManifestWithBaseT(t, path)
	script := liveJobScript(m)
	for _, step := range script[:3] {
		if err := step(); err != nil {
			t.Fatal(err)
		}
	}
	m.mu.Lock()
	_ = m.jnl.f.Close() // the next write(2) fails
	m.mu.Unlock()
	if err := script[3](); err == nil {
		t.Fatal("append to a closed journal succeeded")
	}
	if err := script[4](); err != nil {
		t.Fatal(err)
	}
	if readT(t, JournalPath(path)) != nil {
		t.Fatal("the mutation after a failed append appended instead of compacting")
	}
	if got, want := readT(t, path), encodeManifestT(t, m); !bytes.Equal(got, want) {
		t.Fatalf("compacted base\n%s\nwant\n%s", got, want)
	}
	if rec, _ := m.Get("j2"); rec.Golden == nil || len(rec.Units) != 1 {
		t.Fatalf("compaction lost a mutation: %+v", rec)
	}
}

// FuzzLoadJobManifest feeds arbitrary base and journal bytes to the loader.
// A "@BASE@" in the journal is replaced by the base's digest, so the fuzzer
// reaches the record parser rather than stopping at a stale header. A load
// must never panic, and a successful one must compact to bytes that reload
// to the same manifest. The seed corpus is in testdata/fuzz.
func FuzzLoadJobManifest(f *testing.F) {
	f.Fuzz(func(t *testing.T, base, journal []byte) {
		path := JobManifestPath(t.TempDir())
		if err := os.WriteFile(path, base, 0o600); err != nil {
			t.Fatal(err)
		}
		journal = bytes.ReplaceAll(journal, []byte("@BASE@"), []byte(baseDigest(base)))
		if err := os.WriteFile(JournalPath(path), journal, 0o600); err != nil {
			t.Fatal(err)
		}
		m, err := LoadJobManifest(path)
		if err != nil {
			return
		}
		m.mu.Lock()
		err = m.compactLocked()
		m.mu.Unlock()
		if err != nil {
			t.Fatalf("compacting a loaded manifest: %v", err)
		}
		once := readT(t, path)
		if readT(t, JournalPath(path)) != nil {
			t.Fatal("compaction left the journal behind")
		}
		re, err := LoadJobManifest(path)
		if err != nil {
			t.Fatalf("reloading a compacted manifest: %v\n%s", err, once)
		}
		if twice := encodeManifestT(t, re); !bytes.Equal(once, twice) {
			t.Fatalf("compaction does not round-trip:\n%s\nthen\n%s", once, twice)
		}
	})
}
