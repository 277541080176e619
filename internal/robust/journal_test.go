package robust

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// encodeT renders a handle's state as base file bytes.
func encodeT(t *testing.T, ck *CampaignCheckpoint) []byte {
	t.Helper()
	ck.mu.Lock()
	defer ck.mu.Unlock()
	data, err := ck.encodeLocked()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// readT reads a file, returning nil for a missing one.
func readT(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// journalQoR is the deterministic "tool" of the journal tests.
func journalQoR(i int) []float64 { return []float64{float64(i) * 0.5, 1 / float64(i+3)} }

// journalOp is one step of the scripted two-unit campaign below: an
// observation for unit u through WrapCell or for unit v through
// AddPartialObservation.
type journalOp struct {
	wrap  bool
	index int
}

var journalScript = []journalOp{
	{true, 5}, {false, 2}, {true, 3}, {true, 9}, {false, 7},
	{false, 2}, {true, 1}, {false, 4}, {true, 6}, {false, 8},
}

// runJournalScript starts units u and v (if not resumed) and applies the
// script; replayed observations are answered from the checkpoint.
func runJournalScript(t *testing.T, ck *CampaignCheckpoint) {
	t.Helper()
	for _, key := range []string{"u", "v"} {
		if state, _ := ck.PartialRandState(key); state == nil {
			if err := ck.StartCell(key, []byte("rng-"+key)); err != nil {
				t.Fatal(err)
			}
		}
	}
	wrapped := ck.WrapCell("u", func(i int) ([]float64, error) { return journalQoR(i), nil })
	for _, op := range journalScript {
		var err error
		if op.wrap {
			_, err = wrapped(op.index)
		} else {
			err = ck.AddPartialObservation("v", Observation{Index: op.index, QoR: journalQoR(op.index)})
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestObservationsAppendToJournal: after a unit starts, observations and
// the completion leave the base file alone and append one journal line
// each; at every step the base plus journal loads to exactly the state the
// handle holds, and retiring compacts, folding the journal back into a base
// in the usual format.
func TestObservationsAppendToJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.json")
	ck := NewCampaignCheckpoint(path)
	if err := ck.StartCell("u", []byte("rng")); err != nil {
		t.Fatal(err)
	}
	base := readT(t, path)
	ev := ck.WrapCell("u", func(i int) ([]float64, error) { return journalQoR(i), nil })
	for n, i := range []int{4, 8, 15} {
		if _, err := ev(i); err != nil {
			t.Fatal(err)
		}
		if got := readT(t, path); !bytes.Equal(got, base) {
			t.Fatalf("observation %d rewrote the base file", n)
		}
		if lines := bytes.Count(readT(t, JournalPath(path)), []byte("\n")); lines != n+2 {
			t.Fatalf("after %d observations the journal has %d lines, want %d (header + records)", n+1, lines, n+2)
		}
		re, err := LoadCampaignCheckpoint(path)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := encodeT(t, re), encodeT(t, ck); !bytes.Equal(got, want) {
			t.Fatalf("base + journal loads to\n%s\nwant\n%s", got, want)
		}
	}
	if err := ck.Complete("u", CampaignCell{HV: 0.5, Runs: 3}); err != nil {
		t.Fatal(err)
	}
	if got := readT(t, path); !bytes.Equal(got, base) {
		t.Fatal("the completion rewrote the base file")
	}
	if lines := bytes.Count(readT(t, JournalPath(path)), []byte("\n")); lines != 5 {
		t.Fatalf("after the completion the journal has %d lines, want 5", lines)
	}
	if err := ck.Retire(); err != nil {
		t.Fatal(err)
	}
	if readT(t, JournalPath(path)) != nil {
		t.Fatal("compaction left the journal behind")
	}
	if got, want := readT(t, path), encodeT(t, ck); !bytes.Equal(got, want) {
		t.Fatalf("compacted base\n%s\nwant\n%s", got, want)
	}
}

// TestJournalTornTailEveryOffset is the crash property: a journal cut at
// any byte offset (a writer killed mid-append) loads to a prefix of each
// unit's observations, and resuming the same work from there ends in a
// checkpoint byte-identical to the uninterrupted run's.
func TestJournalTornTailEveryOffset(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "full.json")
	full := NewCampaignCheckpoint(path)
	runJournalScript(t, full)
	base, journal := readT(t, path), readT(t, JournalPath(path))
	if journal == nil {
		t.Fatal("script left no journal to cut")
	}
	wantObs := map[string][]Observation{"u": full.PartialObservations("u"), "v": full.PartialObservations("v")}
	finish := func(ck *CampaignCheckpoint) {
		t.Helper()
		if err := ck.Complete("u", CampaignCell{HV: 0.25, Runs: 6}); err != nil {
			t.Fatal(err)
		}
		if err := ck.Retire(); err != nil {
			t.Fatal(err)
		}
	}
	finish(full)
	want := readT(t, path)

	for cut := 0; cut <= len(journal); cut++ {
		p := filepath.Join(dir, fmt.Sprintf("cut%d.json", cut))
		if err := os.WriteFile(p, base, 0o600); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(JournalPath(p), journal[:cut], 0o600); err != nil {
			t.Fatal(err)
		}
		ck, err := LoadCampaignCheckpoint(p)
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		for key, all := range wantObs {
			got := ck.PartialObservations(key)
			if len(got) > len(all) {
				t.Fatalf("cut at %d: unit %s has %d observations, more than the full run's %d", cut, key, len(got), len(all))
			}
			for n, o := range got {
				if o.Index != all[n].Index || !equalVec(o.QoR, all[n].QoR) {
					t.Fatalf("cut at %d: unit %s observation %d = %+v, not a prefix of %+v", cut, key, n, o, all)
				}
			}
			if _, observed := ck.PartialRandState(key); observed != len(got) {
				t.Fatalf("cut at %d: unit %s reports %d observations, holds %d", cut, key, observed, len(got))
			}
		}
		runJournalScript(t, ck)
		finish(ck)
		if got := readT(t, p); !bytes.Equal(got, want) {
			t.Fatalf("cut at %d: resumed checkpoint\n%s\nwant\n%s", cut, got, want)
		}
		if readT(t, JournalPath(p)) != nil {
			t.Fatalf("cut at %d: journal left after compaction", cut)
		}
	}
}

// mixedScript is a sequence of every kind of journaled mutation over three
// units: starts, leases and a re-grant, write-through and streamed
// observations, and completions.
func mixedScript(ck *CampaignCheckpoint) []func() error {
	wrap := func(key string, i int) func() error {
		return func() error {
			_, err := ck.WrapCell(key, func(i int) ([]float64, error) { return journalQoR(i), nil })(i)
			return err
		}
	}
	add := func(key string, i int) func() error {
		return func() error { return ck.AddPartialObservation(key, Observation{Index: i, QoR: journalQoR(i)}) }
	}
	return []func() error{
		func() error { return ck.Lease("a", 1, "w0") },
		func() error { return ck.StartCell("a", []byte("rng-a")) },
		wrap("a", 3),
		func() error { return ck.Lease("b", 1, "w1") },
		func() error { return ck.StartCell("b", []byte("rng-b")) },
		add("b", 5),
		add("a", 8),
		func() error { return ck.Lease("a", 2, "w1") },
		add("b", 1),
		func() error { return ck.Complete("b", CampaignCell{HV: 0.3, ADRS: 0.1, Runs: 2}) },
		func() error { return ck.StartCell("c", []byte("rng-c")) },
		func() error { return ck.Lease("c", 4, "w0") },
		wrap("a", 2),
		func() error { return ck.Complete("a", CampaignCell{HV: 0.2, ADRS: 0.05, Runs: 3}) },
	}
}

// TestJournalMixedOpsCutEveryOffset is the crash property over every kind
// of record: a journal of starts, leases, observations and completions cut
// at any byte offset loads to exactly the state the writer
// held after the records whose lines are complete.
func TestJournalMixedOpsCutEveryOffset(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "full.json")
	ck := NewCampaignCheckpoint(path)
	script := mixedScript(ck)
	if err := script[0](); err != nil { // creates the base
		t.Fatal(err)
	}
	base := readT(t, path)
	states := [][]byte{encodeT(t, ck)} // states[n]: after n journal records
	for n, step := range script[1:] {
		if err := step(); err != nil {
			t.Fatalf("step %d: %v", n+1, err)
		}
		if got := readT(t, path); !bytes.Equal(got, base) {
			t.Fatalf("step %d rewrote the base file", n+1)
		}
		if lines := bytes.Count(readT(t, JournalPath(path)), []byte("\n")); lines != n+2 {
			t.Fatalf("after step %d the journal has %d lines, want %d (header + records)", n+1, lines, n+2)
		}
		states = append(states, encodeT(t, ck))
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
		re, err := LoadCampaignCheckpoint(p)
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		records := max(bytes.Count(journal[:cut], []byte("\n"))-1, 0)
		if got := encodeT(t, re); !bytes.Equal(got, states[records]) {
			t.Fatalf("cut at %d (%d records): loaded\n%s\nwant\n%s", cut, records, got, states[records])
		}
	}
}

// TestJournalV1Replays: an observation-only version-1 journal, as written
// before starts, leases and completions were journaled, loads like
// the same observations made now; the next mutation compacts rather than
// appending current records to it.
func TestJournalV1Replays(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.json")
	ck := NewCampaignCheckpoint(path)
	if err := ck.StartCell("u", []byte("rng")); err != nil {
		t.Fatal(err)
	}
	base := readT(t, path)
	type v1Record struct {
		Key   string    `json:"key"`
		Index int       `json:"index"`
		QoR   []float64 `json:"qor"`
		Iters int       `json:"iters"`
	}
	v1 := fmt.Sprintf(`{"kind":%q,"version":1,"base":%q}`+"\n", journalKind, baseDigest(base))
	for n, i := range []int{4, 9} {
		line, err := json.Marshal(v1Record{Key: "u", Index: i, QoR: journalQoR(i), Iters: n + 1})
		if err != nil {
			t.Fatal(err)
		}
		v1 += string(line) + "\n"
	}
	if err := os.WriteFile(JournalPath(path), []byte(v1), 0o600); err != nil {
		t.Fatal(err)
	}

	re, err := LoadCampaignCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{4, 9} {
		if err := ck.AddPartialObservation("u", Observation{Index: i, QoR: journalQoR(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := encodeT(t, re), encodeT(t, ck); !bytes.Equal(got, want) {
		t.Fatalf("v1 journal loads to\n%s\nwant\n%s", got, want)
	}
	if err := re.Lease("u", 1, "w0"); err != nil {
		t.Fatal(err)
	}
	if readT(t, JournalPath(path)) != nil {
		t.Fatal("the first mutation after a v1 replay did not compact")
	}
	if err := re.Lease("u", 2, "w1"); err != nil {
		t.Fatal(err)
	}
	if hdr, _, _ := bytes.Cut(readT(t, JournalPath(path)), []byte("\n")); !bytes.Contains(hdr, []byte(fmt.Sprintf(`"version":%d`, journalVersion))) {
		t.Fatalf("journal header after the compaction = %s, want version %d", hdr, journalVersion)
	}
	again, err := LoadCampaignCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := encodeT(t, again), encodeT(t, re); !bytes.Equal(got, want) {
		t.Fatalf("reload after the v1 replay\n%s\nwant\n%s", got, want)
	}
}

// TestLegacyParkAndItersIgnored: state written while campaigns parked units
// and counted fresh evaluations — a base with "parked" and a partial
// "iters", a journal with park and unpark records and observations carrying
// "iters", one of them a duplicate — loads to the state the same starts and
// observations make now, and retires to the same bytes.
func TestLegacyParkAndItersIgnored(t *testing.T) {
	want := NewCampaignCheckpoint("")
	if err := want.StartCell("u", []byte("rng")); err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{4, 9} {
		if err := want.AddPartialObservation("u", Observation{Index: i, QoR: journalQoR(i)}); err != nil {
			t.Fatal(err)
		}
	}

	path := filepath.Join(t.TempDir(), "campaign.json")
	qor := func(i int) string {
		data, err := json.Marshal(journalQoR(i))
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	base := fmt.Sprintf(`{"version":4,"kind":"campaign","cells":{},"partial":{"u":{"runs":[{"index":4,"qor":%s}],"rand_state":"cm5n","iters":1}},"parked":["u","v"]}`, qor(4))
	journal := fmt.Sprintf(`{"kind":%q,"version":2,"base":%q}`+"\n", journalKind, baseDigest([]byte(base))) +
		`{"op":"park","key":"u"}` + "\n" +
		fmt.Sprintf(`{"key":"u","index":9,"qor":%s,"iters":2}`+"\n", qor(9)) +
		fmt.Sprintf(`{"key":"u","index":9,"qor":%s,"iters":3}`+"\n", qor(9)) +
		`{"op":"unpark","key":"u"}` + "\n" + `{"op":"unpark","key":"v"}` + "\n"
	if err := os.WriteFile(path, []byte(base), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(JournalPath(path), []byte(journal), 0o600); err != nil {
		t.Fatal(err)
	}
	ck, err := LoadCampaignCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := encodeT(t, ck); !bytes.Equal(got, encodeT(t, want)) {
		t.Fatalf("legacy state loads to\n%s\nwant\n%s", got, encodeT(t, want))
	}
	if err := ck.Retire(); err != nil {
		t.Fatal(err)
	}
	if got := readT(t, path); !bytes.Equal(got, encodeT(t, want)) {
		t.Fatalf("legacy state retires to\n%s\nwant\n%s", got, encodeT(t, want))
	}
}

func equalVec(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestStaleJournalIgnored: a journal whose header names other base bytes —
// a crash between a compaction's rename and the journal's removal, or a
// base deleted by hand — contributes nothing, and the next write replaces
// it.
func TestStaleJournalIgnored(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "campaign.json")
	ck := NewCampaignCheckpoint(path)
	runJournalScript(t, ck)
	oldJournal := readT(t, JournalPath(path))
	if err := ck.StartCell("x", []byte("rng-x")); err != nil {
		t.Fatal(err)
	}
	if err := ck.Retire(); err != nil { // compacts
		t.Fatal(err)
	}
	compacted := readT(t, path)

	// Crash after the rename, before the removal: the old journal is back.
	if err := os.WriteFile(JournalPath(path), oldJournal, 0o600); err != nil {
		t.Fatal(err)
	}
	re, err := LoadCampaignCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := encodeT(t, re); !bytes.Equal(got, compacted) {
		t.Fatalf("stale journal changed the loaded state:\n%s\nwant\n%s", got, compacted)
	}
	// The next observation starts a fresh journal for the current base.
	if err := re.AddPartialObservation("v", Observation{Index: 11, QoR: journalQoR(11)}); err != nil {
		t.Fatal(err)
	}
	again, err := LoadCampaignCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := encodeT(t, again), encodeT(t, re); !bytes.Equal(got, want) {
		t.Fatalf("fresh journal after a stale one loads to\n%s\nwant\n%s", got, want)
	}

	// The base deleted by hand, the sidecar left: a fresh campaign.
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	empty, err := LoadCampaignCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := encodeT(t, empty), encodeT(t, NewCampaignCheckpoint("")); !bytes.Equal(got, want) {
		t.Fatalf("journal without a base loaded state:\n%s", got)
	}
}

// TestJournalReplayIdempotent: records replayed over a base that already
// holds them change nothing — starts of units with partial state,
// observations already held, leases at or below the recorded epoch, and
// every record of a unit completed since.
func TestJournalReplayIdempotent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.json")
	ck := NewCampaignCheckpoint(path)
	runJournalScript(t, ck)
	for _, step := range []func() error{
		func() error { return ck.Lease("v", 1, "w0") },
		func() error { return ck.Lease("v", 2, "w1") },
		func() error { return ck.Lease("u", 1, "w0") },
		func() error { return ck.Complete("u", CampaignCell{HV: 0.5, Runs: 6}) },
	} {
		if err := step(); err != nil {
			t.Fatal(err)
		}
	}
	journal := readT(t, JournalPath(path))
	if err := ck.Retire(); err != nil {
		t.Fatal(err)
	}
	base := readT(t, path)
	// Re-aim the old records at the new base, as if appended after it.
	_, records, _ := bytes.Cut(journal, []byte("\n"))
	hdr := fmt.Sprintf(`{"kind":%q,"version":%d,"base":%q}`+"\n", journalKind, journalVersion, baseDigest(base))
	if err := os.WriteFile(JournalPath(path), append([]byte(hdr), records...), 0o600); err != nil {
		t.Fatal(err)
	}
	re, err := LoadCampaignCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := encodeT(t, re); !bytes.Equal(got, base) {
		t.Fatalf("replaying already-applied records changed the state:\n%s\nwant\n%s", got, base)
	}
}

// TestJournalMalformedLineIsError: a complete line that does not parse or
// names no valid mutation is corruption, not a torn append, and fails the
// load; so does a header of another kind or of a future version.
func TestJournalMalformedLineIsError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.json")
	ck := NewCampaignCheckpoint(path)
	runJournalScript(t, ck)
	journal := readT(t, JournalPath(path))
	for name, bad := range map[string][]byte{
		"record":      append(append([]byte(nil), journal...), "{not json\n"...),
		"header":      append([]byte("garbage\n"), journal...),
		"kind":        []byte(`{"kind":"jobs","version":1,"base":"x"}` + "\n"),
		"version":     []byte(`{"kind":"campaign-obs","version":3,"base":"x"}` + "\n"),
		"invalid qor": append(append([]byte(nil), journal...), `{"key":"u","index":1,"qor":[1e999],"iters":9}`+"\n"...),
		"unknown op":  append(append([]byte(nil), journal...), `{"op":"steal","key":"u"}`+"\n"...),
		"no cell":     append(append([]byte(nil), journal...), `{"op":"done","key":"u"}`+"\n"...),
	} {
		if err := os.WriteFile(JournalPath(path), bad, 0o600); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadCampaignCheckpoint(path); err == nil {
			t.Errorf("%s: malformed journal loaded without error", name)
		}
	}
	// The same garbage without its newline is a torn tail: dropped.
	torn := append(append([]byte(nil), journal...), "{not json"...)
	if err := os.WriteFile(JournalPath(path), torn, 0o600); err != nil {
		t.Fatal(err)
	}
	re, err := LoadCampaignCheckpoint(path)
	if err != nil {
		t.Fatalf("torn tail: %v", err)
	}
	if got, want := encodeT(t, re), encodeT(t, ck); !bytes.Equal(got, want) {
		t.Fatalf("torn tail changed the state:\n%s\nwant\n%s", got, want)
	}
}

// TestDeposedAppendFenced: once a standby adopts, the deposed primary's
// observation append fails with ErrFenced and leaves both the base and the
// new owner's journal byte-for-byte as they were.
func TestDeposedAppendFenced(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.json")
	primary, err := LoadCampaignCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	adoptT(t, primary)
	runJournalScript(t, primary) // primary's journal is live

	standby, err := LoadCampaignCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	adoptT(t, standby)
	if got, want := encodeT(t, standby), encodeT(t, primary); !bytes.Contains(got, []byte(`"generation": 2`)) ||
		!bytes.Equal(bytes.Replace(got, []byte(`"generation": 2`), []byte(`"generation": 1`), 1), want) {
		t.Fatalf("adoption did not take over the journaled state:\n%s\nwant\n%s", got, want)
	}
	if err := standby.AddPartialObservation("v", Observation{Index: 30, QoR: journalQoR(30)}); err != nil {
		t.Fatal(err)
	}
	base, journal := readT(t, path), readT(t, JournalPath(path))
	if journal == nil {
		t.Fatal("the new owner's observation left no journal")
	}

	err = primary.AddPartialObservation("v", Observation{Index: 31, QoR: journalQoR(31)})
	if !errors.Is(err, ErrFenced) {
		t.Fatalf("deposed append: err = %v, want ErrFenced", err)
	}
	if _, err := primary.WrapCell("u", func(i int) ([]float64, error) { return journalQoR(i), nil })(32); !errors.Is(err, ErrFenced) {
		t.Fatalf("deposed write-through: err = %v, want ErrFenced", err)
	}
	if !bytes.Equal(readT(t, path), base) || !bytes.Equal(readT(t, JournalPath(path)), journal) {
		t.Fatal("deposed primary's append changed the base or the journal")
	}
	// The owner keeps appending after the bounced writes.
	if err := standby.AddPartialObservation("v", Observation{Index: 33, QoR: journalQoR(33)}); err != nil {
		t.Fatal(err)
	}
}

// TestRemoveCampaignCheckpoint removes a checkpoint with every sidecar and
// tolerates files that are already gone.
func TestRemoveCampaignCheckpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.json")
	ck := NewCampaignCheckpoint(path)
	adoptT(t, ck)
	runJournalScript(t, ck)
	for _, p := range []string{path, JournalPath(path), path + ".lock"} {
		if _, err := os.Stat(p); err != nil {
			t.Fatalf("before removal: %v", err)
		}
	}
	if err := RemoveCampaignCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("removal left %d files, first %s", len(entries), entries[0].Name())
	}
	if err := RemoveCampaignCheckpoint(path); err != nil {
		t.Fatalf("removing a removed checkpoint: %v", err)
	}
}

// FuzzLoadCampaignCheckpoint feeds arbitrary base and journal bytes to the
// loader. A "@BASE@" in the journal is replaced by the base's digest, so
// the fuzzer reaches the record parser rather than stopping at a stale
// header. A load must never panic, and a successful one must compact to
// bytes that reload and compact to themselves. The seed corpus is in
// testdata/fuzz.
func FuzzLoadCampaignCheckpoint(f *testing.F) {
	f.Fuzz(func(t *testing.T, base, journal []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "campaign.json")
		if err := os.WriteFile(path, base, 0o600); err != nil {
			t.Fatal(err)
		}
		journal = bytes.ReplaceAll(journal, []byte("@BASE@"), []byte(baseDigest(base)))
		if err := os.WriteFile(JournalPath(path), journal, 0o600); err != nil {
			t.Fatal(err)
		}
		ck, err := LoadCampaignCheckpoint(path)
		if err != nil {
			return
		}
		ck.mu.Lock()
		err = ck.saveLocked()
		ck.mu.Unlock()
		if err != nil {
			t.Fatalf("compacting a loaded checkpoint: %v", err)
		}
		once := readT(t, path)
		if readT(t, JournalPath(path)) != nil {
			t.Fatal("compaction left the journal behind")
		}
		re, err := LoadCampaignCheckpoint(path)
		if err != nil {
			t.Fatalf("reloading a compacted checkpoint: %v\n%s", err, once)
		}
		if twice := encodeT(t, re); !bytes.Equal(once, twice) {
			t.Fatalf("compaction does not round-trip:\n%s\nthen\n%s", once, twice)
		}
	})
}
