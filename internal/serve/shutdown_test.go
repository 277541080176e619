package serve

import (
	"bufio"
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ppatuner/internal/clock"
	"ppatuner/internal/core"
	"ppatuner/internal/eval"
	"ppatuner/internal/robust"
)

// sseLines reads one SSE stream until an event of the wanted type arrives,
// returning the event types seen in order.
func sseUntil(t *testing.T, body io.Reader, want string) []string {
	t.Helper()
	var types []string
	sc := bufio.NewScanner(body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "event: ") {
			continue
		}
		typ := strings.TrimPrefix(line, "event: ")
		types = append(types, typ)
		if typ == want {
			return types
		}
	}
	t.Fatalf("stream ended without %q event; saw %v", want, types)
	return nil
}

// frontBytes fetches the raw front document — byte identity is the contract.
func frontBytes(t *testing.T, ts *httptest.Server, id string) []byte {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/jobs/" + id + "/front")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("front: %d", resp.StatusCode)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestGracefulShutdownDrainAndResume is the serve layer's core durability
// proof, run entirely on channels (no real sleeps):
//
//  1. a campaign is interrupted mid-unit by Shutdown; the in-flight SSE
//     stream receives a terminal shutdown event before closing;
//  2. the job parks with its paid-for observations checkpointed;
//  3. a second server over the same state dir requeues and finishes it, and
//     the total fresh evaluator calls across both processes equal an
//     uninterrupted control run's — nothing lost, nothing recomputed;
//  4. the resumed front document is byte-identical to the control's.
func TestGracefulShutdownDrainAndResume(t *testing.T) {
	req := JobRequest{
		Scenario: "table2", Spaces: []string{"Area-Delay"},
		Methods: []string{"TCAD'19", "DAC'19"}, Seeds: "1",
	}

	// Control: uninterrupted run in its own state dir.
	var controlEvals atomic.Int64
	control := newTestServer(t, nil)
	control.wrapUnit = func(_ eval.Unit, ev core.Evaluator) core.Evaluator {
		return func(i int) ([]float64, error) {
			controlEvals.Add(1)
			return ev(i)
		}
	}
	controlTS := httptest.NewServer(control.Handler())
	defer controlTS.Close()
	controlSub, _ := postJob(t, controlTS, req)
	waitStatus(t, controlTS, controlSub.ID, StatusDone)
	wantFront := frontBytes(t, controlTS, controlSub.ID)

	// Interrupted run: block the 10th evaluation mid-unit, shut down while
	// it is in flight, release it once the drain has begun.
	stateDir := t.TempDir()
	var phase1Evals atomic.Int64
	ready := make(chan struct{})
	proceed := make(chan struct{})
	var once sync.Once
	s1 := newTestServer(t, func(c *Config) { c.StateDir = stateDir })
	s1.wrapUnit = func(_ eval.Unit, ev core.Evaluator) core.Evaluator {
		return func(i int) ([]float64, error) {
			if phase1Evals.Add(1) == 10 {
				once.Do(func() { close(ready) })
				<-proceed
			}
			return ev(i)
		}
	}
	ts1 := httptest.NewServer(s1.Handler())
	defer ts1.Close()
	sub, _ := postJob(t, ts1, req)
	if sub.ID != controlSub.ID {
		t.Fatalf("job IDs diverge: %s vs %s", sub.ID, controlSub.ID)
	}
	<-ready // the campaign is mid-unit, evaluation 10 in flight

	// Subscribe before the drain so the stream is live when it happens.
	sseResp, err := ts1.Client().Get(ts1.URL + "/jobs/" + sub.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer sseResp.Body.Close()

	done := make(chan struct{})
	go func() {
		s1.Shutdown()
		close(done)
	}()
	// The terminal event must arrive while the campaign is still draining —
	// streams never wait for job completion.
	types := sseUntil(t, sseResp.Body, "shutdown")
	if types[0] != "status" {
		t.Errorf("stream opened with %q, want the status replay", types[0])
	}
	close(proceed) // let evaluation 10 finish; the next call aborts the unit
	<-done

	v, ok := s1.View(sub.ID)
	if !ok || v.Status != StatusParked {
		t.Fatalf("after drain: %+v", v)
	}
	if _, err := os.Stat(filepath.Join(stateDir, checkpointName(sub.ID))); err != nil {
		t.Fatalf("no campaign checkpoint after drain: %v", err)
	}

	// Second process, same state dir: the parked job requeues and finishes.
	// Start runs the requeued job at once, so the counter goes in first.
	var phase2Evals atomic.Int64
	s2, err := New(Config{StateDir: stateDir, Resolve: miniResolve, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	s2.wrapUnit = func(_ eval.Unit, ev core.Evaluator) core.Evaluator {
		return func(i int) ([]float64, error) {
			phase2Evals.Add(1)
			return ev(i)
		}
	}
	if err := s2.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s2.Shutdown)
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	waitStatus(t, ts2, sub.ID, StatusDone)

	if got, want := phase1Evals.Load()+phase2Evals.Load(), controlEvals.Load(); got != want {
		t.Errorf("fresh evaluations across interrupt+resume = %d, control = %d (replay must cover exactly the paid-for work)", got, want)
	}
	gotFront := frontBytes(t, ts2, sub.ID)
	if string(gotFront) != string(wantFront) {
		t.Errorf("resumed front differs from uninterrupted control:\n%s\nvs\n%s", gotFront, wantFront)
	}
}

// copyDirT copies the regular files of src into dst.
func copyDirT(t *testing.T, src, dst string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o600); err != nil {
			t.Fatal(err)
		}
	}
}

// TestKilledServerResumesFromManifestJournal is the SIGKILL proof in one
// process. The state dir is copied while a job is mid-campaign, with its
// submit, start, golden fronts and first unit in the manifest journal only:
// exactly the files a killed daemon leaves. A server booted on the copy
// finishes the job, and its front document, manifest and checkpoint are
// byte-identical to an uninterrupted run's, with no journal left.
func TestKilledServerResumesFromManifestJournal(t *testing.T) {
	req := JobRequest{
		Scenario: "table2", Spaces: []string{"Area-Delay"},
		Methods: []string{"TCAD'19", "DAC'19"}, Seeds: "1",
	}
	// One frozen clock stamps both runs' finish times alike.
	fake := clock.NewFake(time.Unix(1_000_000, 0))
	config := func(dir string) func(*Config) {
		return func(c *Config) { c.StateDir, c.Clock = dir, fake }
	}

	controlDir := t.TempDir()
	control := newTestServer(t, config(controlDir))
	controlTS := httptest.NewServer(control.Handler())
	defer controlTS.Close()
	sub, _ := postJob(t, controlTS, req)
	waitStatus(t, controlTS, sub.ID, StatusDone)
	wantFront := frontBytes(t, controlTS, sub.ID)

	// Hold the second unit's first tool run: units run one at a time, so
	// the first unit's result is in the manifest by then.
	dir := t.TempDir()
	held, proceed := make(chan struct{}), make(chan struct{})
	var once sync.Once
	var mu sync.Mutex
	var first *eval.Unit
	s1 := newTestServer(t, config(dir))
	s1.wrapUnit = func(u eval.Unit, ev core.Evaluator) core.Evaluator {
		mu.Lock()
		if first == nil {
			first = &u
		}
		second := *first != u
		mu.Unlock()
		return func(i int) ([]float64, error) {
			if second {
				once.Do(func() {
					close(held)
					<-proceed
				})
			}
			return ev(i)
		}
	}
	ts1 := httptest.NewServer(s1.Handler())
	defer ts1.Close()
	if got, _ := postJob(t, ts1, req); got.ID != sub.ID {
		t.Fatalf("job IDs diverge: %s vs %s", got.ID, sub.ID)
	}
	<-held
	killed := t.TempDir()
	copyDirT(t, dir, killed)
	close(proceed)
	manifest := robust.JobManifestPath(killed)
	journal, err := os.ReadFile(robust.JournalPath(manifest))
	if err != nil || !bytes.Contains(journal, []byte(`"op":"unit"`)) {
		t.Fatalf("the killed server left no manifest journal with a unit (%v):\n%s", err, journal)
	}
	t.Logf("manifest journal at the kill: %d lines", bytes.Count(journal, []byte("\n")))

	s2 := newTestServer(t, config(killed))
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	waitStatus(t, ts2, sub.ID, StatusDone)
	if got := frontBytes(t, ts2, sub.ID); !bytes.Equal(got, wantFront) {
		t.Errorf("resumed front differs from uninterrupted control:\n%s\nvs\n%s", got, wantFront)
	}
	for _, name := range []string{filepath.Base(manifest), checkpointName(sub.ID)} {
		want, err := os.ReadFile(filepath.Join(controlDir, name))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(killed, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("resumed %s differs from the control's:\n%s\nvs\n%s", name, got, want)
		}
		if _, err := os.Stat(robust.JournalPath(filepath.Join(killed, name))); !os.IsNotExist(err) {
			t.Errorf("%s journal left after the job finished: %v", name, err)
		}
	}
}

// TestShutdownUnblocksLongPoll proves a long-poll parked on a quiet job
// returns (empty page, same cursor) when the server drains instead of
// hanging the client.
func TestShutdownUnblocksLongPoll(t *testing.T) {
	ready := make(chan struct{})
	proceed := make(chan struct{})
	var once sync.Once
	s := newTestServer(t, nil)
	s.wrapUnit = func(_ eval.Unit, ev core.Evaluator) core.Evaluator {
		return func(i int) ([]float64, error) {
			once.Do(func() { close(ready) })
			<-proceed
			return ev(i)
		}
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	sub, _ := postJob(t, ts, JobRequest{Scenario: "table2", Spaces: []string{"Area-Delay"}, Methods: []string{"TCAD'19"}})
	<-ready

	// Drain the existing events, then park a poll on the current cursor.
	var page EventPage
	getJSON(t, ts, "/jobs/"+sub.ID+"/events?poll=1&since=0", &page)
	type result struct {
		code int
		page EventPage
	}
	got := make(chan result, 1)
	go func() {
		var p EventPage
		code := getJSON(t, ts, "/jobs/"+sub.ID+"/events?poll=1&since="+strconv.Itoa(page.Next), &p)
		got <- result{code, p}
	}()

	done := make(chan struct{})
	go func() {
		s.Shutdown()
		close(done)
	}()
	r := <-got
	if r.code != http.StatusOK || len(r.page.Events) != 0 || r.page.Next != page.Next {
		t.Fatalf("drained long-poll = %d %+v", r.code, r.page)
	}
	close(proceed)
	<-done
}

// TestSubmitAfterShutdown proves a draining server refuses new work with
// 503 rather than accepting jobs it will never run.
func TestSubmitAfterShutdown(t *testing.T) {
	s := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	s.Shutdown()
	_, resp := postJob(t, ts, JobRequest{Scenario: "table2"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit on draining server: %d, want 503", resp.StatusCode)
	}
	var health HealthDoc
	if code := getJSON(t, ts, "/healthz", &health); code != http.StatusOK || health.OK {
		t.Fatalf("draining healthz = %d %+v (OK must be false)", code, health)
	}
}
