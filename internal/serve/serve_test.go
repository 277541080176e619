package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ppatuner/internal/benchdata"
	"ppatuner/internal/clock"
	"ppatuner/internal/core"
	"ppatuner/internal/eval"
	"ppatuner/internal/param"
	"ppatuner/internal/pdtool"
	"ppatuner/internal/robust"
)

// miniResolve maps every scenario name to one cheap shared scenario, so
// server tests never pay for the paper-scale benchmark generation.
var (
	miniOnce sync.Once
	miniScn  *eval.Scenario
	miniErr  error
)

func miniResolve(string) (*eval.Scenario, error) {
	miniOnce.Do(func() {
		src, err := benchdata.Generate("mini-src", param.Source2Space(), pdtool.SmallMAC(), benchdata.GenOptions{Points: 120, Seed: 51})
		if err != nil {
			miniErr = err
			return
		}
		tgt, err := benchdata.Generate("mini-tgt", param.Target2Space(), pdtool.SmallMAC(), benchdata.GenOptions{Points: 100, Seed: 52})
		if err != nil {
			miniErr = err
			return
		}
		miniScn = &eval.Scenario{
			Name: "Mini", Source: src, Target: tgt,
			SourceN: 60, InitFrac: 0.08,
			Budgets: map[eval.Method]int{
				eval.TCAD19: 40, eval.MLCAD19: 30, eval.DAC19: 45,
				eval.ASPDAC20: 30, eval.PPATuner: 35,
			},
		}
	})
	return miniScn, miniErr
}

// newTestServer builds a started server over a fresh state dir with the
// cheap scenario resolver, registering shutdown as cleanup.
func newTestServer(t *testing.T, mutate func(*Config)) *Server {
	t.Helper()
	cfg := Config{
		StateDir: t.TempDir(),
		Resolve:  miniResolve,
		Logf:     t.Logf,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Shutdown)
	return s
}

// postJob submits a request over the HTTP surface and decodes the response.
func postJob(t *testing.T, ts *httptest.Server, req JobRequest) (SubmitResponse, *http.Response) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/jobs", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sub SubmitResponse
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
			t.Fatal(err)
		}
	}
	return sub, resp
}

// getJSON fetches a path and decodes into v, returning the status code.
func getJSON(t *testing.T, ts *httptest.Server, path string, v any) int {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

// waitStatus long-polls the events endpoint until the job reports one of
// the wanted statuses (bounded by the request context via the test's
// deadline-free client — each poll rides one HTTP request).
func waitStatus(t *testing.T, ts *httptest.Server, id string, want ...string) string {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	next := 0
	for time.Now().Before(deadline) {
		var page EventPage
		if code := getJSON(t, ts, fmt.Sprintf("/jobs/%s/events?poll=1&since=%d", id, next), &page); code != http.StatusOK {
			t.Fatalf("events poll returned %d", code)
		}
		next = page.Next
		var v JobView
		if code := getJSON(t, ts, "/jobs/"+id, &v); code != http.StatusOK {
			t.Fatalf("job view returned %d", code)
		}
		for _, w := range want {
			if v.Status == w {
				return v.Status
			}
		}
		if TerminalStatus(v.Status) {
			t.Fatalf("job %s ended %s (error %q), want one of %v", id, v.Status, v.Error, want)
		}
	}
	t.Fatalf("timed out waiting for job %s to reach %v", id, want)
	return ""
}

func TestSubmitValidation(t *testing.T) {
	s := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []JobRequest{
		{},                                  // no scenario
		{Scenario: "table2", Seeds: "zero"}, // bad seeds
		{Scenario: "table2", Methods: []string{"nope"}},
		{Scenario: "table2", Spaces: []string{"nope"}},
		{Scenario: "table2", Outage: "60s/10s"}, // outage without breaker
		{Scenario: "table2", Breaker: -1},
		{Scenario: "table2", Spaces: []string{"Area-Delay", "Area-Delay"}, Methods: []string{"DAC'19", "DAC'19"}, Seeds: "1"},
		{Scenario: "table2", Spaces: []string{"Area-Delay", "Power-Delay", "Area-Delay"}},
		{Scenario: "table2", Methods: []string{"DAC'19", "PPATuner", "DAC'19"}},
	}
	for i, req := range cases {
		if _, resp := postJob(t, ts, req); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("case %d: status %d, want 400", i, resp.StatusCode)
		}
	}
	if code := getJSON(t, ts, "/jobs/j99", nil); code != http.StatusNotFound {
		t.Errorf("unknown job view: %d, want 404", code)
	}
	if code := getJSON(t, ts, "/jobs/j99/front", nil); code != http.StatusNotFound {
		t.Errorf("unknown job front: %d, want 404", code)
	}
	var health HealthDoc
	if code := getJSON(t, ts, "/healthz", &health); code != http.StatusOK || !health.OK {
		t.Errorf("healthz = %d %+v", code, health)
	}
}

// TestRestartFailsStoredRepeatedAxes: a job stored with a repeated space
// and method (accepted before submissions refused repeats) fails at Start
// with a "requeue:" error instead of running four units under one key, and
// its view still reports the axes its spec names.
func TestRestartFailsStoredRepeatedAxes(t *testing.T) {
	dir := t.TempDir()
	m, err := robust.LoadJobManifest(robust.JobManifestPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	id, err := m.NextID()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Put(robust.JobRecord{
		ID: id, Client: "alice", Status: StatusQueued, Checkpoint: checkpointName(id),
		Spec: []byte(`{"scenario":"table2","spaces":["Area-Delay","Area-Delay"],"methods":["DAC'19","DAC'19"],"seeds":"1"}`),
	}); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{StateDir: dir, Resolve: miniResolve, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Shutdown)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var v JobView
	if code := getJSON(t, ts, "/jobs/"+id, &v); code != http.StatusOK {
		t.Fatalf("job view returned %d", code)
	}
	if v.Status != StatusFailed || v.Error != `requeue: space "Area-Delay" is listed twice` {
		t.Errorf("stored job with repeats: status %q, error %q; want failed with the repeated space named", v.Status, v.Error)
	}
	if strings.Join(v.Spaces, ",") != "Area-Delay,Area-Delay" || strings.Join(v.Methods, ",") != "DAC'19,DAC'19" || v.UnitsTotal != 4 || v.UnitsDone != 0 {
		t.Errorf("stored job with repeats: spaces %v, methods %v, %d of %d units done; want its stored axes and nothing run",
			v.Spaces, v.Methods, v.UnitsDone, v.UnitsTotal)
	}
}

// TestSubmitSurrogate: the exact GP is the only surrogate. A job that
// names it, or leaves the gp field out, is accepted. One that asks for the
// retired sparse GP gets 400 with an error naming "exact", and the manifest
// gains no job for it.
func TestSubmitSurrogate(t *testing.T) {
	s := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(gpField string) (int, string) {
		body := `{"scenario":"table2","spaces":["Area-Delay"],"methods":["DAC'19"],"seeds":"1"` + gpField + `}`
		resp, err := ts.Client().Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var doc ErrorDoc
		if resp.StatusCode != http.StatusAccepted {
			if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
				t.Fatal(err)
			}
		}
		return resp.StatusCode, doc.Error
	}
	for _, field := range []string{``, `,"gp":"exact"`} {
		if code, msg := post(field); code != http.StatusAccepted {
			t.Errorf("gp field %q: status %d (%s), want 202", field, code, msg)
		}
	}
	for _, field := range []string{`,"gp":"sparse"`, `,"gp":"sparse:32"`} {
		code, msg := post(field)
		if code != http.StatusBadRequest {
			t.Errorf("gp field %q: status %d, want 400", field, code)
		}
		if !strings.Contains(msg, "gp: ") || !strings.Contains(msg, `"exact"`) {
			t.Errorf("gp field %q: error %q, want a gp error naming \"exact\"", field, msg)
		}
	}
	if n := len(s.manifest.Jobs()); n != 2 {
		t.Errorf("manifest holds %d jobs, want the 2 accepted ones", n)
	}
}

// TestRestartFailsStoredSparseJob: a queued job persisted with
// "gp":"sparse:64" before the sparse GP was retired must not run as exact
// after a restart. Start marks it failed with a requeue error, and no unit
// of it runs, while a queued exact job beside it runs to completion. Its
// view still echoes the stored gp string and the axes its spec names, and
// its front the scenario and spaces.
func TestRestartFailsStoredSparseJob(t *testing.T) {
	dir := t.TempDir()
	m, err := robust.LoadJobManifest(robust.JobManifestPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	const spec = `{"client":"alice","scenario":"table2","spaces":["Area-Delay"],"methods":["DAC'19"],"seeds":"1","gp":%q}`
	ids := map[string]string{}
	for _, gp := range []string{"sparse:64", "exact"} {
		id, err := m.NextID()
		if err != nil {
			t.Fatal(err)
		}
		ids[gp] = id
		rec := robust.JobRecord{
			ID: id, Client: "alice", Status: StatusQueued,
			Spec: []byte(fmt.Sprintf(spec, gp)), Checkpoint: checkpointName(id),
		}
		if err := m.Put(rec); err != nil {
			t.Fatal(err)
		}
	}

	s, err := New(Config{StateDir: dir, Resolve: miniResolve, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	var units atomic.Int32
	s.wrapUnit = func(_ eval.Unit, ev core.Evaluator) core.Evaluator {
		units.Add(1)
		return ev
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Shutdown)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	waitStatus(t, ts, ids["exact"], StatusDone)
	var v JobView
	if code := getJSON(t, ts, "/jobs/"+ids["sparse:64"], &v); code != http.StatusOK {
		t.Fatalf("job view returned %d", code)
	}
	if v.Status != StatusFailed || !strings.HasPrefix(v.Error, "requeue: gp:") {
		t.Errorf("stored sparse job: status %q, error %q; want failed with a \"requeue: gp:\" error", v.Status, v.Error)
	}
	if v.GP != "sparse:64" || v.UnitsDone != 0 {
		t.Errorf("stored sparse job view: gp %q, %d units done; want the stored \"sparse:64\" and none", v.GP, v.UnitsDone)
	}
	if strings.Join(v.Spaces, ",") != "Area-Delay" || strings.Join(v.Methods, ",") != "DAC'19" ||
		len(v.Seeds) != 1 || v.Seeds[0] != 1 || v.UnitsTotal != 1 {
		t.Errorf("stored sparse job view: spaces %v, methods %v, seeds %v, %d units total; want its stored axes and 1 unit",
			v.Spaces, v.Methods, v.Seeds, v.UnitsTotal)
	}
	var f FrontDoc
	if code := getJSON(t, ts, "/jobs/"+ids["sparse:64"]+"/front", &f); code != http.StatusOK {
		t.Fatalf("job front returned %d", code)
	}
	if f.Scenario != eval.ScenarioOneName || len(f.Spaces) != 1 || f.Spaces[0].Space != "Area-Delay" {
		t.Errorf("stored sparse job front: scenario %q, spaces %+v; want %q with Area-Delay", f.Scenario, f.Spaces, eval.ScenarioOneName)
	}
	if n := units.Load(); n != 1 {
		t.Errorf("%d units ran, want only the exact job's one", n)
	}
}

// A seed count no server could allocate is a bad request like any other: the
// handler answers 400 rather than panicking, and the manifest gains no job.
func TestSubmitRejectsHugeSeedCount(t *testing.T) {
	s := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := ts.Client().Post(ts.URL+"/jobs", "application/json",
		strings.NewReader(`{"scenario":"table2","seeds":"4611686018427387904"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	if jobs := s.manifest.Jobs(); len(jobs) != 0 {
		t.Fatalf("the manifest gained %d job(s) from a rejected submission", len(jobs))
	}
}

func TestJobLifecycle(t *testing.T) {
	s := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	sub, resp := postJob(t, ts, JobRequest{
		Client: "alice", Scenario: "table2",
		Spaces:  []string{"Area-Delay"},
		Methods: []string{"TCAD'19", "PPATuner"},
		Seeds:   "1",
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	if sub.ID != "j1" || sub.Status != StatusQueued {
		t.Fatalf("submit response %+v", sub)
	}
	waitStatus(t, ts, sub.ID, StatusDone)

	var v JobView
	getJSON(t, ts, "/jobs/"+sub.ID, &v)
	if v.UnitsDone != 2 || v.UnitsTotal != 2 || v.Client != "alice" {
		t.Fatalf("final view %+v", v)
	}
	if v.Scenario != eval.ScenarioOneName {
		t.Fatalf("scenario alias not canonicalised: %q", v.Scenario)
	}

	var list JobListDoc
	getJSON(t, ts, "/jobs?client=alice", &list)
	if len(list.Jobs) != 1 || list.Jobs[0].ID != "j1" {
		t.Fatalf("list %+v", list)
	}
	getJSON(t, ts, "/jobs?client=nobody", &list)
	if len(list.Jobs) != 0 {
		t.Fatalf("filtered list %+v", list)
	}

	var front FrontDoc
	getJSON(t, ts, "/jobs/"+sub.ID+"/front", &front)
	if front.Status != StatusDone || len(front.Spaces) != 1 {
		t.Fatalf("front %+v", front)
	}
	sf := front.Spaces[0]
	if len(sf.Golden) == 0 {
		t.Fatal("front has no golden series")
	}
	if len(sf.Methods) != 2 {
		t.Fatalf("front has %d methods, want 2", len(sf.Methods))
	}
	for _, mf := range sf.Methods {
		if len(mf.Seeds) != 1 || mf.Seeds[0].Runs == 0 || len(mf.Seeds[0].Front) == 0 {
			t.Fatalf("method %s fronts incomplete: %+v", mf.Method, mf.Seeds)
		}
	}

	// The event log must hold the full history: queued, running, one unit
	// event per unit, done.
	var page EventPage
	getJSON(t, ts, "/jobs/"+sub.ID+"/events?poll=1&since=0", &page)
	var units, statuses int
	for _, e := range page.Events {
		switch e.Type {
		case "unit":
			units++
			if e.Unit == nil || e.Unit.Runs == 0 {
				t.Errorf("unit event without payload: %+v", e)
			}
		case "status":
			statuses++
		}
	}
	if units != 2 || statuses < 3 {
		t.Fatalf("event history: %d unit, %d status events", units, statuses)
	}
}

// TestManifestCompactsAtTerminalStatuses pins the job manifest's notion of
// a finished job to TerminalStatus: a move into a terminal status compacts
// the manifest, leaving no journal, and a move into any other appends.
func TestManifestCompactsAtTerminalStatuses(t *testing.T) {
	path := robust.JobManifestPath(t.TempDir())
	m := robust.NewJobManifest(path)
	id, err := m.NextID()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Put(robust.JobRecord{ID: id, Status: StatusQueued, Spec: []byte(`{}`)}); err != nil {
		t.Fatal(err)
	}
	for _, status := range []string{
		StatusRunning, StatusParked, StatusDone, StatusQueued, StatusFailed, StatusRunning, StatusCancelled,
	} {
		if err := m.SetStatus(id, status, ""); err != nil {
			t.Fatal(err)
		}
		_, err := os.Stat(robust.JournalPath(path))
		if journaled := err == nil; journaled == TerminalStatus(status) {
			t.Errorf("after a move to %s the manifest journal exists = %v", status, journaled)
		}
	}
}

func TestCancelRunningJob(t *testing.T) {
	release := make(chan struct{})
	var once sync.Once
	s := newTestServer(t, nil)
	s.wrapUnit = func(u eval.Unit, ev core.Evaluator) core.Evaluator {
		return func(i int) ([]float64, error) {
			once.Do(func() { close(release) })
			return ev(i)
		}
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	sub, _ := postJob(t, ts, JobRequest{
		Scenario: "table2", Spaces: []string{"Area-Delay"},
		Methods: []string{"PPATuner"}, Seeds: "1,2,3",
	})
	<-release // the campaign is mid-unit now
	resp, err := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+sub.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	r, err := ts.Client().Do(resp)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("cancel: %d", r.StatusCode)
	}
	waitStatus(t, ts, sub.ID, StatusCancelled)

	// A cancelled job must never be requeued by a later boot.
	s.Shutdown()
	s2, err := New(Config{StateDir: s.cfg.StateDir, Resolve: miniResolve})
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Start(); err != nil {
		t.Fatal(err)
	}
	defer s2.Shutdown()
	v, ok := s2.View(sub.ID)
	if !ok || v.Status != StatusCancelled {
		t.Fatalf("after restart: %+v", v)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	// MaxActive 1: the second submission stays queued while the first is
	// held mid-unit, so the cancel hits a genuinely queued job.
	gate := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s := newTestServer(t, nil)
	s.wrapUnit = func(u eval.Unit, ev core.Evaluator) core.Evaluator {
		return func(i int) ([]float64, error) {
			once.Do(func() {
				close(gate)
				<-release
			})
			return ev(i)
		}
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	first, _ := postJob(t, ts, JobRequest{Scenario: "table2", Spaces: []string{"Area-Delay"}, Methods: []string{"TCAD'19"}})
	second, _ := postJob(t, ts, JobRequest{Scenario: "table2", Spaces: []string{"Area-Delay"}, Methods: []string{"TCAD'19"}})
	<-gate
	if _, err := s.Cancel(second.ID); err != nil {
		t.Fatal(err)
	}
	close(release)
	v, _ := s.View(second.ID)
	if v.Status != StatusCancelled {
		t.Fatalf("queued job after cancel: %s", v.Status)
	}
	waitStatus(t, ts, first.ID, StatusDone)
}

func TestRateLimit(t *testing.T) {
	fake := clock.NewFake(time.Unix(1000, 0))
	s := newTestServer(t, func(c *Config) {
		c.Clock = fake
		c.Rate = 1
		c.Burst = 2
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := JobRequest{Scenario: "table2", Spaces: []string{"Area-Delay"}, Methods: []string{"TCAD'19"}}
	for i := 0; i < 2; i++ {
		if _, resp := postJob(t, ts, req); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("burst submit %d: %d", i, resp.StatusCode)
		}
	}
	if _, resp := postJob(t, ts, req); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-burst submit: %d, want 429", resp.StatusCode)
	}
	// Another tenant has its own bucket.
	other := req
	other.Client = "bob"
	if _, resp := postJob(t, ts, other); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("other client blocked: %d", resp.StatusCode)
	}
	// One virtual second refills one token — no real sleeping.
	fake.Advance(time.Second)
	if _, resp := postJob(t, ts, req); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("post-refill submit: %d", resp.StatusCode)
	}
}

func TestRoundRobinFairness(t *testing.T) {
	// alice floods the queue before bob submits his one job. With a single
	// campaign slot, strict FIFO would run bob last; round-robin must grant
	// him the slot after at most one more alice job. Each job carries a
	// unique seed so the start order is observable from the unit evaluator.
	var mu sync.Mutex
	var order []int64
	seen := map[int64]bool{}
	ready := make(chan struct{}, 16)
	releaseFirst := make(chan struct{})
	s := newTestServer(t, nil)
	s.wrapUnit = func(u eval.Unit, ev core.Evaluator) core.Evaluator {
		return func(i int) ([]float64, error) {
			mu.Lock()
			first := !seen[u.Seed]
			if first {
				seen[u.Seed] = true
				order = append(order, u.Seed)
			}
			mu.Unlock()
			if first {
				select {
				case ready <- struct{}{}:
				default:
				}
				if u.Seed == 11 {
					// Hold alice's first job mid-unit until the whole
					// backlog is queued, so the scheduler sees all four.
					<-releaseFirst
				}
			}
			return ev(i)
		}
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	mini := func(client, seed string) JobRequest {
		// Trailing comma: ParseSeeds list form, a single explicit seed.
		return JobRequest{Client: client, Scenario: "table2", Spaces: []string{"Area-Delay"}, Methods: []string{"TCAD'19"}, Seeds: seed + ","}
	}
	a1, _ := postJob(t, ts, mini("alice", "11"))
	<-ready // alice's first job is mid-unit and holds the only slot
	a2, _ := postJob(t, ts, mini("alice", "12"))
	a3, _ := postJob(t, ts, mini("alice", "13"))
	b1, _ := postJob(t, ts, mini("bob", "14"))
	close(releaseFirst)

	for _, id := range []string{a1.ID, a2.ID, a3.ID, b1.ID} {
		waitStatus(t, ts, id, StatusDone)
	}
	mu.Lock()
	got := append([]int64(nil), order...)
	mu.Unlock()
	// Pop order: alice(11) ran first; then the cursor alternates alice(12),
	// bob(14), alice(13) — bob is served before alice's backlog drains.
	want := []int64{11, 12, 14, 13}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("start order %v, want %v", got, want)
	}
}

// A job that finished in a previous process has no live event log on the
// next boot; /events must synthesize its terminal status and then close the
// stream (and return caught-up long-polls immediately) instead of waiting
// on a log that can never change.
func TestEventsForJobFromPreviousBoot(t *testing.T) {
	dir := t.TempDir()
	s1 := newTestServer(t, func(c *Config) { c.StateDir = dir })
	ts1 := httptest.NewServer(s1.Handler())
	sub, _ := postJob(t, ts1, JobRequest{
		Scenario: "table2", Spaces: []string{"Area-Delay"},
		Methods: []string{"PPATuner"}, Seeds: "1",
	})
	waitStatus(t, ts1, sub.ID, StatusDone)
	ts1.Close()
	s1.Shutdown()

	s2 := newTestServer(t, func(c *Config) { c.StateDir = dir })
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()

	// The watchdog context only fires on regression; a correct stream hits
	// EOF as soon as the synthesized terminal event is replayed.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts2.URL+"/jobs/"+sub.ID+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts2.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("SSE stream for a terminal job did not close: %v", err)
	}
	if !strings.Contains(string(body), `"status":"done"`) {
		t.Fatalf("stream missing terminal status event:\n%s", body)
	}

	// A long-poll that is already caught up must return an empty page.
	var page EventPage
	if code := getJSON(t, ts2, "/jobs/"+sub.ID+"/events?poll=1&since=1", &page); code != http.StatusOK {
		t.Fatalf("poll returned %d", code)
	}
	if len(page.Events) != 0 || page.Next != 1 {
		t.Fatalf("caught-up poll page %+v, want empty at cursor 1", page)
	}
}
