package serve

import (
	"context"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"ppatuner/internal/clock"
)

// TestOutageJobMatchesFaultFreeJob: a job with an outage and a breaker
// runs through the shared campaign fault stack on the server's clock. Its
// first evaluation falls in the window at the clock's origin, so it pauses
// on the breaker until the outage is over (the fake clock moves), and the
// job's fronts equal the fault-free job's.
func TestOutageJobMatchesFaultFreeJob(t *testing.T) {
	fc := clock.NewFake(time.Unix(0, 0))
	s := newTestServer(t, func(c *Config) { c.Clock = fc })
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spaces := func(id string) []SpaceFront {
		waitStatus(t, ts, id, StatusDone)
		var front FrontDoc
		getJSON(t, ts, "/jobs/"+id+"/front", &front)
		return front.Spaces
	}
	req := JobRequest{Scenario: "table2", Spaces: []string{"Power-Delay"}, Methods: []string{"MLCAD'19", "PPATuner"}, Seeds: "1"}
	clean, _ := postJob(t, ts, req)
	want := spaces(clean.ID)
	if !fc.Now().Equal(time.Unix(0, 0)) {
		t.Fatalf("the fault-free job moved the clock to %v", fc.Now())
	}
	req.Outage, req.Breaker = "10s/2s", 1
	outage, _ := postJob(t, ts, req)
	got := spaces(outage.ID)
	if !fc.Now().After(time.Unix(0, 0)) {
		t.Fatal("the outage job never waited on the clock")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("outage job fronts differ from the fault-free job's:\n%+v\n%+v", got, want)
	}
}

// stuckClock stands at the origin, inside the first window of any outage
// schedule, and its Sleep returns only when the sleeper's context is
// cancelled: an outage that outlasts the test. Each Sleep announces itself
// on paused.
type stuckClock struct{ paused chan struct{} }

func (stuckClock) Now() time.Time { return time.Unix(0, 0) }

func (c stuckClock) Sleep(ctx context.Context, _ time.Duration) error {
	select {
	case c.paused <- struct{}{}:
	default:
	}
	<-ctx.Done()
	return ctx.Err()
}

// TestOutagePauseEndsWithJob: two jobs whose first evaluations land in an
// outage pause on their breakers, on their job contexts. Cancel ends the
// first job cancelled, and Shutdown returns and parks the second, however
// long the outage would last.
func TestOutagePauseEndsWithJob(t *testing.T) {
	clk := stuckClock{paused: make(chan struct{}, 2)} // room for one pause per job
	s := newTestServer(t, func(c *Config) { c.Clock = clk; c.MaxActive = 2 })
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := JobRequest{Scenario: "table2", Spaces: []string{"Power-Delay"}, Methods: []string{"MLCAD'19"}, Seeds: "1", Outage: "10s/2s", Breaker: 1}
	a, _ := postJob(t, ts, req)
	b, _ := postJob(t, ts, req)
	for range 2 {
		select {
		case <-clk.paused:
		case <-time.After(time.Minute):
			t.Fatal("the jobs never paused on their breakers")
		}
	}
	if _, err := s.Cancel(a.ID); err != nil {
		t.Fatal(err)
	}
	waitStatus(t, ts, a.ID, StatusCancelled)

	done := make(chan struct{})
	go func() {
		s.Shutdown()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown still waiting on a job paused in an outage")
	}
	if v, _ := s.View(b.ID); v.Status != StatusParked {
		t.Fatalf("job %s after Shutdown is %s, want %s", b.ID, v.Status, StatusParked)
	}
}
