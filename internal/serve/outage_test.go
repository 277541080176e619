package serve

import (
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"ppatuner/internal/clock"
)

// TestOutageJobMatchesFaultFreeJob: a job with an outage and a breaker
// runs through the shared campaign fault stack on the server's clock. Its
// first evaluation falls in the window at the clock's origin, so the job
// parks and waits the outage out (the fake clock moves), and its fronts
// equal the fault-free job's.
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
