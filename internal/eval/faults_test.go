package eval_test

import (
	"context"
	"flag"
	"io"
	"strings"
	"testing"
	"time"

	"ppatuner/internal/clock"
	"ppatuner/internal/eval"
	"ppatuner/internal/robust"
	"ppatuner/internal/serve"
)

// faultFlags parses args into a FaultConfig through the shared flags.
func faultFlags(t *testing.T, args ...string) eval.FaultConfig {
	t.Helper()
	var c eval.FaultConfig
	fs := flag.NewFlagSet("faults", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	c.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %q: %v", args, err)
	}
	return c
}

func TestFaultFlagsDefaultsAndParse(t *testing.T) {
	if c := faultFlags(t); c != (eval.FaultConfig{MaxOutage: eval.DefaultMaxOutage}) || eval.DefaultMaxOutage != 5*time.Minute {
		t.Errorf("defaults = %+v, want no outage, no breaker and a 5m max-outage", c)
	}
	c := faultFlags(t, "-outage", "2s/1s", "-breaker", "1", "-max-outage", "2m")
	if want := (eval.FaultConfig{Outage: "2s/1s", Breaker: 1, MaxOutage: 2 * time.Minute}); c != want {
		t.Errorf("parsed %+v, want %+v", c, want)
	}
	if err := c.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

// TestFaultValidationFlagsMatchJobs: a configuration from the shared flags
// and the same faults in a ppaserved job get the same answer. ppaserved
// jobs have no max-outage field and run under DefaultMaxOutage.
func TestFaultValidationFlagsMatchJobs(t *testing.T) {
	srv, err := serve.New(serve.Config{StateDir: t.TempDir()}) // never started: submits only queue
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	cases := []struct {
		name string
		args []string
		job  *serve.JobRequest
		want string // "" accepts
	}{
		{"outage without breaker", []string{"-outage", "1s/500ms"}, &serve.JobRequest{Outage: "1s/500ms"},
			"outage requires a breaker: downtime without one burns retry budgets instead of pausing evaluations"},
		{"negative breaker", []string{"-breaker", "-1"}, &serve.JobRequest{Breaker: -1}, "breaker must be >= 0"},
		{"zero max-outage", []string{"-breaker", "1", "-max-outage", "0"}, nil, "max-outage must be > 0"},
		{"negative max-outage", []string{"-max-outage", "-1s"}, nil, "max-outage must be > 0"},
		{"malformed outage", []string{"-outage", "garbage", "-breaker", "1"}, &serve.JobRequest{Outage: "garbage", Breaker: 1},
			`outage: chaos: outage spec "garbage" wants PERIOD/DOWN (e.g. 60s/10s)`},
		{"empty outage", []string{"-outage", ""}, &serve.JobRequest{Outage: ""}, ""},
		{"outage off", []string{"-outage", "off"}, &serve.JobRequest{Outage: "off"}, ""},
		{"outage with breaker", []string{"-outage", "1s/500ms", "-breaker", "1"}, &serve.JobRequest{Outage: "1s/500ms", Breaker: 1}, ""},
	}
	errText := func(err error) string {
		if err == nil {
			return ""
		}
		return err.Error()
	}
	for _, tc := range cases {
		c := faultFlags(t, tc.args...)
		if got := errText(c.Validate()); got != tc.want {
			t.Errorf("%s: flags give %q, want %q", tc.name, got, tc.want)
		}
		if _, err := c.Build(context.Background(), 1, clock.NewFake(time.Unix(0, 0))); errText(err) != tc.want {
			t.Errorf("%s: Build gives %q, want %q", tc.name, errText(err), tc.want)
		}
		if tc.job == nil {
			continue
		}
		req := *tc.job
		req.Scenario, req.Seeds, req.Methods, req.Spaces = "table3", "1", []string{"DAC'19"}, []string{"Area-Delay"}
		_, err := srv.Submit(req)
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: job refused: %v", tc.name, err)
			}
		} else if err == nil || !strings.HasSuffix(err.Error(), ": "+tc.want) {
			t.Errorf("%s: job gives %v, want an error ending %q", tc.name, err, tc.want)
		}
	}
}

// TestFaultStackPausesInsideWindow: the stack built from "10s/2s" puts its
// first window at [0s, 2s) of the fake clock. An evaluation inside it
// trips the one-failure breaker and pauses on the clock: the probe at 1s
// still meets the outage, the one after the window passes the value
// through and closes the breaker.
func TestFaultStackPausesInsideWindow(t *testing.T) {
	fc := clock.NewFake(time.Unix(0, 0))
	st, err := eval.FaultConfig{Outage: "10s/2s", Breaker: 1, MaxOutage: time.Minute}.Build(context.Background(), 1, fc)
	if err != nil {
		t.Fatal(err)
	}
	if st.Wrap == nil || st.Breaker == nil {
		t.Fatal("an outage with a breaker built no wrap or no breaker")
	}
	ev := st.Wrap(func(i int) ([]float64, error) { return []float64{float64(i), 1}, nil })
	y, err := ev(3)
	if err != nil || len(y) != 2 || y[0] != 3 || y[1] != 1 {
		t.Fatalf("through the window: %v, %v; want [3 1]", y, err)
	}
	if now := fc.Now(); now.Before(time.Unix(2, 0)) {
		t.Fatalf("the evaluation returned at %v, inside the window", now)
	}
	if st.Breaker.State() != robust.BreakerClosed {
		t.Errorf("breaker %v after the window, want closed", st.Breaker.State())
	}
	if got := st.Summary(); !strings.HasPrefix(got, "schedule 10s/2s, 2 outage failures injected, 1 breaker trip(s), failures: ") {
		t.Errorf("Summary = %q", got)
	}
}

// TestFaultConfigUnsetBuildsNothing: with no outage and no breaker, as the
// flags' defaults and a job without fault fields leave it, the stack is
// empty: campaigns run their fault-free path.
func TestFaultConfigUnsetBuildsNothing(t *testing.T) {
	for _, c := range []eval.FaultConfig{faultFlags(t), {Outage: "off", MaxOutage: eval.DefaultMaxOutage}} {
		st, err := c.Build(context.Background(), 1, nil)
		if err != nil || st.Wrap != nil || st.Breaker != nil {
			t.Errorf("%+v: Build = wrap %v, breaker %v, err %v; want nothing", c, st.Wrap != nil, st.Breaker, err)
		}
	}
}
