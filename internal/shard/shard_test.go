package shard_test

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ppatuner/internal/benchdata"
	"ppatuner/internal/clock"
	"ppatuner/internal/eval"
	"ppatuner/internal/param"
	"ppatuner/internal/pdtool"
	"ppatuner/internal/pdtool/chaos"
	"ppatuner/internal/robust"
	"ppatuner/internal/shard"
	"ppatuner/internal/shard/transport"
)

var (
	miniOnce sync.Once
	miniScn  *eval.Scenario
	miniErr  error
)

// miniScenario mirrors the eval package's test scenario: same designs, few
// points, so distributed campaigns run in seconds.
func miniScenario(t *testing.T) *eval.Scenario {
	t.Helper()
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
			Budgets: map[eval.Method]int{eval.TCAD19: 40, eval.MLCAD19: 30, eval.DAC19: 45, eval.ASPDAC20: 30, eval.PPATuner: 35},
		}
	})
	if miniErr != nil {
		t.Fatal(miniErr)
	}
	return miniScn
}

func resolveMini(t *testing.T) func(string) (*eval.Scenario, error) {
	return func(name string) (*eval.Scenario, error) {
		if name != "Mini" {
			return nil, fmt.Errorf("unknown scenario %q", name)
		}
		return miniScenario(t), nil
	}
}

// miniCampaign builds the campaign under test; ckPath == "" keeps the
// checkpoint in memory.
func miniCampaign(t *testing.T, ckPath string) *eval.Campaign {
	t.Helper()
	c := &eval.Campaign{
		Scenario: miniScenario(t),
		Seeds:    []int64{1, 2},
		Spaces:   eval.Spaces()[:1],
		Methods:  []eval.Method{eval.DAC19, eval.PPATuner},
	}
	if ckPath != "" {
		ck, err := robust.LoadCampaignCheckpoint(ckPath)
		if err != nil {
			t.Fatal(err)
		}
		c.Checkpoint = ck
	}
	return c
}

// referenceRun executes the campaign single-process with a checkpoint file
// and returns the formatted table plus the final checkpoint bytes.
func referenceRun(t *testing.T) (string, []byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ref.json")
	c := miniCampaign(t, path)
	table, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return table.Format(), data
}

// startWorkers launches n in-process workers on loopback conns, optionally
// wrapping each coordinator-side conn.
func startWorkers(t *testing.T, ctx context.Context, conns chan<- shard.Conn, n int, wrap func(i int, c shard.Conn) shard.Conn) {
	t.Helper()
	for i := 0; i < n; i++ {
		coordSide, workerSide := transport.Loopback()
		if wrap != nil {
			coordSide = wrap(i, coordSide)
		}
		conns <- coordSide
		go func(id int, c shard.Conn) {
			_ = shard.RunWorker(ctx, c, shard.WorkerOptions{
				ID:       fmt.Sprintf("w%d", id),
				Scenario: resolveMini(t),
			})
		}(i, workerSide)
	}
}

// TestDistributedFaultFreeIdentity is the base proof: a coordinator with
// three workers produces a table and a final checkpoint file byte-identical
// to the single-process run.
func TestDistributedFaultFreeIdentity(t *testing.T) {
	wantTable, wantCk := referenceRun(t)

	path := filepath.Join(t.TempDir(), "dist.json")
	c := miniCampaign(t, path)
	var log robust.FailureLog
	co, err := shard.New(shard.Options{Campaign: c, LeaseTTL: 30 * time.Second, Log: &log})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	conns := make(chan shard.Conn, 3)
	startWorkers(t, ctx, conns, 3, nil)
	table, err := co.Run(ctx, conns)
	if err != nil {
		t.Fatal(err)
	}
	if got := table.Format(); got != wantTable {
		t.Fatalf("distributed table differs from single-process:\n%s\n--- want ---\n%s", got, wantTable)
	}
	gotCk, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(gotCk) != string(wantCk) {
		t.Fatalf("distributed checkpoint differs from single-process:\n%s\n--- want ---\n%s", gotCk, wantCk)
	}
	st := co.Stats()
	if st.Granted < 4 {
		t.Fatalf("stats = %+v, want at least one grant per unit", st)
	}
	if log.LeaseEvents() == 0 {
		t.Fatal("no lease events recorded in the failure log")
	}
}

// killConn severs the connection after a fixed number of worker sends —
// a deterministic stand-in for SIGKILL mid-unit. A non-nil leased is
// closed at the first observation sent, when the worker holds a lease.
type killConn struct {
	shard.Conn
	mu        sync.Mutex
	remaining int
	leased    chan struct{}
}

func (k *killConn) Send(m shard.Msg) error {
	k.mu.Lock()
	k.remaining--
	dead := k.remaining < 0
	if m.Type == shard.MsgObs && k.leased != nil {
		close(k.leased)
		k.leased = nil
	}
	k.mu.Unlock()
	if dead {
		k.Conn.Close()
		return io.ErrClosedPipe
	}
	return k.Conn.Send(m)
}

// TestDistributedWorkerDeathIdentity kills one worker mid-unit (after it
// has streamed observations) and proves the output is still byte-identical:
// the reclaimed unit's replay prefix carries the dead worker's paid-for
// observations into the re-grant.
func TestDistributedWorkerDeathIdentity(t *testing.T) {
	wantTable, wantCk := referenceRun(t)

	path := filepath.Join(t.TempDir(), "dist.json")
	c := miniCampaign(t, path)
	co, err := shard.New(shard.Options{Campaign: c, LeaseTTL: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	conns := make(chan shard.Conn, 3)
	// The doomed worker dies after hello + 4 observations: mid-unit, with
	// progress already streamed. Its kill counter wraps the worker side, so
	// the severed connection looks like a SIGKILL to the coordinator. It
	// connects alone, and the two workers that finish the campaign connect
	// once it holds a lease: connected together, they could drain the four
	// units before the doomed worker's hello is served.
	coordSide, workerSide := transport.Loopback()
	conns <- coordSide
	doomed := &killConn{Conn: workerSide, remaining: 5, leased: make(chan struct{})}
	leased := doomed.leased
	go func() {
		_ = shard.RunWorker(ctx, doomed, shard.WorkerOptions{
			ID:       "doomed",
			Scenario: resolveMini(t),
		})
	}()
	go func() {
		select {
		case <-leased:
			startWorkers(t, ctx, conns, 2, nil)
		case <-ctx.Done():
		}
	}()
	table, err := co.Run(ctx, conns)
	if err != nil {
		t.Fatal(err)
	}
	if got := table.Format(); got != wantTable {
		t.Fatalf("table after worker death differs:\n%s\n--- want ---\n%s", got, wantTable)
	}
	gotCk, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(gotCk) != string(wantCk) {
		t.Fatalf("checkpoint after worker death differs:\n%s\n--- want ---\n%s", gotCk, wantCk)
	}
	if st := co.Stats(); st.WorkersLost == 0 {
		t.Fatalf("stats = %+v, want a lost worker", st)
	}
}

// TestDistributedDuplicatedDelayedResultsIdentity delivers every result
// late and twice; merge idempotence keeps the output byte-identical.
func TestDistributedDuplicatedDelayedResultsIdentity(t *testing.T) {
	wantTable, wantCk := referenceRun(t)

	path := filepath.Join(t.TempDir(), "dist.json")
	c := miniCampaign(t, path)
	faults := chaos.ProcFaults{ResultDelay: 2 * time.Millisecond, DuplicateResults: true}
	co, err := shard.New(shard.Options{Campaign: c, LeaseTTL: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	conns := make(chan shard.Conn, 2)
	startWorkers(t, ctx, conns, 2, func(i int, cs shard.Conn) shard.Conn {
		return transport.Fault(cs, faults, clock.Real())
	})
	table, err := co.Run(ctx, conns)
	if err != nil {
		t.Fatal(err)
	}
	if got := table.Format(); got != wantTable {
		t.Fatalf("table under duplicated delivery differs:\n%s\n--- want ---\n%s", got, wantTable)
	}
	gotCk, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(gotCk) != string(wantCk) {
		t.Fatalf("checkpoint under duplicated delivery differs")
	}
	if st := co.Stats(); st.Duplicates == 0 {
		t.Fatalf("stats = %+v, want duplicate results observed", st)
	}
}

// TestZombieResultRejected scripts the renew/reclaim race end to end on a
// virtual clock: worker A goes silent, its lease expires, the unit is
// re-granted to B, and A's late result under the stale epoch is rejected
// while B's is merged. The output still matches the single-process run.
func TestZombieResultRejected(t *testing.T) {
	s := miniScenario(t)
	ref := &eval.Campaign{Scenario: s, Seeds: []int64{1}, Spaces: eval.Spaces()[:1], Methods: []eval.Method{eval.DAC19}}
	wantTable, err := ref.Run()
	if err != nil {
		t.Fatal(err)
	}

	fc := clock.NewFake(time.Unix(0, 0))
	var log robust.FailureLog
	c := &eval.Campaign{Scenario: s, Seeds: []int64{1}, Spaces: eval.Spaces()[:1], Methods: []eval.Method{eval.DAC19}}
	co, err := shard.New(shard.Options{Campaign: c, LeaseTTL: 5 * time.Second, Clock: fc, Log: &log})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	conns := make(chan shard.Conn, 2)

	aCoord, a := transport.Loopback()
	bCoord, b := transport.Loopback()
	conns <- aCoord

	var table *eval.Table
	var runErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		table, runErr = co.Run(ctx, conns)
	}()

	// A introduces itself and receives the grant, then goes silent (no
	// heartbeats): on the fake clock the lease expires immediately.
	mustSend(t, a, shard.Msg{Type: shard.MsgHello, Worker: "a"})
	grantA := mustRecv(t, a, shard.MsgGrant)

	// B arrives; the expired unit is re-granted to it under the next epoch.
	conns <- bCoord
	mustSend(t, b, shard.Msg{Type: shard.MsgHello, Worker: "b"})
	grantB := mustRecv(t, b, shard.MsgGrant)
	if grantB.Epoch <= grantA.Epoch {
		t.Fatalf("re-grant epoch %d not above original %d", grantB.Epoch, grantA.Epoch)
	}

	// A wakes up and delivers a (correct!) result under its stale epoch —
	// the zombie. It must be rejected. B stays silent, so its lease expires
	// too; rejecting the zombie idles A, and the unit comes back to A under
	// a third epoch.
	res, end, err := eval.ExecuteUnit(s, eval.Spaces()[0], *grantA.Unit, grantA.RandState, grantA.Replay, eval.RunOpts{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	mustSend(t, a, shard.Msg{Type: shard.MsgResult, Key: grantA.Key, Epoch: grantA.Epoch, Result: &res, RandEnd: end})

	grantA2 := mustRecv(t, a, shard.MsgGrant)
	if grantA2.Epoch <= grantB.Epoch {
		t.Fatalf("third grant epoch %d not above %d", grantA2.Epoch, grantB.Epoch)
	}
	// Under the current epoch the same result is merged.
	mustSend(t, a, shard.Msg{Type: shard.MsgResult, Key: grantA2.Key, Epoch: grantA2.Epoch, Result: &res, RandEnd: end})

	<-done
	if runErr != nil {
		t.Fatal(runErr)
	}
	if got := table.Format(); got != wantTable.Format() {
		t.Fatalf("table after zombie rejection differs:\n%s\n--- want ---\n%s", got, wantTable.Format())
	}
	st := co.Stats()
	if st.ZombieResults != 1 {
		t.Fatalf("stats = %+v, want exactly one zombie result", st)
	}
	if st.Expired == 0 {
		t.Fatalf("stats = %+v, want an expired lease", st)
	}
	if log.LeaseEvents() == 0 {
		t.Fatal("zombie rejection left no lease events")
	}
}

// failWatch counts the fail reports arriving on a coordinator-side conn.
type failWatch struct {
	shard.Conn
	fails *atomic.Int64
}

func (f failWatch) Recv() (shard.Msg, error) {
	m, err := f.Conn.Recv()
	if err == nil && m.Type == shard.MsgFail {
		f.fails.Add(1)
	}
	return m, err
}

// TestDistributedWorkerOutageIdentity runs two workers through a licence
// outage. Each worker's fault stack is the one ppaworker builds from
// "-outage 10s/2s -breaker 1 -max-outage 1m", on its own fake clock whose
// first window covers the worker's first evaluations: the breaker trips
// and pauses the unit until the window ends, the worker keeps the unit, no
// unit fails, and the table and retired checkpoint are byte-identical to
// the single-process run's.
func TestDistributedWorkerOutageIdentity(t *testing.T) {
	wantTable, wantCk := referenceRun(t)

	path := filepath.Join(t.TempDir(), "dist.json")
	co, err := shard.New(shard.Options{Campaign: miniCampaign(t, path), LeaseTTL: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var fails atomic.Int64
	conns := make(chan shard.Conn, 2)
	var stacks []eval.FaultStack
	for i := 0; i < 2; i++ {
		st, err := eval.FaultConfig{Outage: "10s/2s", Breaker: 1, MaxOutage: time.Minute}.Build(ctx, 1, clock.NewFake(time.Unix(0, 0)))
		if err != nil {
			t.Fatal(err)
		}
		stacks = append(stacks, st)
		coordSide, workerSide := transport.Loopback()
		conns <- failWatch{Conn: coordSide, fails: &fails}
		opts := shard.WorkerOptions{ID: fmt.Sprintf("w%d", i), Scenario: resolveMini(t), Run: eval.RunOpts{Wrap: st.Wrap}}
		go func() { _ = shard.RunWorker(ctx, workerSide, opts) }()
	}
	table, err := co.Run(ctx, conns)
	if err != nil {
		t.Fatal(err)
	}
	if got := table.Format(); got != wantTable {
		t.Fatalf("table through worker outages differs:\n%s\n--- want ---\n%s", got, wantTable)
	}
	gotCk, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(gotCk) != string(wantCk) {
		t.Fatalf("checkpoint through worker outages differs:\n%s\n--- want ---\n%s", gotCk, wantCk)
	}
	if n := fails.Load(); n != 0 {
		t.Fatalf("the coordinator received %d fail reports, want none", n)
	}
	injected := 0
	for i, st := range stacks {
		var n int
		if _, err := fmt.Sscanf(strings.TrimPrefix(st.Summary(), "schedule 10s/2s, "), "%d outage failures injected", &n); err != nil {
			t.Fatalf("w%d outage summary %q: %v", i, st.Summary(), err)
		}
		injected += n
		t.Logf("w%d outage: %s", i, st.Summary())
	}
	if injected == 0 {
		t.Fatal("no worker's evaluation met an injected outage")
	}
}

// TestHardFailureAborts: a unit failure aborts the campaign with a labelled
// error.
func TestHardFailureAborts(t *testing.T) {
	s := miniScenario(t)
	c := &eval.Campaign{Scenario: s, Seeds: []int64{1}, Spaces: eval.Spaces()[:1], Methods: []eval.Method{eval.DAC19}}
	co, err := shard.New(shard.Options{Campaign: c, LeaseTTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	conns := make(chan shard.Conn, 1)
	aCoord, a := transport.Loopback()
	conns <- aCoord
	done := make(chan error, 1)
	go func() {
		_, err := co.Run(ctx, conns)
		done <- err
	}()
	mustSend(t, a, shard.Msg{Type: shard.MsgHello, Worker: "a"})
	g := mustRecv(t, a, shard.MsgGrant)
	mustSend(t, a, shard.Msg{Type: shard.MsgFail, Key: g.Key, Epoch: g.Epoch, Error: "tool exploded"})
	if err := <-done; err == nil {
		t.Fatal("hard failure should abort the campaign")
	}
}

func mustSend(t *testing.T, c shard.Conn, m shard.Msg) {
	t.Helper()
	if err := c.Send(m); err != nil {
		t.Fatal(err)
	}
}

// mustRecv reads messages until one of the wanted type arrives (shutdown
// and unexpected types fail the test).
func mustRecv(t *testing.T, c shard.Conn, want shard.MsgType) shard.Msg {
	t.Helper()
	for {
		m, err := c.Recv()
		if err != nil {
			t.Fatalf("recv waiting for %s: %v", want, err)
		}
		if m.Type == want {
			return m
		}
		if m.Type == shard.MsgShutdown {
			t.Fatalf("got shutdown while waiting for %s", want)
		}
	}
}

// CheckWorkerFlags refuses what ppaworker's flag set or its fault
// configuration refuses, and accepts what ppaworker runs with.
func TestCheckWorkerFlags(t *testing.T) {
	for _, tc := range []struct {
		args string
		ok   bool
	}{
		{"", true},
		{"-outage 60s/10s -breaker 2", true},
		{"-heartbeat 1s -max-outage 2m -rejoin", true},
		{"-outage garbage", false},
		{"-outage 60s/10s", false}, // an outage needs a breaker
		{"-breaker -1", false},
		{"-max-outage 0", false},
		{"-heartbeat soon", false},
		{"-chaos-seed 3", false}, // not a ppaworker flag
	} {
		err := shard.CheckWorkerFlags(strings.Fields(tc.args))
		if tc.ok != (err == nil) {
			t.Errorf("CheckWorkerFlags(%q) = %v, want ok=%v", tc.args, err, tc.ok)
		}
	}
}
