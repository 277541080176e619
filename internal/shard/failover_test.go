package shard_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ppatuner/internal/clock"
	"ppatuner/internal/eval"
	"ppatuner/internal/pdtool/chaos"
	"ppatuner/internal/robust"
	"ppatuner/internal/shard"
	"ppatuner/internal/shard/transport"
)

// oneUnitCampaign builds a single-unit campaign over the given checkpoint.
func oneUnitCampaign(t *testing.T, ck *robust.CampaignCheckpoint) *eval.Campaign {
	t.Helper()
	return &eval.Campaign{
		Scenario: miniScenario(t), Seeds: []int64{1},
		Spaces: eval.Spaces()[:1], Methods: []eval.Method{eval.DAC19},
		Checkpoint: ck,
	}
}

// oneUnitReference runs the single-unit campaign single-process against a
// checkpoint file and returns the table text and final checkpoint bytes.
func oneUnitReference(t *testing.T) (string, []byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ref.json")
	ck, err := robust.LoadCampaignCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	table, err := oneUnitCampaign(t, ck).Run()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return table.Format(), data
}

// TestSplitBrainWriterDeposed is the protocol-level fencing proof: a
// standby adopts the checkpoint while the primary still holds a granted
// unit; the primary's next merge is rejected by the fence, it stands down
// with ErrDeposed, and the checkpoint bytes are untouched. The standby
// then adopts the lease, re-attaches the surviving worker, and finishes
// the campaign to results identical to a single-process run.
func TestSplitBrainWriterDeposed(t *testing.T) {
	wantTable, wantCk := oneUnitReference(t)

	path := filepath.Join(t.TempDir(), "fo.json")
	ck1, err := robust.LoadCampaignCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	gen1, err := ck1.Adopt()
	if err != nil {
		t.Fatal(err)
	}
	co1, err := shard.New(shard.Options{Campaign: oneUnitCampaign(t, ck1), LeaseTTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	conns1 := make(chan shard.Conn, 1)
	aCoord, a := transport.Loopback()
	conns1 <- aCoord
	primaryDone := make(chan error, 1)
	go func() {
		_, err := co1.Run(ctx, conns1)
		primaryDone <- err
	}()

	mustSend(t, a, shard.Msg{Type: shard.MsgHello, Worker: "a"})
	w := mustRecv(t, a, shard.MsgWelcome)
	if w.Generation != gen1 {
		t.Fatalf("welcome generation = %d, want %d", w.Generation, gen1)
	}
	g := mustRecv(t, a, shard.MsgGrant)

	// The standby adopts mid-unit: from here every write by the old
	// primary must bounce.
	ck2, err := robust.LoadCampaignCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	gen2, err := ck2.Adopt()
	if err != nil {
		t.Fatal(err)
	}
	if gen2 <= gen1 {
		t.Fatalf("standby generation %d not above primary's %d", gen2, gen1)
	}
	fenced, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// The worker (oblivious to the takeover) reports its result to the old
	// primary. The merge's checkpoint write is fenced; the primary stands
	// down instead of applying it.
	res, end, err := eval.ExecuteUnit(miniScenario(t), eval.Spaces()[0], *g.Unit, g.RandState, g.Replay, eval.RunOpts{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	mustSend(t, a, shard.Msg{Type: shard.MsgResult, Key: g.Key, Epoch: g.Epoch, Result: &res, RandEnd: end})
	runErr := <-primaryDone
	if !errors.Is(runErr, shard.ErrDeposed) {
		t.Fatalf("deposed primary returned %v, want ErrDeposed", runErr)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(after) != string(fenced) {
		t.Fatalf("deposed primary's write reached the checkpoint:\n%s\n--- want ---\n%s", after, fenced)
	}

	// The standby adopts the persisted lease and the worker re-attaches
	// with its held (key, epoch): the unit is never double-granted, and
	// the same result now lands under the current epoch.
	co2, err := shard.New(shard.Options{Campaign: oneUnitCampaign(t, ck2), LeaseTTL: time.Minute, AdoptLeases: true})
	if err != nil {
		t.Fatal(err)
	}
	conns2 := make(chan shard.Conn, 1)
	a2Coord, a2 := transport.Loopback()
	conns2 <- a2Coord
	standbyDone := make(chan error, 1)
	var table *eval.Table
	go func() {
		tbl, err := co2.Run(ctx, conns2)
		table = tbl
		standbyDone <- err
	}()
	mustSend(t, a2, shard.Msg{Type: shard.MsgHello, Worker: "a", Key: g.Key, Epoch: g.Epoch})
	if w := mustRecv(t, a2, shard.MsgWelcome); w.Generation != gen2 {
		t.Fatalf("standby welcome generation = %d, want %d", w.Generation, gen2)
	}
	mustSend(t, a2, shard.Msg{Type: shard.MsgResult, Key: g.Key, Epoch: g.Epoch, Result: &res, RandEnd: end})
	if err := <-standbyDone; err != nil {
		t.Fatal(err)
	}
	st := co2.Stats()
	if st.Adopted != 1 {
		t.Fatalf("standby stats = %+v, want 1 adopted lease", st)
	}
	if st.Granted != 0 {
		t.Fatalf("standby stats = %+v, want 0 grants (the unit was re-attached, not re-granted)", st)
	}
	if got := table.Format(); got != wantTable {
		t.Fatalf("post-takeover table differs:\n%s\n--- want ---\n%s", got, wantTable)
	}
	if err := ck2.Retire(); err != nil {
		t.Fatal(err)
	}
	gotCk, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(gotCk) != string(wantCk) {
		t.Fatalf("post-takeover checkpoint differs:\n%s\n--- want ---\n%s", gotCk, wantCk)
	}
}

// TestDelayedResultAfterTakeoverFenced delivers the worker's result to the
// OLD primary late — through transport.Fault's result delay — so it
// arrives after the standby has adopted. The stale delivery must depose
// the primary, not corrupt the campaign.
func TestDelayedResultAfterTakeoverFenced(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fo.json")
	ck1, err := robust.LoadCampaignCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ck1.Adopt(); err != nil {
		t.Fatal(err)
	}
	co1, err := shard.New(shard.Options{Campaign: oneUnitCampaign(t, ck1), LeaseTTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	// The primary's side of the conn delays result delivery by a second of
	// real time — long enough for the standby to adopt first.
	conns1 := make(chan shard.Conn, 1)
	aCoord, a := transport.Loopback()
	conns1 <- transport.Fault(aCoord, chaos.ProcFaults{ResultDelay: time.Second}, clock.Real())
	primaryDone := make(chan error, 1)
	go func() {
		_, err := co1.Run(ctx, conns1)
		primaryDone <- err
	}()

	mustSend(t, a, shard.Msg{Type: shard.MsgHello, Worker: "a"})
	g := mustRecv(t, a, shard.MsgGrant)
	res, end, err := eval.ExecuteUnit(miniScenario(t), eval.Spaces()[0], *g.Unit, g.RandState, g.Replay, eval.RunOpts{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Result enters the (slow) pipe first; adoption races it and wins —
	// the adopt is a couple of local file operations against a one-second
	// delivery delay.
	mustSend(t, a, shard.Msg{Type: shard.MsgResult, Key: g.Key, Epoch: g.Epoch, Result: &res, RandEnd: end})
	ck2, err := robust.LoadCampaignCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ck2.Adopt(); err != nil {
		t.Fatal(err)
	}
	fenced, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	runErr := <-primaryDone
	if !errors.Is(runErr, shard.ErrDeposed) {
		t.Fatalf("primary processing a delayed result after takeover returned %v, want ErrDeposed", runErr)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(after) != string(fenced) {
		t.Fatal("delayed result reached the checkpoint through a deposed primary")
	}
}

// foDialer routes worker dials to the live coordinator's conns channel.
// Until failover it also tracks the coordinator-side conns it minted, so
// the test can sever them all at once — the loopback equivalent of the
// primary being SIGKILLed (every TCP connection it held dies with it).
type foDialer struct {
	mu      sync.Mutex
	target  chan<- shard.Conn
	primary []shard.Conn
	obsSeen atomic.Int32
	enough  chan struct{}
	once    sync.Once
	want    int32
}

// obsWatch counts worker observations flowing coordinator-ward, so the
// test can time the kill for "mid-campaign, with progress streamed".
type obsWatch struct {
	shard.Conn
	d *foDialer
}

func (o *obsWatch) Recv() (shard.Msg, error) {
	m, err := o.Conn.Recv()
	if err == nil && m.Type == shard.MsgObs {
		if o.d.obsSeen.Add(1) >= o.d.want {
			o.d.once.Do(func() { close(o.d.enough) })
		}
	}
	return m, err
}

func (d *foDialer) dial() (shard.Conn, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	coordSide, workerSide := transport.Loopback()
	watched := &obsWatch{Conn: coordSide, d: d}
	if d.primary != nil {
		d.primary = append(d.primary, watched)
	}
	select {
	case d.target <- watched:
		return workerSide, nil
	default:
		return nil, fmt.Errorf("coordinator connection backlog full")
	}
}

// failover atomically redirects future dials to the standby's channel and
// severs every primary-era connection.
func (d *foDialer) failover(standby chan<- shard.Conn) {
	d.mu.Lock()
	old := d.primary
	d.primary = nil
	d.target = standby
	d.mu.Unlock()
	for _, c := range old {
		_ = c.Close()
	}
}

// TestStandbyTakeoverCampaignIdentity is the mini-campaign fail-over
// proof: three reconnecting workers run a campaign under a primary that is
// "SIGKILLed" mid-flight (all its connections severed, no shutdown
// broadcast, its coordinator loop cancelled). The workers redial into a
// standby that adopts the checkpoint and the persisted leases, and the
// final table and checkpoint bytes are identical to an undisturbed
// single-process run.
func TestStandbyTakeoverCampaignIdentity(t *testing.T) {
	wantTable, wantCk := referenceRun(t)

	path := filepath.Join(t.TempDir(), "fo.json")
	ck1, err := robust.LoadCampaignCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	gen1, err := ck1.Adopt()
	if err != nil {
		t.Fatal(err)
	}
	co1, err := shard.New(shard.Options{Campaign: miniCampaign2(t, ck1), LeaseTTL: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()

	conns1 := make(chan shard.Conn, 16)
	d := &foDialer{target: conns1, primary: []shard.Conn{}, enough: make(chan struct{}), want: 5}

	pctx, pcancel := context.WithCancel(ctx)
	defer pcancel()
	primaryDone := make(chan error, 1)
	go func() {
		_, err := co1.Run(pctx, conns1)
		primaryDone <- err
	}()

	var wg sync.WaitGroup
	workerErrs := make(chan error, 3)
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			r, err := shard.Connect(ctx, shard.ReconnOptions{
				Dial:    d.dial,
				Backoff: shard.Backoff{Base: 20 * time.Millisecond, Cap: 200 * time.Millisecond, Salt: fmt.Sprintf("w%d", id)},
				MaxDown: time.Minute,
			})
			if err != nil {
				workerErrs <- fmt.Errorf("worker %d connect: %w", id, err)
				return
			}
			workerErrs <- shard.RunWorker(ctx, r, shard.WorkerOptions{
				ID:       fmt.Sprintf("w%d", id),
				Scenario: resolveMini(t),
			})
		}(i)
	}

	// Wait for real progress (observations streamed, leases held), then
	// kill the primary: sever its connections and cancel its loop without
	// any shutdown broadcast reaching a worker.
	select {
	case <-d.enough:
	case <-time.After(2 * time.Minute):
		t.Fatal("no observations flowed before the kill window")
	}
	conns2 := make(chan shard.Conn, 16)
	d.failover(conns2)
	pcancel()
	<-primaryDone // error is expected (cancelled or lost workers); the point is it stopped

	// The standby adopts checkpoint and leases, the workers' Reconns
	// redial into it, and the campaign completes.
	ck2, err := robust.LoadCampaignCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	gen2, err := ck2.Adopt()
	if err != nil {
		t.Fatal(err)
	}
	if gen2 <= gen1 {
		t.Fatalf("standby generation %d not above primary's %d", gen2, gen1)
	}
	co2, err := shard.New(shard.Options{Campaign: miniCampaign2(t, ck2), LeaseTTL: 30 * time.Second, AdoptLeases: true})
	if err != nil {
		t.Fatal(err)
	}
	table, err := co2.Run(ctx, conns2)
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	close(workerErrs)
	for err := range workerErrs {
		if err != nil {
			t.Fatal(err)
		}
	}

	if got := table.Format(); got != wantTable {
		t.Fatalf("post-failover table differs:\n%s\n--- want ---\n%s", got, wantTable)
	}
	if err := ck2.Retire(); err != nil {
		t.Fatal(err)
	}
	gotCk, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(gotCk) != string(wantCk) {
		t.Fatalf("post-failover checkpoint differs:\n%s\n--- want ---\n%s", gotCk, wantCk)
	}
	if st := co2.Stats(); st.Adopted == 0 {
		t.Fatalf("standby stats = %+v, want adopted leases (the kill struck mid-unit)", st)
	}
}

// miniCampaign2 is miniCampaign with an injected checkpoint handle (the
// fail-over tests need two handles over one file).
func miniCampaign2(t *testing.T, ck *robust.CampaignCheckpoint) *eval.Campaign {
	t.Helper()
	return &eval.Campaign{
		Scenario:   miniScenario(t),
		Seeds:      []int64{1, 2},
		Spaces:     eval.Spaces()[:1],
		Methods:    []eval.Method{eval.DAC19, eval.PPATuner},
		Checkpoint: ck,
	}
}

// shutdownWatch flags a shutdown message reaching the worker.
type shutdownWatch struct {
	shard.Conn
	seen *atomic.Bool
}

func (s *shutdownWatch) Recv() (shard.Msg, error) {
	m, err := s.Conn.Recv()
	if err == nil && m.Type == shard.MsgShutdown {
		s.seen.Store(true)
	}
	return m, err
}

// TestDeposedPrimaryHandsWorkerToStandby: a standby adopts the checkpoint
// mid-campaign while the primary still runs, with a worker attached through
// Reconn. The primary's next write is fenced and it stands down with
// ErrDeposed, closing its connection without a shutdown message. The
// worker redials into the standby, re-attaches its lease, and the campaign
// finishes to the single-process table and retired checkpoint.
func TestDeposedPrimaryHandsWorkerToStandby(t *testing.T) {
	wantTable, wantCk := referenceRun(t)

	path := filepath.Join(t.TempDir(), "fo.json")
	ck1, err := robust.LoadCampaignCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ck1.Adopt(); err != nil {
		t.Fatal(err)
	}
	co1, err := shard.New(shard.Options{Campaign: miniCampaign2(t, ck1), LeaseTTL: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()

	conns1 := make(chan shard.Conn, 16)
	conns2 := make(chan shard.Conn, 16)
	d := &foDialer{target: conns1, enough: make(chan struct{}), want: 5}
	var shutdownSeen atomic.Bool
	dial := func() (shard.Conn, error) {
		d.mu.Lock()
		toPrimary := d.target == conns1
		d.mu.Unlock()
		c, err := d.dial()
		if err != nil || !toPrimary {
			return c, err
		}
		return &shutdownWatch{Conn: c, seen: &shutdownSeen}, nil
	}

	primaryDone := make(chan error, 1)
	go func() {
		_, err := co1.Run(ctx, conns1)
		primaryDone <- err
	}()
	workerDone := make(chan error, 1)
	go func() {
		r, err := shard.Connect(ctx, shard.ReconnOptions{
			Dial:    dial,
			Backoff: shard.Backoff{Base: 20 * time.Millisecond, Cap: 200 * time.Millisecond, Salt: "w0"},
			MaxDown: time.Minute,
		})
		if err != nil {
			workerDone <- err
			return
		}
		workerDone <- shard.RunWorker(ctx, r, shard.WorkerOptions{ID: "w0", Scenario: resolveMini(t)})
	}()

	select {
	case <-d.enough:
	case <-time.After(2 * time.Minute):
		t.Fatal("no observations flowed before the takeover")
	}
	// Future dials reach the standby; the primary's connection stays up
	// until the primary itself stands down.
	d.mu.Lock()
	d.target = conns2
	d.mu.Unlock()
	ck2, err := robust.LoadCampaignCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ck2.Adopt(); err != nil {
		t.Fatal(err)
	}
	if err := <-primaryDone; !errors.Is(err, shard.ErrDeposed) {
		t.Fatalf("primary returned %v after the takeover, want ErrDeposed", err)
	}

	co2, err := shard.New(shard.Options{Campaign: miniCampaign2(t, ck2), LeaseTTL: 30 * time.Second, AdoptLeases: true})
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		table *eval.Table
		err   error
	}
	standbyDone := make(chan outcome, 1)
	go func() {
		table, err := co2.Run(ctx, conns2)
		standbyDone <- outcome{table, err}
	}()
	// A standby that finishes shuts its worker down, so the worker may be
	// done as soon as the standby is: wait for the standby alone. A worker
	// that left early (on a shutdown from the deposed primary, say) never
	// returns to the standby, which then waits for it past the deadline.
	var got outcome
	select {
	case got = <-standbyDone:
	case <-time.After(time.Minute):
		t.Fatalf("the standby did not finish (shutdown from the deposed primary: %v)", shutdownSeen.Load())
	}
	if got.err != nil {
		t.Fatal(got.err)
	}
	if err := <-workerDone; err != nil {
		t.Fatalf("worker: %v", err)
	}
	if shutdownSeen.Load() {
		t.Fatal("the deposed primary sent the worker a shutdown")
	}
	if st := co2.Stats(); st.Adopted == 0 {
		t.Fatalf("standby stats = %+v, want the worker's lease adopted", st)
	}
	if table := got.table.Format(); table != wantTable {
		t.Fatalf("post-takeover table differs:\n%s\n--- want ---\n%s", table, wantTable)
	}
	if err := ck2.Retire(); err != nil {
		t.Fatal(err)
	}
	gotCk, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(gotCk) != string(wantCk) {
		t.Fatalf("post-takeover checkpoint differs:\n%s\n--- want ---\n%s", gotCk, wantCk)
	}
}
