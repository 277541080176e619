package shard

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"sync"
	"time"

	"ppatuner/internal/clock"
	"ppatuner/internal/eval"
	"ppatuner/internal/robust"
)

// WorkerOptions configures RunWorker.
type WorkerOptions struct {
	// ID names the worker in grants, lease records and log lines. Empty is
	// allowed; the coordinator assigns a positional name.
	ID string
	// Scenario resolves a wire-form scenario name to the built scenario;
	// defaults to eval.StandardScenario, whose benchmark datasets are built
	// once per process. It is called once per grant.
	Scenario func(name string) (*eval.Scenario, error)
	// Space resolves a wire-form space name; defaults to eval.SpaceByName.
	Space func(name string) (eval.ObjSpace, error)
	// Run is the base harness configuration applied to every unit — the
	// place to hang the resilient-evaluator middleware (robust retries,
	// breaker, chaos under test). A breaker pauses the unit through an
	// outage while the heartbeats keep its lease.
	Run eval.RunOpts
	// HeartbeatEvery paces lease renewals while a unit computes. Zero
	// derives a third of the granted lease TTL.
	HeartbeatEvery time.Duration
	// Clock paces heartbeats; defaults to the wall clock.
	Clock clock.Clock
}

// WorkerFlags is ppaworker's command line, declared once: ppaworker parses
// its arguments into it, and ppacoord checks the -worker-flags it passes to
// the workers it spawns against the same flag set (CheckWorkerFlags).
type WorkerFlags struct {
	ID          string
	Connect     string
	DialTimeout time.Duration
	Rejoin      bool
	Heartbeat   time.Duration
	Faults      eval.FaultConfig
}

// RegisterFlags registers ppaworker's flags on fs.
func (w *WorkerFlags) RegisterFlags(fs *flag.FlagSet) {
	fs.StringVar(&w.ID, "id", "", "worker name used in lease records and coordinator logs (default: w-<pid> with -connect, else assigned by the coordinator)")
	fs.StringVar(&w.Connect, "connect", "", "coordinator TCP address(es), comma-separated in preference order; empty speaks the protocol on stdin/stdout")
	fs.DurationVar(&w.DialTimeout, "dial-timeout", 2*time.Minute, "give up after this much continuous dial failure (set past the standby's -takeover-after)")
	fs.BoolVar(&w.Rejoin, "rejoin", false, "after a clean campaign shutdown, redial and serve the next campaign instead of exiting")
	fs.DurationVar(&w.Heartbeat, "heartbeat", 0, "lease renewal period while a unit computes (0 derives a third of the granted TTL)")
	w.Faults.RegisterFlags(fs)
}

// CheckWorkerFlags parses args as ppaworker would and validates their fault
// configuration as ppaworker does, so a command line the workers would
// refuse fails before anything is spawned.
func CheckWorkerFlags(args []string) error {
	fs := flag.NewFlagSet("ppaworker", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	var w WorkerFlags
	w.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	return w.Faults.Validate()
}

// RunWorker serves one coordinator connection: hello, then a grant/report
// loop until shutdown or connection loss (io.EOF is a clean exit — the
// coordinator went away after the campaign finished). One unit runs at a
// time; while it computes, a heartbeat goroutine renews the lease, and
// every fresh observation is streamed the moment the evaluator pays for
// it, so a later SIGKILL forfeits only wall-clock time — never results.
//
// Receiving runs on a dedicated goroutine for the whole session, not just
// between units: the coordinator acknowledges every observation and
// result (and a Reconn uses those acks to trim its retransmit buffer), so
// inbound traffic must drain while a unit computes or long units would
// stall both sides' send windows. RunWorker closes conn on return to
// release that goroutine.
//
// Unit failures are reported, not returned: the coordinator aborts the
// campaign on them. RunWorker itself only fails on transport errors.
func RunWorker(ctx context.Context, conn Conn, opt WorkerOptions) error {
	if opt.Scenario == nil {
		opt.Scenario = eval.StandardScenario
	}
	if opt.Space == nil {
		opt.Space = eval.SpaceByName
	}
	if opt.Clock == nil {
		opt.Clock = clock.Real()
	}
	if err := conn.Send(Msg{Type: MsgHello, Worker: opt.ID}); err != nil {
		return err
	}

	msgs := make(chan Msg)
	errc := make(chan error, 1)
	readerDone := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			m, err := conn.Recv()
			if err != nil {
				select {
				case errc <- err:
				case <-readerDone:
				}
				return
			}
			select {
			case msgs <- m:
			case <-readerDone:
				return
			}
		}
	}()
	// LIFO: close the conn first (unblocks a Recv in flight), then release
	// the reader's channel sends, then join it.
	defer wg.Wait()
	defer close(readerDone)
	defer conn.Close()

	for {
		select {
		case <-ctx.Done():
			return nil
		case err := <-errc:
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrClosedPipe) || ctx.Err() != nil {
				return nil
			}
			return err
		case msg := <-msgs:
			switch msg.Type {
			case MsgShutdown:
				return nil
			case MsgGrant:
				if err := runGrant(ctx, conn, opt, msg); err != nil {
					return err
				}
			default:
				// Unknown types are ignored for forward compatibility.
			}
		}
	}
}

// runGrant executes one granted unit and reports its outcome.
func runGrant(ctx context.Context, conn Conn, opt WorkerOptions, msg Msg) error {
	if msg.Unit == nil {
		return fmt.Errorf("shard: grant for %s carries no unit", msg.Key)
	}
	// Heartbeats start before scenario resolution: building a scenario
	// regenerates benchmark datasets, which can outlast a lease TTL on its
	// own — the lease must stay renewed through it.
	every := opt.HeartbeatEvery
	if every <= 0 {
		every = time.Duration(msg.LeaseMillis) * time.Millisecond / 3
	}
	if every <= 0 {
		every = 10 * time.Second
	}
	hbCtx, stopHB := context.WithCancel(ctx)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			if opt.Clock.Sleep(hbCtx, every) != nil {
				return
			}
			if conn.Send(Msg{Type: MsgHeartbeat, Key: msg.Key, Epoch: msg.Epoch}) != nil {
				return
			}
		}
	}()
	defer wg.Wait()
	defer stopHB()

	sc, err := opt.Scenario(msg.Unit.Scenario)
	if err != nil {
		return conn.Send(Msg{Type: MsgFail, Key: msg.Key, Epoch: msg.Epoch, Error: err.Error()})
	}
	space, err := opt.Space(msg.Unit.Space)
	if err != nil {
		return conn.Send(Msg{Type: MsgFail, Key: msg.Key, Epoch: msg.Epoch, Error: err.Error()})
	}

	res, end, runErr := eval.ExecuteUnit(sc, space, *msg.Unit, msg.RandState, msg.Replay, opt.Run, func(o robust.Observation) error {
		return conn.Send(Msg{Type: MsgObs, Key: msg.Key, Epoch: msg.Epoch, Obs: &o})
	})
	if runErr != nil {
		return conn.Send(Msg{Type: MsgFail, Key: msg.Key, Epoch: msg.Epoch, Error: runErr.Error()})
	}
	return conn.Send(Msg{Type: MsgResult, Key: msg.Key, Epoch: msg.Epoch, Result: &res, RandEnd: end})
}
