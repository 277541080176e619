// Command ppaworker is one worker process in a distributed table
// regeneration: it speaks the shard lease protocol on stdin/stdout (the
// default, for workers spawned by ppacoord) or over TCP with -connect, runs
// one granted (space × method × seed) unit at a time through the resilient
// evaluator, and streams every observation back the moment it is paid for —
// so killing a worker forfeits only wall-clock time, never results.
//
// Usage:
//
//	ppaworker [-id NAME] [-connect ADDR[,ADDR...]] [-dial-timeout D] [-rejoin]
//	          [-heartbeat D]
//	          [-breaker N [-outage PERIOD/DOWN]] [-max-outage D]
//
// With -connect the worker survives coordinator fail-over: the initial
// dial and every reconnection retry with capped exponential backoff
// (deterministic jitter salted by the worker ID), rotating through the
// address list — primary first, standby next — until -dial-timeout of
// continuous failure. On reconnecting it re-introduces itself under the
// new coordinator's generation, names the lease it still holds so the
// unit is re-attached rather than double-granted, and re-streams every
// unacknowledged observation. -rejoin keeps the process alive across
// clean campaign shutdowns (multi-table runs): it redials and serves the
// next campaign, reusing the benchmark datasets it built (once per
// process) instead of spending ~10s (Table 3) to ~30s (Table 2)
// regenerating them.
//
// The outage flags are declared once, in eval.FaultConfig, for every
// command that takes them: -outage PERIOD/DOWN injects a DOWN-long licence
// outage inside every PERIOD stripe of the evaluation path, -breaker N arms
// a circuit breaker that trips after N consecutive transient failures (an
// outage-marked one trips it at once), and -max-outage D (default 5m)
// bounds one outage episode. A campaign's -outage needs -breaker: a unit
// the breaker stops is reported as a parked failure for the coordinator to
// requeue rather than aborting the campaign.
//
// Everything diagnostic goes to stderr; stdout belongs to the protocol.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"ppatuner/internal/eval"
	"ppatuner/internal/shard"
	"ppatuner/internal/shard/transport"
)

func main() {
	var wf shard.WorkerFlags
	wf.RegisterFlags(flag.CommandLine)
	flag.Parse()

	// A worker learns its units' seeds only from grants, so seed 1 keys
	// the retry jitter, which never reaches a result.
	stack, err := wf.Faults.Build(context.Background(), 1, nil)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ppaworker: %v\n", err)
		os.Exit(2)
	}

	// The benchmark datasets are built once per process, so a worker that
	// rejoins or reconnects after a coordinator fail-over skips the
	// regeneration it already paid for.
	opts := shard.WorkerOptions{
		ID:             wf.ID,
		HeartbeatEvery: wf.Heartbeat,
		Run:            eval.RunOpts{Wrap: stack.Wrap},
	}

	if wf.Connect == "" {
		// Stdio workers live exactly as long as their pipe; reconnection
		// is meaningless when the far end owns this process.
		conn := transport.Stream(os.Stdin, os.Stdout)
		defer conn.Close()
		if err := shard.RunWorker(context.Background(), conn, opts); err != nil {
			fmt.Fprintf(os.Stderr, "ppaworker: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if opts.ID == "" {
		// Reconnection re-attaches a lease by (epoch, holder), so a remote
		// worker needs an identity that survives redials.
		opts.ID = fmt.Sprintf("w-%d", os.Getpid())
	}
	addrs := strings.Split(wf.Connect, ",")
	for i := range addrs {
		addrs[i] = strings.TrimSpace(addrs[i])
	}
	// Rotate through the address list across dial attempts: the primary
	// first, the standby next. Reconn serialises Dial calls, so the bare
	// counter is safe.
	next := 0
	dial := func() (shard.Conn, error) {
		addr := addrs[next%len(addrs)]
		next++
		return transport.Dial(addr)
	}
	ctx := context.Background()
	for {
		conn, err := shard.Connect(ctx, shard.ReconnOptions{
			Dial:    dial,
			Backoff: shard.Backoff{Salt: opts.ID},
			MaxDown: wf.DialTimeout,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "ppaworker: %v\n", err)
			os.Exit(1)
		}
		err = shard.RunWorker(ctx, conn, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ppaworker: %v\n", err)
			os.Exit(1)
		}
		if !wf.Rejoin {
			return
		}
		fmt.Fprintf(os.Stderr, "ppaworker: campaign over, rejoining (benchmark datasets cached)\n")
	}
}
