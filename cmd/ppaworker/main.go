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
//	          [-outage PERIOD/DOWN] [-breaker N] [-max-outage D] [-chaos-seed N]
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
// next campaign, reusing cached benchmark scenarios instead of spending
// ~10s (Table 3) to ~30s (Table 2) regenerating them.
//
// The outage flags mirror the tables command: they inject correlated
// downtime into this worker's evaluation path and arm a park-mode breaker,
// so units hitting the open breaker are reported as parked failures for the
// coordinator to requeue rather than aborting the campaign.
//
// Everything diagnostic goes to stderr; stdout belongs to the protocol.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"ppatuner"
	"ppatuner/internal/eval"
	"ppatuner/internal/shard"
	"ppatuner/internal/shard/transport"
)

func main() {
	id := flag.String("id", "", "worker name used in lease records and coordinator logs (default: w-<pid> with -connect, else assigned by the coordinator)")
	connect := flag.String("connect", "", "coordinator TCP address(es), comma-separated in preference order; empty speaks the protocol on stdin/stdout")
	dialTimeout := flag.Duration("dial-timeout", 2*time.Minute, "give up after this much continuous dial failure (set past the standby's -takeover-after)")
	rejoin := flag.Bool("rejoin", false, "after a clean campaign shutdown, redial and serve the next campaign instead of exiting")
	heartbeat := flag.Duration("heartbeat", 0, "lease renewal period while a unit computes (0 derives a third of the granted TTL)")
	outageSpec := flag.String("outage", "", "inject correlated downtime windows: PERIOD/DOWN (e.g. 60s/10s), empty or \"off\" disables")
	breakerN := flag.Int("breaker", 0, "circuit breaker: trip after N consecutive transient failures and park the unit (0 disables)")
	maxOutage := flag.Duration("max-outage", 5*time.Minute, "abort when one outage episode keeps the breaker open longer than this")
	chaosSeed := flag.Int64("chaos-seed", 1, "seed for the chaos injector's failure stream")
	flag.Parse()

	wrap, err := buildWrap(*outageSpec, *breakerN, *maxOutage, *chaosSeed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ppaworker: %v\n", err)
		os.Exit(2)
	}

	// The scenario cache outlives individual RunWorker sessions, so a
	// worker that rejoins or reconnects after a coordinator fail-over
	// skips the benchmark regeneration it already paid for.
	cache := shard.NewScenarioCache(nil)
	opts := shard.WorkerOptions{
		ID:             *id,
		Scenario:       cache.Resolve,
		HeartbeatEvery: *heartbeat,
		Run:            eval.RunOpts{Wrap: wrap},
	}

	if *connect == "" {
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
	addrs := strings.Split(*connect, ",")
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
			MaxDown: *dialTimeout,
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
		if !*rejoin {
			return
		}
		fmt.Fprintf(os.Stderr, "ppaworker: campaign over, rejoining (scenarios cached)\n")
	}
}

// buildWrap assembles the per-unit evaluation middleware: chaos injection
// under the resilience layer with a shared park-mode breaker — the same
// stack the tables command arms for single-process campaigns.
func buildWrap(outageSpec string, breakerN int, maxOutage time.Duration, chaosSeed int64) (func(ppatuner.Evaluator) ppatuner.Evaluator, error) {
	sched, err := ppatuner.ParseOutageSchedule(outageSpec)
	if err != nil {
		return nil, err
	}
	var inj *ppatuner.ChaosInjector
	if sched.Enabled() {
		inj, err = ppatuner.NewChaos(ppatuner.ChaosOptions{Seed: chaosSeed, Outage: sched})
		if err != nil {
			return nil, err
		}
	}
	var brk *ppatuner.CircuitBreaker
	if breakerN > 0 {
		brk = ppatuner.NewCircuitBreaker(ppatuner.CircuitBreakerOptions{
			Threshold: breakerN,
			MaxOutage: maxOutage,
			Park:      true,
		})
	}
	if inj == nil && brk == nil {
		return nil, nil
	}
	return func(ev ppatuner.Evaluator) ppatuner.Evaluator {
		if inj != nil {
			ev = inj.Wrap(ev)
		}
		re, err := ppatuner.WrapEvaluator(nil, ev, ppatuner.ResilientOptions{
			Policy:  ppatuner.PolicySkip,
			Seed:    chaosSeed,
			Breaker: brk,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "ppaworker: %v\n", err)
			os.Exit(1)
		}
		return re.Evaluate
	}, nil
}
