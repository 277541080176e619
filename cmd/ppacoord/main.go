// Command ppacoord regenerates the paper's tables by distributing campaign
// units across worker processes. It enumerates every (space × method × seed)
// unit, leases each to a worker under a heartbeat-renewed TTL, merges the
// streamed observations and results into one campaign checkpoint, and
// assembles the same tables a single-process run produces — byte-identical
// at any worker count, under any kill schedule.
//
// Usage:
//
//	ppacoord [-table 2|3|both] [-seeds N|s1,s2,...]
//	         [-workers N [-worker-bin PATH] [-worker-flags "..."] [-kill W@T,...]]
//	         [-listen ADDR -workers-remote N]
//	         [-lease D] [-requeue D]
//	         [-checkpoint FILE [-resume]] [-json FILE]
//	         [-standby] [-beacon FILE] [-beacon-every D] [-takeover-after D]
//
// -workers spawns N local ppaworker processes speaking the protocol on
// their stdio pipes; -listen additionally (or instead) accepts remote
// workers over TCP — start those with ppaworker -connect ADDR. -kill
// SIGKILLs spawned workers mid-campaign to rehearse lease reclaim: the
// killed worker's unit is parked, requeued and re-granted under a higher
// lease epoch, and any result the dead epoch might still deliver is
// rejected as a zombie. Two special targets rehearse coordinator death
// instead: "coord@T" SIGKILLs this process itself at T, and "split@T"
// mutes its beacon at T while it keeps running (the split-brain drill —
// checkpoint fencing deposes it once a standby adopts). Every T counts
// from the first lease grant (a worker's W@T from its own campaign's first
// grant), not from launch: grants go out only once the benchmark is
// built, so a schedule lands mid-campaign however long that build takes.
// -worker-flags is parsed against ppaworker's own flag set, with its
// fault-configuration checks, before any dataset is built: a value the
// workers would refuse exits 2 at once. Without -listen, once every spawned
// worker has exited before the campaign finished (a -kill of them all, say),
// nothing can finish it: ppacoord exits 1 and names their exit statuses.
//
// High availability: with -checkpoint, every run adopts the checkpoint
// under a fresh coordinator generation (the fencing token stamped into
// all of its writes), and announces liveness into the -beacon file from
// adoption until it exits, benchmark builds included. A
// second ppacoord started with -standby on the same checkpoint and beacon
// waits until the beacon has been silent for -takeover-after, then adopts
// the checkpoint — fencing the old primary's in-flight writes — re-arms
// the persisted leases, and finishes the campaign. Point workers at both
// addresses (ppaworker -connect primary,standby) and they reconnect to
// whichever coordinator is alive; results are byte-identical to an
// undisturbed single-process run.
//
// With -table both and only remote workers, workers exit after the first
// table's shutdown broadcast unless they run with -rejoin; prefer
// -workers for local campaigns.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"ppatuner"
	"ppatuner/internal/clock"
	"ppatuner/internal/eval"
	"ppatuner/internal/pdtool/chaos"
	"ppatuner/internal/robust"
	"ppatuner/internal/shard"
	"ppatuner/internal/shard/transport"
)

func main() {
	table := flag.String("table", "both", "which table to regenerate: 2 | 3 | both")
	seedSpec := flag.String("seeds", "3", "seed count N (averages seeds 1..N) or explicit comma-separated seed list")
	workers := flag.Int("workers", 0, "local ppaworker processes to spawn (stdio transport)")
	workerBin := flag.String("worker-bin", "", "ppaworker binary for -workers (default: next to this binary, then $PATH)")
	workerFlags := flag.String("worker-flags", "", "extra flags passed to every spawned worker, e.g. \"-outage 60s/10s -breaker 2\"")
	killSpec := flag.String("kill", "", "SIGKILL schedule, T counted from the first lease grant: W@T[,W@T...] kills spawned worker W (e.g. 1@3s), coord@T this process, split@T mutes its beacon; empty or \"off\" disables")
	listen := flag.String("listen", "", "TCP address to accept remote workers on (they run ppaworker -connect ADDR)")
	workersRemote := flag.Int("workers-remote", 0, "remote workers expected on -listen (recorded in TABLES.json; grants start as soon as any worker connects)")
	lease := flag.Duration("lease", 30*time.Second, "lease TTL: a worker silent for this long loses its unit to the requeue path")
	requeue := flag.Duration("requeue", 0, "hold a breaker-parked unit out of the grant queue for this long (0 derives lease/4)")
	ckptPath := flag.String("checkpoint", "", "campaign checkpoint file: completed cells, partial observations and the lease ledger persist there")
	resume := flag.Bool("resume", false, "continue from an existing -checkpoint file (without it, a pre-existing file is an error)")
	jsonPath := flag.String("json", "", "write the machine-readable TABLES.json document to this path")
	standby := flag.Bool("standby", false, "wait for the primary's beacon to fall silent, then adopt the checkpoint and finish the campaign (implies -resume)")
	beaconPath := flag.String("beacon", "", "liveness beacon file shared between primary and standby (default: <checkpoint>.beacon)")
	beaconEvery := flag.Duration("beacon-every", 2*time.Second, "how often the primary announces into the beacon")
	takeoverAfter := flag.Duration("takeover-after", 15*time.Second, "beacon silence a standby requires before promoting")
	flag.Parse()

	fail := func(code int, err error) {
		fmt.Fprintf(os.Stderr, "ppacoord: %v\n", err)
		os.Exit(code)
	}

	seeds, err := eval.ParseSeeds(*seedSpec)
	if err != nil {
		fail(2, err)
	}
	workerArgs := strings.Fields(*workerFlags)
	if err := shard.CheckWorkerFlags(workerArgs); err != nil {
		fail(2, fmt.Errorf("-worker-flags: %v", err))
	}
	faults, err := chaos.ParseKillSchedule(*killSpec)
	if err != nil {
		fail(2, err)
	}
	if *workers <= 0 && *listen == "" {
		fail(2, fmt.Errorf("no workers: pass -workers N to spawn local ones, -listen ADDR to accept remote ones, or both"))
	}
	if len(faults.Kills) > 0 && *workers <= 0 {
		fail(2, fmt.Errorf("-kill schedules SIGKILLs for spawned workers; it needs -workers"))
	}
	if *ckptPath == "" {
		if *standby {
			fail(2, fmt.Errorf("-standby adopts a shared -checkpoint; pass one"))
		}
		if faults.SplitBrain {
			fail(2, fmt.Errorf("-kill split@T mutes the beacon of a checkpointed run; pass -checkpoint"))
		}
	}
	if *beaconPath == "" && *ckptPath != "" {
		*beaconPath = *ckptPath + ".beacon"
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var beacon *shard.Beacon
	if *beaconPath != "" {
		beacon = shard.NewBeacon(*beaconPath)
	}
	if *standby {
		fmt.Fprintf(os.Stderr, "ppacoord: standby: watching beacon %s (promoting after %v of silence)\n", *beaconPath, *takeoverAfter)
		if err := beacon.Watch(ctx, clock.Real(), 0, *takeoverAfter); err != nil {
			fail(1, err)
		}
		fmt.Fprintf(os.Stderr, "ppacoord: standby: beacon silent for %v, promoting\n", *takeoverAfter)
		*resume = true
	}

	var ck *ppatuner.CampaignCheckpoint
	resumedCells := 0
	if *ckptPath != "" {
		if !*resume {
			if fi, err := os.Stat(*ckptPath); err == nil && fi.Size() > 0 {
				fail(2, fmt.Errorf("checkpoint %s already exists; pass -resume to continue it or remove the file", *ckptPath))
			}
		}
		ck, err = ppatuner.LoadCampaignCheckpoint(*ckptPath)
		if err != nil {
			fail(1, err)
		}
		resumedCells = ck.Cells()
		gen, err := ck.Adopt()
		if err != nil {
			fail(1, err)
		}
		fmt.Fprintf(os.Stderr, "ppacoord: adopted checkpoint %s at generation %d\n", *ckptPath, gen)
		if beacon != nil {
			// Announce from adoption, not only while a campaign runs: a
			// standby must not mistake the benchmark build for a dead
			// primary.
			go func() {
				for {
					// Best-effort: an announce failure must not kill the
					// campaign, and silence only errs toward a takeover,
					// which fencing makes safe.
					_ = beacon.Announce(gen)
					select {
					case <-ctx.Done():
						return
					case <-time.After(*beaconEvery):
					}
				}
			}()
		}
	}

	// Coordinator-level chaos arms at the first lease grant: coord@T
	// self-SIGKILLs (the fail-over drill a standby must survive), split@T
	// mutes the beacon while this process keeps serving (the split-brain
	// drill checkpoint fencing must contain).
	var procChaos sync.Once
	armProcChaos := func() {
		if faults.CoordKill {
			time.AfterFunc(faults.CoordKillAt, func() {
				fmt.Fprintf(os.Stderr, "ppacoord: chaos: SIGKILL self (pid %d)\n", os.Getpid())
				if proc, err := os.FindProcess(os.Getpid()); err == nil {
					_ = proc.Kill()
				}
			})
		}
		if faults.SplitBrain {
			time.AfterFunc(faults.SplitBrainAt, func() {
				fmt.Fprintf(os.Stderr, "ppacoord: chaos: muting beacon %s (split-brain)\n", *beaconPath)
				beacon.Mute()
			})
		}
	}
	grants := &firstGrant{}

	// One conns stream for the whole process: remote workers are forwarded
	// in as they dial, local ones are pushed at each campaign start.
	conns := make(chan shard.Conn, 64)
	if *listen != "" {
		remote, closeL, addr, err := transport.Listen(ctx, *listen)
		if err != nil {
			fail(1, err)
		}
		defer closeL()
		fmt.Fprintf(os.Stderr, "ppacoord: accepting workers on %s (expecting %d; start them with: ppaworker -connect %s)\n", addr, *workersRemote, addr)
		go func() {
			for c := range remote {
				conns <- grants.watch(c)
			}
		}()
	}

	flog := &robust.FailureLog{}
	var reports []eval.TableReport
	runTable := func(name string, mk func() (*ppatuner.Scenario, error)) {
		t0 := time.Now()
		s, err := mk()
		if err != nil {
			fail(1, err)
		}
		fmt.Fprintf(os.Stderr, "— %s (benchmark ready in %v) —\n", name, time.Since(t0).Round(time.Second))
		t0 = time.Now()
		co, err := shard.New(shard.Options{
			Campaign:     &ppatuner.Campaign{Scenario: s, Seeds: seeds, Checkpoint: ck},
			LeaseTTL:     *lease,
			RequeueDelay: *requeue,
			Log:          flog,
			AdoptLeases:  *standby,
		})
		if err != nil {
			fail(1, err)
		}
		cmds, kills := spawnWorkers(conns, grants, *workers, *workerBin, workerArgs, faults)
		grants.set(func() {
			procChaos.Do(armProcChaos)
			for _, kill := range kills {
				kill()
			}
		})
		runCtx, stop := context.WithCancel(ctx)
		orphaned := func() {}
		if *listen == "" {
			// No remote worker can join, so once every spawned worker has
			// exited nothing can finish the campaign.
			orphaned = stop
		}
		exits := watchExits(cmds, orphaned)
		tbl, err := co.Run(runCtx, conns)
		stop()
		exited := <-exits
		for _, cmd := range cmds {
			_ = cmd.Wait() // releases the pipes; watchExits reaped the process
		}
		if errors.Is(err, shard.ErrDeposed) {
			// A newer generation adopted the checkpoint out from under us:
			// every result is safe with the new primary, so stand down
			// loudly but without masquerading as a campaign failure.
			fail(3, fmt.Errorf("deposed: %v", err))
		}
		if errors.Is(err, context.Canceled) {
			fail(1, fmt.Errorf("every spawned worker exited before the campaign finished (%s)", exited))
		}
		if err != nil {
			fail(1, err)
		}
		fmt.Print(tbl.Format())
		st := co.Stats()
		fmt.Fprintf(os.Stderr, "(computed in %v over %d seed(s); leases: %d granted, %d renewed, %d expired, %d workers lost, %d zombie results rejected, %d duplicates discarded)\n\n",
			time.Since(t0).Round(time.Second), len(seeds), st.Granted, st.Renewed, st.Expired, st.WorkersLost, st.ZombieResults, st.Duplicates)
		reports = append(reports, tbl.Report(name, seeds))
	}

	if *table == "2" || *table == "both" {
		runTable("Table 2", ppatuner.ScenarioOne)
	}
	if *table == "3" || *table == "both" {
		runTable("Table 3", ppatuner.ScenarioTwo)
	}

	if ck != nil {
		// Retire clears the generation stamp so the finished checkpoint is
		// byte-identical to one a never-adopted single-process run wrote.
		if err := ck.Retire(); err != nil {
			if errors.Is(err, robust.ErrFenced) {
				fail(3, fmt.Errorf("deposed: %v", err))
			}
			fail(1, err)
		}
		fmt.Fprintf(os.Stderr, "checkpoint: resumed %d completed cells (now %d cells in %s)\n", resumedCells, ck.Cells(), *ckptPath)
	}
	fmt.Fprintf(os.Stderr, "failures: %s\n", flog.Summary())

	if *jsonPath != "" {
		if err := eval.WriteTablesJSON(*jsonPath, seeds, *workers+*workersRemote, reports); err != nil {
			fail(1, err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *jsonPath)
	}
}

// spawnWorkers starts n local ppaworker processes on stdio pipes and pushes
// their conns, watched by grants, to the coordinator. It returns the
// processes and the SIGKILL schedule's arm functions, one per scheduled
// worker, for the caller to run at the campaign's first lease grant.
func spawnWorkers(conns chan<- shard.Conn, grants *firstGrant, n int, bin string, extra []string, faults chaos.ProcFaults) ([]*exec.Cmd, []func()) {
	if n <= 0 {
		return nil, nil
	}
	if bin == "" {
		bin = "ppaworker"
		if self, err := os.Executable(); err == nil {
			if sibling := filepath.Join(filepath.Dir(self), "ppaworker"); isExecutable(sibling) {
				bin = sibling
			}
		}
	}
	var cmds []*exec.Cmd
	var kills []func()
	for i := 0; i < n; i++ {
		args := append([]string{"-id", fmt.Sprintf("w%d", i)}, extra...)
		conn, cmd, err := transport.Spawn(bin, args...)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ppacoord: %v\n", err)
			os.Exit(1)
		}
		conns <- grants.watch(conn)
		cmds = append(cmds, cmd)
		if at, ok := faults.KillAt(i); ok {
			proc := cmd.Process
			kills = append(kills, func() {
				time.AfterFunc(at, func() {
					fmt.Fprintf(os.Stderr, "ppacoord: chaos: SIGKILL worker w%d (pid %d)\n", i, proc.Pid)
					_ = proc.Kill()
				})
			})
		}
	}
	return cmds, kills
}

// watchExits waits for the spawned workers in the background and returns a
// channel that yields their exit statuses ("w0: exit status 2, ...") once
// all have exited, after calling onExit. It waits on the processes, not the
// Cmds, so their pipes stay open for the coordinator to read what the
// workers wrote before exiting.
func watchExits(cmds []*exec.Cmd, onExit func()) <-chan string {
	out := make(chan string, 1)
	go func() {
		status := make([]string, len(cmds))
		for i, cmd := range cmds {
			if st, err := cmd.Process.Wait(); err != nil {
				status[i] = fmt.Sprintf("w%d: %v", i, err)
			} else {
				status[i] = fmt.Sprintf("w%d: %v", i, st)
			}
		}
		onExit()
		out <- strings.Join(status, ", ")
	}()
	return out
}

// firstGrant runs the current campaign's arm function once, when the
// coordinator sends the campaign's first lease grant over a watched conn.
type firstGrant struct {
	mu  sync.Mutex
	arm func()
}

// set installs the arm function for the next campaign's first grant.
func (g *firstGrant) set(arm func()) {
	g.mu.Lock()
	g.arm = arm
	g.mu.Unlock()
}

// watch wraps a coordinator-side conn so that grants sent over it fire g.
func (g *firstGrant) watch(c shard.Conn) shard.Conn { return &grantConn{Conn: c, g: g} }

type grantConn struct {
	shard.Conn
	g *firstGrant
}

func (c *grantConn) Send(m shard.Msg) error {
	if m.Type == shard.MsgGrant {
		c.g.mu.Lock()
		arm := c.g.arm
		c.g.arm = nil
		c.g.mu.Unlock()
		if arm != nil {
			arm()
		}
	}
	return c.Conn.Send(m)
}

func isExecutable(path string) bool {
	fi, err := os.Stat(path)
	return err == nil && !fi.IsDir() && fi.Mode()&0o111 != 0
}
