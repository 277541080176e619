package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"ppatuner/internal/core"
	"ppatuner/internal/eval"
	"ppatuner/internal/robust"
	"ppatuner/internal/shard"
	"ppatuner/internal/shard/transport"
)

// distDriver runs rounds of a campaign through shard.Coordinator over
// loopback TCP with in-process shard.RunWorker workers — the cmd/ppacoord
// path with the worker processes folded into this one.
type distDriver struct {
	scenarioBase
	seedsPerRound int
}

// distMethods are the cheap tuners: no surrogate, so per-observation costs
// show.
var distMethods = []eval.Method{eval.MLCAD19, eval.DAC19}

func (d *distDriver) executors() int { return d.cfg.conc }

// countingConn counts the bytes a worker's socket carries both ways.
type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// distStats collects what the workers' connections see in one round. Its
// lock also guards every timedConn's fields.
type distStats struct {
	mu         sync.Mutex
	items      []float64 // grant -> result, s
	ackMS      []float64 // obs sent -> obs_ack received
	grantWait  []float64 // idle (hello or result sent) -> next grant, ms
	msgs, obs  int
	wireBytes  atomic.Int64
	unitsSent  int
	failedSent int
	ckEvents   []ckptEvent // traced rounds only
}

// ckptEvent is a message that makes the coordinator write its checkpoint:
// a grant (Lease, then StartCell on a unit's first grant), an observation
// (AddPartialObservation) or a result (Complete).
type ckptEvent struct {
	typ    shard.MsgType
	key    string
	epoch  uint64
	holder string
	state  []byte
	obs    robust.Observation
	cell   robust.CampaignCell
}

// timedConn is a worker's side of the protocol with timing around it.
type timedConn struct {
	shard.Conn
	id    string
	tr    *Tracer
	root  int64
	stats *distStats

	idleSince time.Time
	unitStart time.Time
	unitSpan  int64
	obsSent   map[string]time.Time
}

func obsKey(key string, index int) string { return fmt.Sprintf("%s#%d", key, index) }

func (c *timedConn) Send(m shard.Msg) error {
	now := time.Now()
	s := c.stats
	s.mu.Lock()
	s.msgs++
	switch m.Type {
	case shard.MsgHello:
		c.idleSince = now
	case shard.MsgObs:
		s.obs++
		if c.tr != nil && m.Obs != nil {
			c.obsSent[obsKey(m.Key, m.Obs.Index)] = now
			s.ckEvents = append(s.ckEvents, ckptEvent{typ: m.Type, key: m.Key, obs: *m.Obs})
		}
	case shard.MsgResult:
		s.items = append(s.items, now.Sub(c.unitStart).Seconds())
		s.unitsSent++
		c.unitDone(now)
		if c.tr != nil && m.Result != nil {
			s.ckEvents = append(s.ckEvents, ckptEvent{typ: m.Type, key: m.Key,
				cell: robust.CampaignCell{HV: m.Result.HV, ADRS: m.Result.ADRS, Runs: m.Result.Runs}})
		}
	case shard.MsgFail:
		s.failedSent++
		c.unitDone(now)
	}
	s.mu.Unlock()
	return c.Conn.Send(m)
}

// unitDone closes the unit's span; the caller holds stats.mu.
func (c *timedConn) unitDone(now time.Time) {
	c.tr.End(c.unitSpan)
	c.unitSpan = 0
	c.idleSince = now
}

func (c *timedConn) Recv() (shard.Msg, error) {
	m, err := c.Conn.Recv()
	if err != nil {
		return m, err
	}
	now := time.Now()
	s := c.stats
	s.mu.Lock()
	defer s.mu.Unlock()
	s.msgs++
	switch m.Type {
	case shard.MsgGrant:
		s.grantWait = append(s.grantWait, now.Sub(c.idleSince).Seconds()*1e3)
		c.unitStart = now
		c.unitSpan = c.tr.Begin("unit", m.Key, c.root)
		if c.tr != nil {
			s.ckEvents = append(s.ckEvents, ckptEvent{typ: m.Type, key: m.Key, epoch: m.Epoch, holder: c.id, state: m.RandState})
		}
	case shard.MsgObsAck:
		if t0, ok := c.obsSent[obsKey(m.Key, m.Index)]; ok {
			s.ackMS = append(s.ackMS, now.Sub(t0).Seconds()*1e3)
			delete(c.obsSent, obsKey(m.Key, m.Index))
		}
	}
	return m, nil
}

// currentUnit is the span of the unit this worker is computing.
func (c *timedConn) currentUnit() int64 {
	c.stats.mu.Lock()
	defer c.stats.mu.Unlock()
	return c.unitSpan
}

func (d *distDriver) round(r int, tr *Tracer) (*roundResult, error) {
	seeds := roundSeeds(d.cfg.seed, r, d.seedsPerRound)
	path, err := freshPath(d.cfg.dir, fmt.Sprintf("round%d.dist.ckpt.json", r))
	if err != nil {
		return nil, err
	}
	ck, err := robust.LoadCampaignCheckpoint(path)
	if err != nil {
		return nil, err
	}
	if _, err := ck.Adopt(); err != nil {
		return nil, err
	}
	camp := &eval.Campaign{Scenario: d.sc, Seeds: seeds, Methods: distMethods, Checkpoint: ck}
	co, err := shard.New(shard.Options{Campaign: camp})
	if err != nil {
		return nil, err
	}
	res := &roundResult{attempted: len(camp.Units())}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	conns, closeL, addr, err := transport.Listen(ctx, "127.0.0.1:0")
	if err != nil {
		return res, err
	}
	defer func() {
		closeL()
		for range conns { // the accept loop closes conns when it exits
		}
	}()

	start := time.Now()
	root := tr.Begin("round", fmt.Sprint(r), 0)
	stats := &distStats{}
	var wg sync.WaitGroup
	werrs := make([]error, d.cfg.conc)
	for w := 0; w < d.cfg.conc; w++ {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			cancel()
			wg.Wait()
			return res, err
		}
		cc := countingConn{nc, &stats.wireBytes}
		tc := &timedConn{
			Conn: transport.Stream(cc, cc), id: fmt.Sprintf("w%d", w),
			tr: tr, root: root, stats: stats, obsSent: map[string]time.Time{},
		}
		opts := shard.WorkerOptions{
			ID:       tc.id,
			Scenario: func(string) (*eval.Scenario, error) { return d.sc, nil },
		}
		if tr != nil {
			// The worker's whole evaluator stack per call: replay cache,
			// tool, and streaming the observation to the coordinator.
			opts.Run.Wrap = func(ev core.Evaluator) core.Evaluator {
				return func(i int) ([]float64, error) {
					t0 := time.Now()
					y, err := ev(i)
					tr.Record("call", "", i, tc.currentUnit(), t0, time.Now())
					return y, err
				}
			}
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			werrs[w] = shard.RunWorker(ctx, tc, opts)
		}(w)
	}
	tbl, err := co.Run(ctx, conns)
	wall := time.Since(start)
	tr.End(root)
	cancel()
	wg.Wait()
	if err != nil {
		res.failed = res.attempted
		return res, err
	}
	for _, werr := range werrs {
		if werr != nil {
			return res, fmt.Errorf("worker: %w", werr)
		}
	}
	if err := ck.Retire(); err != nil {
		return res, err
	}
	// Every worker has returned: stats is ours alone.
	res.items = stats.items
	res.units = stats.unitsSent
	res.failed = stats.failedSent
	for _, u := range camp.Units() {
		cell, _ := ck.Done(camp.UnitKey(u))
		res.runs += cell.Runs
		res.hvErr += cell.HV
	}
	if err := checkCampaign(camp, tbl, ck, res); err != nil {
		res.failed = res.attempted
		return res, err
	}
	ckBytes, err := os.ReadFile(path)
	if err != nil {
		return res, err
	}
	report, err := json.Marshal(tbl.Report(d.sc.Name, seeds))
	if err != nil {
		return res, err
	}
	res.output = append(append(report, '\n'), ckBytes...)
	st := co.Stats()
	res.extra = map[string]float64{
		"ckpt.file_kb":         float64(len(ckBytes)) / 1024,
		"ckpt.obs_writes":      float64(stats.obs),
		"shard.msgs":           float64(stats.msgs),
		"shard.wire_mb":        float64(stats.wireBytes.Load()) / 1e6,
		"shard.leases_granted": float64(st.Granted),
		"shard.leases_expired": float64(st.Expired),
		"shard.zombie_results": float64(st.ZombieResults),
		"shard.obs_per_s":      float64(stats.obs) / wall.Seconds(),
	}
	res.samples = map[string][]float64{"shard.obs_ack_ms": stats.ackMS, "shard.grant_wait_ms": stats.grantWait}
	if tr != nil {
		res.replay = func() (map[string]float64, map[string][]float64, error) {
			path, err := freshPath(d.cfg.dir, fmt.Sprintf("round%d.replay.ckpt.json", r))
			if err != nil {
				return nil, nil, err
			}
			obsMS, total, err := replayCheckpoint(path, stats.ckEvents)
			if err != nil {
				return nil, nil, fmt.Errorf("checkpoint replay: %w", err)
			}
			return map[string]float64{"ckpt.write_s": total}, map[string][]float64{"ckpt.obs_write_ms": obsMS}, nil
		}
	}
	return res, nil
}

// replayCheckpoint times the coordinator's checkpoint writes, which have no
// hook: it applies one round's checkpoint calls, in the order the workers
// saw their messages, to a fresh adopted checkpoint at path, the file the
// coordinator rewrites whole on each call. It returns each observation
// write's time in ms and the total time of all writes in s.
func replayCheckpoint(path string, evs []ckptEvent) (obsMS []float64, total float64, err error) {
	ck, err := robust.LoadCampaignCheckpoint(path)
	if err != nil {
		return nil, 0, err
	}
	if _, err := ck.Adopt(); err != nil {
		return nil, 0, err
	}
	for _, ev := range evs {
		t0 := time.Now()
		switch ev.typ {
		case shard.MsgGrant:
			err = ck.Lease(ev.key, ev.epoch, ev.holder)
			if state, _ := ck.PartialRandState(ev.key); err == nil && state == nil {
				err = ck.StartCell(ev.key, ev.state)
			}
		case shard.MsgObs:
			err = ck.AddPartialObservation(ev.key, ev.obs)
		case shard.MsgResult:
			err = ck.Complete(ev.key, ev.cell)
		}
		if err != nil {
			return nil, 0, err
		}
		dt := time.Since(t0).Seconds()
		total += dt
		if ev.typ == shard.MsgObs {
			obsMS = append(obsMS, dt*1e3)
		}
	}
	return obsMS, total, nil
}
