package shard

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"ppatuner/internal/clock"
	"ppatuner/internal/eval"
	"ppatuner/internal/robust"
)

// ErrDeposed reports that a newer coordinator generation adopted the
// campaign checkpoint while this coordinator was running: its fenced write
// was rejected, so it must stop coordinating — the standby that deposed it
// owns the campaign now. The rejected write was never applied; the only
// state this coordinator loses is wall-clock time.
var ErrDeposed = errors.New("shard: coordinator deposed by a newer generation")

// Options configures a Coordinator.
type Options struct {
	// Campaign defines the work: scenario, seeds, spaces, methods, and —
	// when set — the CampaignCheckpoint results merge into (nil keeps an
	// in-memory one, useful in tests). Campaign.Workers and Campaign.Opts
	// are ignored: execution happens in the worker processes, under their
	// own RunOpts.
	Campaign *eval.Campaign
	// LeaseTTL is how long a grant lives without a heartbeat renewal
	// (default 30s). A worker that goes silent for a full TTL loses the
	// unit to the park-and-requeue path.
	LeaseTTL time.Duration
	// RequeueDelay holds a breaker-parked unit out of the grant queue after
	// its worker reported an open breaker (default LeaseTTL/4), so a
	// worker-side outage isn't replayed against the next worker instantly.
	RequeueDelay time.Duration
	// Clock paces lease deadlines; defaults to the wall clock. Tests install
	// a clock.Fake so every expiry scenario resolves in microseconds.
	Clock clock.Clock
	// Log, when non-nil, receives every lease transition (granted, expired,
	// reclaimed, zombie rejected, merged) as a structured KindLease event.
	Log *robust.FailureLog
	// AdoptLeases re-arms the checkpoint's persisted lease records as
	// active leases (recorded epoch and holder, fresh TTL) instead of
	// queueing those units for an immediate re-grant — standby takeover.
	// The worker holding the unit either reconnects (its hello re-attaches
	// it and its result completes the unit under the re-armed epoch) or
	// stays gone (the TTL expires and the unit requeues as usual). The
	// default, false, is the boot-resume behaviour: only the epoch
	// high-water marks are restored and every incomplete unit queues.
	AdoptLeases bool
}

func (o *Options) setDefaults() {
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = 30 * time.Second
	}
	if o.RequeueDelay <= 0 {
		o.RequeueDelay = o.LeaseTTL / 4
	}
	if o.Clock == nil {
		o.Clock = clock.Real()
	}
}

// workerState is the coordinator's view of one connected worker.
type workerState struct {
	conn  Conn
	id    string
	key   string // leased unit key; "" when idle
	alive bool
	hello bool
}

// event is one item on the coordinator's single event stream: a message
// from a worker, or (err != nil) its connection dying.
type event struct {
	conn Conn
	msg  Msg
	err  error
}

// Coordinator runs a campaign by leasing its units to worker processes and
// merging their streamed progress into the single campaign checkpoint. One
// event-loop goroutine owns every piece of state; per-connection reader
// goroutines only ferry messages onto the loop's channel.
//
// The merge rules make the outcome schedule-independent:
//
//   - observations are epoch-agnostic: even a stale lease's observations
//     are merged (deduplicated by pool index — per-unit determinism makes
//     re-derived values identical), so every reclaim round strictly grows
//     the unit's replay prefix;
//   - a result is accepted iff its epoch equals the unit's last-granted
//     epoch and the unit is not already done. A late result from an
//     expired-but-never-superseded lease is still the truth; one from a
//     superseded lease is a zombie and is discarded.
type Coordinator struct {
	opt    Options
	ck     *robust.CampaignCheckpoint
	ledger *Ledger
	// gen is the checkpoint generation this coordinator writes under
	// (zero when the checkpoint was never adopted); welcomes carry it.
	gen uint64

	units    []eval.Unit
	keys     []string
	specs    []eval.UnitSpec
	idxByKey map[string]int

	results   []eval.UnitResult
	done      []bool
	remaining int

	queue     []int
	notBefore map[int]time.Time
	workers   []*workerState
}

// New builds a coordinator for the campaign.
func New(opt Options) (*Coordinator, error) {
	if opt.Campaign == nil || opt.Campaign.Scenario == nil {
		return nil, fmt.Errorf("shard: coordinator has no campaign scenario")
	}
	if len(opt.Campaign.Seeds) == 0 {
		return nil, fmt.Errorf("shard: coordinator campaign has no seeds")
	}
	opt.setDefaults()
	co := &Coordinator{
		opt:       opt,
		ck:        opt.Campaign.Checkpoint,
		ledger:    NewLedger(),
		idxByKey:  map[string]int{},
		notBefore: map[int]time.Time{},
	}
	if co.ck == nil {
		co.ck = robust.NewCampaignCheckpoint("")
	}
	co.gen = co.ck.Generation()
	c := opt.Campaign
	co.units = c.Units()
	co.results = make([]eval.UnitResult, len(co.units))
	co.done = make([]bool, len(co.units))
	leases := co.ck.LeaseRecords()
	now := opt.Clock.Now()
	for i, u := range co.units {
		key := c.UnitKey(u)
		co.keys = append(co.keys, key)
		co.specs = append(co.specs, c.Spec(u))
		co.idxByKey[key] = i
		if cell, ok := co.ck.Done(key); ok {
			co.results[i] = eval.UnitResult{HV: cell.HV, ADRS: cell.ADRS, Runs: cell.Runs}
			co.done[i] = true
			continue
		}
		co.remaining++
		if lr, held := leases[key]; opt.AdoptLeases && held && lr.Holder != "" {
			// Takeover: the unit is out with a worker that may still be
			// computing. Re-arm its lease instead of queueing a re-grant;
			// expiry requeues it if the worker never resurfaces.
			co.ledger.RestoreActive(key, lr.Epoch, lr.Holder, now, opt.LeaseTTL)
			co.logLease("lease adopted: %s epoch %d held by %s (TTL re-armed)", key, lr.Epoch, lr.Holder)
			continue
		}
		co.queue = append(co.queue, i)
	}
	// Epoch high-water marks restore for every recorded key — including
	// units of other campaigns sharing the checkpoint file — so re-grants
	// always advance past anything ever granted.
	for key, lr := range leases {
		co.ledger.Restore(key, lr.Epoch)
	}
	return co, nil
}

// Stats returns the lease-machinery counters. Read it after Run returns.
func (co *Coordinator) Stats() Stats { return co.ledger.Stats() }

// Run drives the campaign to completion: workers arriving on conns are
// registered (each must lead with a hello), units are leased out, progress
// is merged, and the assembled table is returned once every unit is done.
// The first hard unit failure aborts deterministically; breaker-parked
// failures, lease expiries and worker deaths requeue instead. Workers still
// connected at the end are sent a shutdown message, unless the coordinator
// was deposed: then their connections only close, so reconnecting workers
// move on to the standby that deposed it. A closed conns channel
// stops registration but not the campaign. Once every unit is done, Run
// retires a never-adopted checkpoint, folding its journal into the file; the
// owner of an adopted one retires it (robust.CampaignCheckpoint.Retire).
func (co *Coordinator) Run(ctx context.Context, conns <-chan Conn) (_ *eval.Table, err error) {
	events := make(chan event, 64)
	// readersDone releases every per-connection reader goroutine when Run
	// returns: a reader parked on an events send would otherwise leak once
	// the loop stops draining, and shutdownWorkers closes the conns so no
	// reader stays parked in Recv either.
	readersDone := make(chan struct{})
	defer close(readersDone)
	defer func() { co.shutdownWorkers(!errors.Is(err, ErrDeposed)) }()

	var alarmCancel context.CancelFunc
	var alarmAt time.Time
	alarmCh := make(chan struct{}, 1)
	defer func() {
		if alarmCancel != nil {
			alarmCancel()
		}
	}()

	for co.remaining > 0 {
		now := co.opt.Clock.Now()
		if err := co.expire(now); err != nil {
			return nil, co.asDeposed(err)
		}
		if err := co.assign(now); err != nil {
			return nil, co.asDeposed(err)
		}
		if co.remaining == 0 {
			break
		}
		// Arm the expiry alarm for the next decision point: the earliest
		// active-lease deadline, or — when an idle worker is waiting on a
		// requeue-delayed unit — the earliest notBefore. No wake target
		// means the next event must come from a worker; sleep on the
		// channels alone.
		if at, ok := co.nextWake(); ok && (alarmCancel == nil || !at.Equal(alarmAt)) {
			if alarmCancel != nil {
				alarmCancel()
			}
			alarmCancel = co.armAlarm(ctx, at.Sub(now), alarmCh)
			alarmAt = at
		} else if !ok && alarmCancel != nil {
			alarmCancel()
			alarmCancel = nil
		}

		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-alarmCh:
			// Expiries are processed at the top of the loop.
			if alarmCancel != nil {
				alarmCancel()
				alarmCancel = nil
			}
		case c, ok := <-conns:
			if !ok {
				conns = nil
				continue
			}
			w := &workerState{conn: c, alive: true}
			co.workers = append(co.workers, w)
			go func(c Conn) {
				for {
					m, err := c.Recv()
					select {
					case events <- event{conn: c, msg: m, err: err}:
					case <-readersDone:
						return
					}
					if err != nil {
						return
					}
				}
			}(c)
		case ev := <-events:
			if err := co.handle(ev); err != nil {
				return nil, co.asDeposed(err)
			}
		}
	}
	if co.gen == 0 {
		if err := co.ck.Retire(); err != nil {
			return nil, err
		}
	}
	return co.opt.Campaign.Assemble(co.results), nil
}

// armAlarm starts a cancellable goroutine that signals ch after d on the
// coordinator clock and returns its cancel function.
func (co *Coordinator) armAlarm(ctx context.Context, d time.Duration, ch chan<- struct{}) context.CancelFunc {
	actx, cancel := context.WithCancel(ctx)
	go func() {
		if co.opt.Clock.Sleep(actx, d) == nil {
			select {
			case ch <- struct{}{}:
			default:
			}
		}
	}()
	return cancel
}

// nextWake picks the earliest instant at which the loop must act without a
// worker event arriving.
func (co *Coordinator) nextWake() (time.Time, bool) {
	at, ok := co.ledger.NextDeadline()
	if co.idleWorker() != nil {
		for _, idx := range co.queue {
			nb, delayed := co.notBefore[idx]
			if !delayed {
				continue
			}
			if !ok || nb.Before(at) {
				at, ok = nb, true
			}
		}
	}
	return at, ok
}

// expire reclaims every lease whose deadline passed, through the
// park-and-requeue path.
func (co *Coordinator) expire(now time.Time) error {
	for _, key := range co.ledger.Expired(now) {
		co.ledger.Reclaim(key)
		if err := co.requeue(key, now, 0); err != nil {
			return err
		}
		co.logLease("lease expired; unit %s parked and requeued", key)
	}
	return nil
}

// requeue parks key and returns it to the grant queue, optionally not
// before now+delay. The holding worker, if any, stays marked busy: a silent
// worker is presumed wedged until it reports or its connection dies, so it
// is never double-booked.
func (co *Coordinator) requeue(key string, now time.Time, delay time.Duration) error {
	idx, ok := co.idxByKey[key]
	if !ok || co.done[idx] {
		return nil
	}
	if err := co.ck.Park(key); err != nil {
		return err
	}
	for _, q := range co.queue {
		if q == idx {
			return nil
		}
	}
	co.queue = append(co.queue, idx)
	sort.Ints(co.queue)
	if delay > 0 {
		co.notBefore[idx] = now.Add(delay)
	}
	return nil
}

// idleWorker returns a registered, alive, unleased worker (first-connected
// first, so grant order is deterministic given an arrival order).
func (co *Coordinator) idleWorker() *workerState {
	for _, w := range co.workers {
		if w.alive && w.hello && w.key == "" {
			return w
		}
	}
	return nil
}

// assign grants eligible queued units to idle workers.
func (co *Coordinator) assign(now time.Time) error {
	for {
		w := co.idleWorker()
		if w == nil {
			return nil
		}
		pos := -1
		for i, idx := range co.queue {
			if nb, delayed := co.notBefore[idx]; delayed && now.Before(nb) {
				continue
			}
			pos = i
			break
		}
		if pos < 0 {
			return nil
		}
		idx := co.queue[pos]
		co.queue = append(co.queue[:pos], co.queue[pos+1:]...)
		delete(co.notBefore, idx)
		if err := co.grant(w, idx, now); err != nil {
			return err
		}
	}
}

// grant leases unit idx to worker w: epoch from the ledger, lease record
// and start state into the checkpoint, grant message (with the replay
// prefix) onto the wire.
func (co *Coordinator) grant(w *workerState, idx int, now time.Time) error {
	key := co.keys[idx]
	epoch := co.ledger.Grant(key, w.id, now, co.opt.LeaseTTL)
	if err := co.ck.Lease(key, epoch, w.id); err != nil {
		return err
	}
	if err := co.ck.Unpark(key); err != nil {
		return err
	}
	state, _ := co.ck.PartialRandState(key)
	if state == nil {
		var err error
		state, err = eval.UnitStartState(co.specs[idx])
		if err != nil {
			return err
		}
		if err := co.ck.StartCell(key, state); err != nil {
			return err
		}
	}
	w.key = key
	co.logLease("lease granted: %s epoch %d to %s", key, epoch, w.id)
	err := w.conn.Send(Msg{
		Type:        MsgGrant,
		Key:         key,
		Epoch:       epoch,
		Unit:        &co.specs[idx],
		LeaseMillis: co.opt.LeaseTTL.Milliseconds(),
		RandState:   state,
		Replay:      co.ck.PartialObservations(key),
	})
	if err != nil {
		// The reader goroutine will deliver the death event; reclaim now so
		// the unit doesn't wait out a full TTL on a connection known dead.
		return co.workerLost(w, co.opt.Clock.Now())
	}
	return nil
}

// handle processes one worker event on the loop goroutine.
func (co *Coordinator) handle(ev event) error {
	w := co.workerFor(ev.conn)
	if w == nil {
		return nil
	}
	now := co.opt.Clock.Now()
	if ev.err != nil {
		return co.workerLost(w, now)
	}
	msg := ev.msg
	switch msg.Type {
	case MsgHello:
		w.hello = true
		w.id = msg.Worker
		if w.id == "" {
			w.id = fmt.Sprintf("worker-%d", co.workerIndex(w))
		}
		// A reconnecting worker names the lease it believes it holds. When
		// the ledger agrees — same epoch, same holder, still active — the
		// worker re-attaches and keeps computing; the unit is never
		// double-granted. Any disagreement (expired and re-granted, or a
		// different holder) is ignored: the worker's eventual result is
		// rejected as a zombie and it idles back into the grant pool.
		if msg.Key != "" {
			if epoch, holder, ok := co.ledger.Current(msg.Key); ok && epoch == msg.Epoch && holder == w.id {
				w.key = msg.Key
				co.ledger.Renew(msg.Key, msg.Epoch, now, co.opt.LeaseTTL)
				co.logLease("worker %s re-attached to %s epoch %d", w.id, msg.Key, epoch)
			} else {
				co.logLease("re-hello from %s for %s epoch %d ignored (lease not current)", w.id, msg.Key, msg.Epoch)
			}
		}
		if err := w.conn.Send(Msg{Type: MsgWelcome, Generation: co.gen}); err != nil {
			return co.workerLost(w, now)
		}
	case MsgObs:
		idx, ok := co.idxByKey[msg.Key]
		if !ok || msg.Obs == nil {
			return nil
		}
		if !co.done[idx] {
			if msg.Epoch != co.ledger.LastEpoch(msg.Key) {
				co.ledger.CountZombieObs()
			}
			if err := co.ck.AddPartialObservation(msg.Key, *msg.Obs); err != nil {
				return fmt.Errorf("shard: merging observation from %s: %w", w.id, err)
			}
		}
		// Acknowledge even observations for already-done units: the worker
		// only needs to know it can drop the retransmit buffer entry.
		if err := w.conn.Send(Msg{Type: MsgObsAck, Key: msg.Key, Index: msg.Obs.Index}); err != nil {
			return co.workerLost(w, now)
		}
	case MsgHeartbeat:
		co.ledger.Renew(msg.Key, msg.Epoch, now, co.opt.LeaseTTL)
	case MsgResult:
		if err := co.mergeResult(w, msg); err != nil {
			return err
		}
		// Accepted, duplicate and zombie results are acknowledged alike:
		// in every case the worker is done retransmitting this unit.
		if err := w.conn.Send(Msg{Type: MsgResultAck, Key: msg.Key, Epoch: msg.Epoch}); err != nil {
			return co.workerLost(w, now)
		}
	case MsgFail:
		return co.unitFailed(w, msg, now)
	}
	return nil
}

// mergeResult applies the late-result rule and completes the unit when the
// result is current.
func (co *Coordinator) mergeResult(w *workerState, msg Msg) error {
	if w.key == msg.Key {
		w.key = ""
	}
	idx, ok := co.idxByKey[msg.Key]
	if !ok || msg.Result == nil {
		return nil
	}
	if co.done[idx] {
		co.ledger.CountDuplicate()
		co.logLease("duplicate result discarded: %s epoch %d from %s", msg.Key, msg.Epoch, w.id)
		return nil
	}
	if msg.Epoch != co.ledger.LastEpoch(msg.Key) {
		co.ledger.CountZombieResult()
		co.logLease("zombie result rejected: %s epoch %d from %s (current %d)", msg.Key, msg.Epoch, w.id, co.ledger.LastEpoch(msg.Key))
		return nil
	}
	res := *msg.Result
	co.results[idx] = res
	co.done[idx] = true
	co.remaining--
	co.ledger.Release(msg.Key)
	co.dropFromQueue(idx)
	if err := co.ck.Complete(msg.Key, robust.CampaignCell{HV: res.HV, ADRS: res.ADRS, Runs: res.Runs}); err != nil {
		return err
	}
	co.logLease("result merged: %s epoch %d from %s", msg.Key, msg.Epoch, w.id)
	return nil
}

// unitFailed handles a worker's fail report: breaker refusals park and
// requeue (with the requeue delay), anything else aborts the campaign.
func (co *Coordinator) unitFailed(w *workerState, msg Msg, now time.Time) error {
	if w.key == msg.Key {
		w.key = ""
	}
	idx, ok := co.idxByKey[msg.Key]
	if !ok || co.done[idx] {
		return nil
	}
	if !msg.Parked {
		return fmt.Errorf("shard: unit %s failed on %s: %s", msg.Key, w.id, msg.Error)
	}
	if msg.Epoch == co.ledger.LastEpoch(msg.Key) {
		co.ledger.Release(msg.Key)
	}
	if err := co.requeue(msg.Key, now, co.opt.RequeueDelay); err != nil {
		return err
	}
	co.logLease("unit %s parked by %s (breaker open); requeued", msg.Key, w.id)
	return nil
}

// workerLost marks a worker dead and reclaims its lease immediately — the
// connection can deliver no result, so waiting out the TTL buys nothing.
func (co *Coordinator) workerLost(w *workerState, now time.Time) error {
	if !w.alive {
		return nil
	}
	w.alive = false
	if w.key == "" {
		return nil
	}
	key := w.key
	w.key = ""
	if _, holder, ok := co.ledger.Current(key); ok && holder == w.id {
		co.ledger.ReclaimLost(key)
		if err := co.requeue(key, now, 0); err != nil {
			return err
		}
		co.logLease("worker %s lost; unit %s parked and requeued", w.id, key)
	}
	return nil
}

// dropFromQueue removes idx from the pending queue (a late-but-current
// result can complete a unit that expiry already requeued).
func (co *Coordinator) dropFromQueue(idx int) {
	for i, q := range co.queue {
		if q == idx {
			co.queue = append(co.queue[:i], co.queue[i+1:]...)
			break
		}
	}
	delete(co.notBefore, idx)
}

func (co *Coordinator) workerFor(c Conn) *workerState {
	for _, w := range co.workers {
		if w.conn == c {
			return w
		}
	}
	return nil
}

func (co *Coordinator) workerIndex(w *workerState) int {
	for i, ws := range co.workers {
		if ws == w {
			return i
		}
	}
	return -1
}

// shutdownWorkers broadcasts shutdown to every live worker when notify is
// set, then closes every connection: the close unblocks the reader
// goroutines still parked in Recv, so Run leaves no goroutine behind even
// when a worker never acknowledges the shutdown.
func (co *Coordinator) shutdownWorkers(notify bool) {
	for _, w := range co.workers {
		if notify && w.alive {
			_ = w.conn.Send(Msg{Type: MsgShutdown})
		}
	}
	for _, w := range co.workers {
		_ = w.conn.Close()
	}
}

// asDeposed recognises a fenced checkpoint write — a standby adopted the
// campaign out from under this coordinator — and labels the abort as a
// deposition, logging it as a lease event. Everything else passes through.
func (co *Coordinator) asDeposed(err error) error {
	if !errors.Is(err, robust.ErrFenced) {
		return err
	}
	co.logLease("deposed: fenced checkpoint write rejected, standing down: %v", err)
	return fmt.Errorf("%w: %v", ErrDeposed, err)
}

// logLease records one lease-machinery transition in the failure log.
func (co *Coordinator) logLease(format string, args ...any) {
	co.opt.Log.Record(robust.Event{
		Index:   -1,
		Attempt: -1,
		Kind:    robust.KindLease,
		Err:     fmt.Sprintf(format, args...),
	})
}
