package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"sync"

	"ppatuner/internal/core"
	"ppatuner/internal/eval"
	"ppatuner/internal/robust"
)

// Sentinel errors of the job API. A cancelled or drained campaign aborts
// with its job context's error instead; the runner classifies the outcome
// by the job's own state rather than by error identity, so a wrapped or
// transformed abort still parks/cancels correctly.
var (
	errBadRequest  = errors.New("serve: invalid job request")
	errRateLimited = errors.New("serve: submission rate limit exceeded")
	errStopped     = errors.New("serve: server is shutting down")
	errNotFound    = errors.New("serve: no such job")
)

// job is one submission's live scheduling state. The durable truth lives
// in the manifest; the live job carries what must not hit disk per check:
// the parsed plan, the event stream, and cancellation state.
type job struct {
	id     string
	client string
	req    JobRequest
	plan   *jobPlan
	log    *eventLog

	mu        sync.Mutex
	status    string
	cancelled bool
	cancel    context.CancelFunc
}

func (j *job) isCancelled() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.cancelled
}

func (j *job) currentStatus() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

func (j *job) setCancel(c context.CancelFunc) {
	j.mu.Lock()
	j.cancel = c
	j.mu.Unlock()
}

func (j *job) cancelFunc() context.CancelFunc {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.cancel
}

// checkpointName is the per-job campaign checkpoint file, relative to the
// state directory.
func checkpointName(id string) string { return "job-" + id + ckptSuffix }

// ckptSuffix ends every job checkpoint's file name; the checkpoint's
// sidecars extend it.
const ckptSuffix = ".ckpt.json"

// Submit validates, rate-limits, persists and enqueues one job. Errors
// wrap errBadRequest, errRateLimited or errStopped for transport mapping.
func (s *Server) Submit(req JobRequest) (SubmitResponse, error) {
	if s.stopping() {
		return SubmitResponse{}, errStopped
	}
	if req.Client == "" {
		req.Client = "anon"
	}
	p, err := s.plan(req)
	if err != nil {
		return SubmitResponse{}, fmt.Errorf("%w: %v", errBadRequest, err)
	}
	if !s.limiter.allow(req.Client) {
		return SubmitResponse{}, errRateLimited
	}
	id, err := s.manifest.NextID()
	if err != nil {
		return SubmitResponse{}, err
	}
	spec, err := json.Marshal(req)
	if err != nil {
		return SubmitResponse{}, err
	}
	rec := robust.JobRecord{
		ID: id, Client: req.Client, Status: StatusQueued,
		Spec: spec, Checkpoint: checkpointName(id),
	}
	if err := s.manifest.Put(rec); err != nil {
		return SubmitResponse{}, err
	}
	j := &job{id: id, client: req.Client, req: req, plan: p, log: newEventLog(), status: StatusQueued}
	j.log.append(Event{Type: "status", Job: id, Status: StatusQueued})
	s.enqueue(j)
	s.logf("serve: job %s queued by %s (%s, %d units)", id, req.Client, p.scenario, p.total())
	s.maybeStart()
	return SubmitResponse{ID: id, Status: StatusQueued}, nil
}

// Start requeues every non-terminal job the manifest carries (the
// restart/recovery path) and begins scheduling. Call once after New.
func (s *Server) Start() error {
	for _, rec := range s.manifest.Jobs() {
		if TerminalStatus(rec.Status) {
			continue
		}
		var req JobRequest
		if err := json.Unmarshal(rec.Spec, &req); err != nil {
			if serr := s.manifest.SetStatusAt(rec.ID, StatusFailed, "requeue: "+err.Error(), s.clk.Now().Unix()); serr != nil {
				return serr
			}
			continue
		}
		p, err := s.plan(req)
		if err != nil {
			if serr := s.manifest.SetStatusAt(rec.ID, StatusFailed, "requeue: "+err.Error(), s.clk.Now().Unix()); serr != nil {
				return serr
			}
			continue
		}
		if rec.Status != StatusQueued {
			if err := s.manifest.SetStatus(rec.ID, StatusQueued, ""); err != nil {
				return err
			}
		}
		j := &job{id: rec.ID, client: rec.Client, req: req, plan: p, log: newEventLog(), status: StatusQueued}
		j.log.append(Event{Type: "status", Job: rec.ID, Status: StatusQueued, Message: "requeued after restart"})
		s.enqueue(j)
		s.logf("serve: requeued job %s (%s, was %s)", rec.ID, p.scenario, rec.Status)
	}
	s.mu.Lock()
	s.started = true
	s.mu.Unlock()
	if s.cfg.Retain > 0 {
		s.wg.Add(1)
		go s.gcLoop()
	}
	s.maybeStart()
	return nil
}

// enqueue registers a live job and appends it to its client's queue.
func (s *Server) enqueue(j *job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.jobs[j.id] = j
	if _, ok := s.queues[j.client]; !ok {
		s.clients = append(s.clients, j.client)
	}
	s.queues[j.client] = append(s.queues[j.client], j)
}

// maybeStart fills free campaign slots, taking one queued job per client in
// round-robin order so no tenant's backlog starves another's first job.
func (s *Server) maybeStart() {
	if s.stopping() {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.started {
		return
	}
	for s.running < s.cfg.MaxActive {
		j := s.nextLocked()
		if j == nil {
			return
		}
		if j.isCancelled() {
			continue
		}
		s.running++
		s.wg.Add(1)
		go s.runJob(j)
	}
}

// nextLocked pops the next queued job in round-robin client order; callers
// hold s.mu.
func (s *Server) nextLocked() *job {
	n := len(s.clients)
	for off := 0; off < n; off++ {
		ci := (s.rr + off) % n
		q := s.queues[s.clients[ci]]
		if len(q) == 0 {
			continue
		}
		j := q[0]
		s.queues[s.clients[ci]] = q[1:]
		s.rr = (ci + 1) % n
		return j
	}
	return nil
}

// runJob executes one job's campaign and classifies the outcome. Spawned
// WaitGroup-joined from maybeStart.
func (s *Server) runJob(j *job) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		s.running--
		s.mu.Unlock()
		s.maybeStart()
	}()
	if s.stopping() {
		s.setStatus(j, StatusParked, "")
		return
	}
	if j.isCancelled() {
		s.setStatus(j, StatusCancelled, "")
		return
	}
	s.setStatus(j, StatusRunning, "")
	err := s.runCampaign(j)
	switch {
	case err == nil:
		s.setStatus(j, StatusDone, "")
	case j.isCancelled():
		s.setStatus(j, StatusCancelled, "")
	case s.stopping():
		// Drained: the campaign stopped at an evaluator call or unit
		// boundary with every paid-for observation checkpointed. The next
		// boot requeues the job and it resumes bit-identically.
		s.setStatus(j, StatusParked, "")
	default:
		s.setStatus(j, StatusFailed, err.Error())
	}
}

// runCampaign assembles and runs the job's campaign against its checkpoint.
func (s *Server) runCampaign(j *job) error {
	p := j.plan
	resolve := s.cfg.Resolve
	if resolve == nil {
		resolve = eval.StandardScenario
	}
	scn, err := resolve(p.scenario)
	if err != nil {
		return err
	}
	rec, ok := s.manifest.Get(j.id)
	if !ok {
		return fmt.Errorf("job %s missing from manifest", j.id)
	}
	if rec.Golden == nil {
		// Golden fronts are a pure function of (scenario, spaces):
		// computing them again after a crash writes identical bytes.
		golden := map[string][][]float64{}
		for _, sp := range p.spaces {
			golden[sp.Name] = eval.GoldenFront(scn, sp)
		}
		if err := s.manifest.SetGolden(j.id, golden); err != nil {
			return err
		}
	}
	ck, err := robust.LoadCampaignCheckpoint(filepath.Join(s.cfg.StateDir, rec.Checkpoint))
	if err != nil {
		return err
	}

	// Cancel and Shutdown both cancel the job's context. The campaign
	// watches it at each unit start (Gate), at each evaluation (innermost,
	// beneath the checkpoint cache, so the abort is never cached) and, in a
	// job with faults set, in the fault stack's resilient evaluator and
	// breaker pause, where a drain never charges a candidate's retry
	// budget.
	jobCtx, cancel := context.WithCancel(context.Background())
	defer cancel()
	j.setCancel(cancel)
	defer j.setCancel(nil)
	if j.isCancelled() || s.stopping() {
		// Cancel or Shutdown came before setCancel could hand them the
		// context.
		cancel()
	}
	stack, err := p.faults.Build(jobCtx, p.seeds[0], s.clk)
	if err != nil {
		return err
	}

	c := &eval.Campaign{
		Scenario: scn, Seeds: p.seeds, Spaces: p.spaces, Methods: p.methods,
		Workers: p.workers, Checkpoint: ck,
		Opts: eval.RunOpts{Wrap: stack.Wrap},
		Gate: func(eval.Unit) error { return jobCtx.Err() },
		WrapUnit: func(u eval.Unit, ev core.Evaluator) core.Evaluator {
			if s.wrapUnit != nil {
				ev = s.wrapUnit(u, ev)
			}
			return func(i int) ([]float64, error) {
				if err := jobCtx.Err(); err != nil {
					return nil, err
				}
				return ev(i)
			}
		},
	}
	c.OnUnit = func(u eval.Unit, res eval.UnitResult, out *eval.Outcome) error {
		sp := p.spaces[u.SpaceIdx]
		front := eval.OutcomeFront(scn, sp, out)
		ju := robust.JobUnit{
			Space: sp.Name, Method: string(u.Method), Seed: u.Seed,
			HV: res.HV, ADRS: res.ADRS, Runs: res.Runs, Front: front,
		}
		// Keyed by the job's requested scenario name (not the resolved
		// scenario's), so Front can address units without resolving.
		key := eval.UnitSpec{Scenario: p.scenario, Space: sp.Name, Method: u.Method, Seed: u.Seed}.Key()
		if err := s.manifest.SetUnit(j.id, key, ju); err != nil {
			return err
		}
		done := 0
		if r, ok := s.manifest.Get(j.id); ok {
			done = len(r.Units)
		}
		j.log.append(Event{
			Type: "unit", Job: j.id,
			Unit: &UnitEvent{Space: sp.Name, Method: string(u.Method), Seed: u.Seed,
				HV: res.HV, ADRS: res.ADRS, Runs: res.Runs, Front: front},
			Done: done, Total: p.total(),
		})
		return nil
	}
	_, err = c.Run()
	return err
}

// setStatus moves a job through its lifecycle: live state, manifest, event
// stream, server log — in that order, so a status a client observes is
// already durable.
func (s *Server) setStatus(j *job, status, errMsg string) {
	j.mu.Lock()
	j.status = status
	j.mu.Unlock()
	var finished int64
	if TerminalStatus(status) {
		// Stamped on the injected clock so the retention window ages
		// deterministically under test.
		finished = s.clk.Now().Unix()
	}
	if err := s.manifest.SetStatusAt(j.id, status, errMsg, finished); err != nil {
		s.logf("serve: job %s: persist status %s: %v", j.id, status, err)
	}
	j.log.append(Event{Type: "status", Job: j.id, Status: status, Message: errMsg})
	if errMsg != "" {
		s.logf("serve: job %s -> %s (%s)", j.id, status, errMsg)
	} else {
		s.logf("serve: job %s -> %s", j.id, status)
	}
}

// Cancel requests cancellation: queued jobs cancel immediately, running
// jobs at their next evaluator call or breaker pause. Terminal jobs are a
// no-op.
func (s *Server) Cancel(id string) (JobView, error) {
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		if v, ok := s.View(id); ok {
			return v, nil
		}
		return JobView{}, errNotFound
	}
	j.mu.Lock()
	status := j.status
	var cancel context.CancelFunc
	if !TerminalStatus(status) {
		j.cancelled = true
		cancel = j.cancel
	}
	j.mu.Unlock()
	if status == StatusQueued {
		s.setStatus(j, StatusCancelled, "")
	}
	if cancel != nil {
		cancel()
	}
	v, _ := s.View(id)
	return v, nil
}

// View assembles one job's external state from the manifest.
func (s *Server) View(id string) (JobView, bool) {
	rec, ok := s.manifest.Get(id)
	if !ok {
		return JobView{}, false
	}
	return s.viewOf(rec), true
}

// Views lists all jobs, optionally filtered by client, in job-ID order.
func (s *Server) Views(client string) JobListDoc {
	doc := JobListDoc{Jobs: []JobView{}}
	for _, rec := range s.manifest.Jobs() {
		if client != "" && rec.Client != client {
			continue
		}
		doc.Jobs = append(doc.Jobs, s.viewOf(rec))
	}
	return doc
}

func (s *Server) viewOf(rec robust.JobRecord) JobView {
	v := JobView{
		ID: rec.ID, Client: rec.Client, Status: rec.Status,
		UnitsDone: len(rec.Units), Error: rec.Error,
	}
	var req JobRequest
	if err := json.Unmarshal(rec.Spec, &req); err != nil {
		return v
	}
	v.Scenario = canonicalScenario(req.Scenario)
	v.GP = req.GP
	v.Outage = req.Outage
	v.Breaker = req.Breaker
	if p, err := s.axes(req); err == nil {
		v.Spaces = p.spaceNames()
		v.Methods = p.methodNames()
		v.Seeds = p.seeds
		v.UnitsTotal = p.total()
	}
	s.mu.Lock()
	if j := s.jobs[rec.ID]; j != nil && !TerminalStatus(rec.Status) {
		v.CancelRequested = j.isCancelled()
	}
	s.mu.Unlock()
	return v
}

// Front assembles the job's Pareto-front document from the manifest: the
// golden front per space plus every completed unit's learned front, in the
// job's requested (space, method, seed) order.
func (s *Server) Front(id string) (FrontDoc, bool) {
	rec, ok := s.manifest.Get(id)
	if !ok {
		return FrontDoc{}, false
	}
	doc := FrontDoc{Job: rec.ID, Status: rec.Status, Spaces: []SpaceFront{}}
	var req JobRequest
	if err := json.Unmarshal(rec.Spec, &req); err != nil {
		return doc, true
	}
	p, err := s.axes(req)
	if err != nil {
		return doc, true
	}
	doc.Scenario = p.scenario
	for _, sp := range p.spaces {
		sf := SpaceFront{Space: sp.Name, Golden: rec.Golden[sp.Name]}
		for _, m := range p.methods {
			mf := MethodFront{Method: string(m)}
			for _, seed := range p.seeds {
				key := eval.UnitSpec{Scenario: p.scenario, Space: sp.Name, Method: m, Seed: seed}.Key()
				if u, ok := rec.Units[key]; ok {
					mf.Seeds = append(mf.Seeds, SeedFront{
						Seed: seed, HV: u.HV, ADRS: u.ADRS, Runs: u.Runs, Front: u.Front,
					})
				}
			}
			sf.Methods = append(sf.Methods, mf)
		}
		doc.Spaces = append(doc.Spaces, sf)
	}
	return doc, true
}
