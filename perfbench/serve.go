package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"time"

	"ppatuner/internal/eval"
	"ppatuner/internal/robust"
	"ppatuner/internal/serve"
)

// serveDriver runs rounds of closed-loop HTTP clients against a fresh
// serve.Server on loopback TCP. Each round's server boots on a manifest that
// already holds pastJobs finished jobs, as a long-running server's does, so
// every manifest rewrite costs what it costs at that size while the rounds
// stay identical.
type serveDriver struct {
	scenarioBase
	jobsPerClient int
	pastJobs      int

	warm     []robust.JobRecord // the warm-up jobs' records, set by setup
	template string             // manifest of pastJobs finished jobs, set by prepare
}

// serveMethods are the tuners of every job: cheap ones, so the service
// layers carry the load.
var serveMethods = []string{string(eval.TCAD19), string(eval.MLCAD19), string(eval.DAC19)}

func (d *serveDriver) executors() int { return d.cfg.conc }

// boot starts a server over a fresh state directory holding a copy of the
// manifest file manifest, if one is given; stop drains it.
func (d *serveDriver) boot(tag, manifest string) (url, stateDir string, stop func(), err error) {
	stateDir, err = freshPath(d.cfg.dir, "serve-"+tag)
	if err != nil {
		return "", "", nil, err
	}
	if err := os.MkdirAll(stateDir, 0o755); err != nil {
		return "", "", nil, err
	}
	if manifest != "" {
		if err := copyFile(manifest, robust.JobManifestPath(stateDir)); err != nil {
			return "", "", nil, err
		}
	}
	srv, err := serve.New(serve.Config{
		StateDir: stateDir, MaxActive: d.cfg.conc, UnitWorkers: 1,
		Resolve: func(string) (*eval.Scenario, error) { return d.sc, nil },
	})
	if err != nil {
		return "", "", nil, err
	}
	if err := srv.Start(); err != nil {
		return "", "", nil, err
	}
	hs := httptest.NewServer(srv.Handler())
	return hs.URL, stateDir, func() { srv.Shutdown(); hs.Close() }, nil
}

// setup loads the scenario, boots a server and runs one warm-up job per
// objective space.
func (d *serveDriver) setup() error {
	if err := d.scenarioBase.setup(); err != nil {
		return err
	}
	return d.warmUp()
}

// warmUp runs one job per objective space on a fresh server and keeps their
// manifest records.
func (d *serveDriver) warmUp() error {
	url, stateDir, stop, err := d.boot("warmup", "")
	if err != nil {
		return err
	}
	c := newJobClient(url, nil, 0)
	var ids []string
	for n := range eval.Spaces() {
		front, err := c.run(jobRequest("warmup", n, d.cfg.seed))
		if err != nil {
			c.http.CloseIdleConnections()
			stop()
			return err
		}
		ids = append(ids, front.Job)
	}
	c.http.CloseIdleConnections()
	stop()
	m, err := robust.LoadJobManifest(robust.JobManifestPath(stateDir))
	if err != nil {
		return err
	}
	d.warm = d.warm[:0]
	for _, id := range ids {
		rec, ok := m.Get(id)
		if !ok {
			return fmt.Errorf("warm-up job %s missing from the manifest", id)
		}
		d.warm = append(d.warm, rec)
	}
	return nil
}

// prepare writes the manifest every round boots on: pastJobs finished jobs,
// copies of the warm-up jobs' records taking the objective spaces in turn,
// split between the clients.
func (d *serveDriver) prepare() error {
	path, err := freshPath(d.cfg.dir, "serve-template.json")
	if err != nil {
		return err
	}
	m := robust.NewJobManifest(path)
	for i := 0; i < d.pastJobs; i++ {
		id, err := m.NextID()
		if err != nil {
			return err
		}
		rec := d.warm[i%len(d.warm)]
		rec.ID, rec.Client, rec.Checkpoint = id, fmt.Sprintf("c%d", i%d.cfg.conc), "job-"+id+".ckpt.json"
		if err := m.Put(rec); err != nil {
			return err
		}
	}
	d.template = path
	return nil
}

func copyFile(src, dst string) error {
	data, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	return os.WriteFile(dst, data, 0o644)
}

func jobRequest(client string, n int, seed int64) serve.JobRequest {
	return serve.JobRequest{
		Client: client, Scenario: "table3",
		Spaces:  []string{eval.Spaces()[n%3].Name},
		Methods: serveMethods,
		Seeds:   fmt.Sprintf("%d,", seed),
	}
}

// jobClient is one closed-loop tenant with a single connection.
type jobClient struct {
	url  string
	http *http.Client
	tr   *Tracer
	root int64
	ops  *opLog // traced rounds only

	// Samples of the jobs this client ran.
	submitMS, pollMS, frontMS         []float64
	queueWait, runS, firstUnit, items []float64
}

func newJobClient(url string, tr *Tracer, root int64) *jobClient {
	return &jobClient{url: url, tr: tr, root: root, http: &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
	}}
}

// call issues one request, decodes a JSON reply and records its span.
func (c *jobClient) call(name, key string, parent int64, method, path string, body, out any, want int) (float64, error) {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, c.url+path, rd)
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, fmt.Errorf("%s %s: %w", method, path, err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	end := time.Now()
	if err != nil {
		return 0, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode != want {
		return 0, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, data)
	}
	c.tr.Record(name, key, 0, parent, t0, end)
	return end.Sub(t0).Seconds() * 1e3, json.Unmarshal(data, out)
}

// run submits one job, follows it by long-poll to a terminal status and
// fetches its front.
func (c *jobClient) run(req serve.JobRequest) (serve.FrontDoc, error) {
	var front serve.FrontDoc
	t0 := time.Now()
	span := c.tr.Begin("job", "", c.root)
	defer c.tr.End(span)
	var sub serve.SubmitResponse
	ms, err := c.call("submit", "", span, http.MethodPost, "/jobs", req, &sub, http.StatusAccepted)
	if err != nil {
		return front, err
	}
	c.submitMS = append(c.submitMS, ms)
	c.ops.add(manifestOp{job: sub.ID, kind: serve.StatusQueued})
	var running, firstUnit time.Time
	status := ""
	for since := 0; !serve.TerminalStatus(status); {
		var page serve.EventPage
		ms, err := c.call("poll", sub.ID, span, http.MethodGet, fmt.Sprintf("/jobs/%s/events?poll=1&since=%d", sub.ID, since), nil, &page, http.StatusOK)
		if err != nil {
			return front, err
		}
		c.pollMS = append(c.pollMS, ms)
		now := time.Now()
		for _, e := range page.Events {
			switch e.Type {
			case "status":
				status = e.Status
				if status == serve.StatusRunning && running.IsZero() {
					running = now
				}
				if status != serve.StatusQueued {
					c.ops.add(manifestOp{job: sub.ID, kind: status})
				}
			case "unit":
				if firstUnit.IsZero() {
					firstUnit = now
				}
				c.ops.add(manifestOp{job: sub.ID, kind: "unit", unit: e.Unit})
			}
		}
		since = page.Next
	}
	end := time.Now()
	if status != serve.StatusDone {
		return front, fmt.Errorf("job %s ended %s", sub.ID, status)
	}
	if ms, err = c.call("front", sub.ID, span, http.MethodGet, "/jobs/"+sub.ID+"/front", nil, &front, http.StatusOK); err != nil {
		return front, err
	}
	c.frontMS = append(c.frontMS, ms)
	c.items = append(c.items, time.Since(t0).Seconds())
	if !running.IsZero() {
		c.queueWait = append(c.queueWait, running.Sub(t0).Seconds())
		c.runS = append(c.runS, end.Sub(running).Seconds())
	}
	if !firstUnit.IsZero() {
		c.firstUnit = append(c.firstUnit, firstUnit.Sub(t0).Seconds())
	}
	return front, nil
}

// checkFront verifies a finished one-space job's front document.
func checkFront(doc serve.FrontDoc, space string) error {
	if doc.Status != serve.StatusDone || len(doc.Spaces) != 1 || doc.Spaces[0].Space != space || len(doc.Spaces[0].Golden) == 0 {
		return fmt.Errorf("job %s: malformed front document", doc.Job)
	}
	ms := doc.Spaces[0].Methods
	if len(ms) != len(serveMethods) {
		return fmt.Errorf("job %s: %d methods, want %d", doc.Job, len(ms), len(serveMethods))
	}
	for _, m := range ms {
		if len(m.Seeds) != 1 || len(m.Seeds[0].Front) == 0 || m.Seeds[0].HV < 0 || m.Seeds[0].HV > 1 || m.Seeds[0].Runs <= 0 {
			return fmt.Errorf("job %s: method %s has no plausible result", doc.Job, m.Method)
		}
	}
	return nil
}

func (d *serveDriver) round(r int, tr *Tracer) (*roundResult, error) {
	url, stateDir, stop, err := d.boot(fmt.Sprint(r), d.template)
	if err != nil {
		return nil, err
	}
	res := &roundResult{attempted: d.cfg.conc * d.jobsPerClient}
	root := tr.Begin("round", fmt.Sprint(r), 0)
	var ops *opLog
	if tr != nil {
		ops = &opLog{}
	}
	clients := make([]*jobClient, d.cfg.conc)
	fronts := make([][]serve.FrontDoc, d.cfg.conc)
	errs := make([]error, d.cfg.conc)
	var wg sync.WaitGroup
	for ci := range clients {
		clients[ci] = newJobClient(url, tr, root)
		clients[ci].ops = ops
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c := clients[ci]
			defer c.http.CloseIdleConnections()
			for n := 0; n < d.jobsPerClient; n++ {
				k := (r*d.cfg.conc+ci)*d.jobsPerClient + n
				req := jobRequest(fmt.Sprintf("c%d", ci), ci*d.jobsPerClient+n, d.cfg.seed+int64(k))
				doc, err := c.run(req)
				if err == nil {
					err = checkFront(doc, req.Spaces[0])
				}
				if err != nil {
					errs[ci] = err
					return
				}
				fronts[ci] = append(fronts[ci], doc)
			}
		}(ci)
	}
	wg.Wait()
	tr.End(root)
	stop()
	for _, err := range errs {
		if err != nil {
			res.failed = res.attempted
			for _, docs := range fronts {
				res.failed -= len(docs)
			}
			return res, err
		}
	}

	// Outputs: fronts keyed by (client, job number), job ids removed.
	byJob := map[string]serve.FrontDoc{}
	for ci, docs := range fronts {
		for n, doc := range docs {
			for _, m := range doc.Spaces[0].Methods {
				res.units++
				res.runs += m.Seeds[0].Runs
				res.hvErr += m.Seeds[0].HV
			}
			doc.Job = ""
			byJob[fmt.Sprintf("c%d/%03d", ci, n)] = doc
		}
	}
	if res.output, err = json.Marshal(byJob); err != nil {
		return res, err
	}
	manifest, err := os.Stat(robust.JobManifestPath(stateDir))
	if err != nil {
		return res, err
	}
	res.extra = map[string]float64{"serve.manifest_kb": float64(manifest.Size()) / 1024}
	if tr != nil {
		res.replay = func() (map[string]float64, map[string][]float64, error) {
			final, err := robust.LoadJobManifest(robust.JobManifestPath(stateDir))
			if err != nil {
				return nil, nil, err
			}
			path, err := freshPath(d.cfg.dir, fmt.Sprintf("round%d.replay.jobs.json", r))
			if err != nil {
				return nil, nil, err
			}
			if err := copyFile(d.template, path); err != nil {
				return nil, nil, err
			}
			writes, total, err := replayManifest(path, final, ops.ops)
			if err != nil {
				return nil, nil, fmt.Errorf("manifest replay: %w", err)
			}
			return map[string]float64{"serve.manifest_writes": float64(writes), "serve.manifest_write_s": total}, nil, nil
		}
	}
	res.samples = map[string][]float64{}
	for _, c := range clients {
		res.items = append(res.items, c.items...)
		for name, xs := range map[string][]float64{
			"serve.submit_ms": c.submitMS, "serve.poll_ms": c.pollMS, "serve.front_ms": c.frontMS,
			"serve.queue_wait_s": c.queueWait, "serve.run_s": c.runS, "serve.first_unit_s": c.firstUnit,
		} {
			res.samples[name] = append(res.samples[name], xs...)
		}
	}
	return res, nil
}

// manifestOp is a job-manifest write the server made, named by the event
// through which a client saw its effect: StatusQueued for the submit
// (NextID, Put), StatusRunning (SetStatus, SetGolden), "unit" (SetUnit) and
// StatusDone (SetStatus).
type manifestOp struct {
	job  string
	kind string
	unit *serve.UnitEvent
}

// opLog collects the manifest writes of one round in the order the clients
// saw them; a nil log records nothing.
type opLog struct {
	mu  sync.Mutex
	ops []manifestOp
}

func (l *opLog) add(op manifestOp) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ops = append(l.ops, op)
}

// replayManifest times the server's job-manifest writes, which have no hook:
// it applies one round's manifest calls, in the order the clients saw them
// and with the records the server persisted in final, to the manifest at
// path, a copy of the one the round's server booted on, which each call
// rewrites whole. It returns the number of writes and their total time in s.
func replayManifest(path string, final *robust.JobManifest, ops []manifestOp) (writes int, total float64, err error) {
	m, err := robust.LoadJobManifest(path)
	if err != nil {
		return 0, 0, err
	}
	for _, op := range ops {
		rec, ok := final.Get(op.job)
		if !ok {
			return 0, 0, fmt.Errorf("job %s missing from the manifest", op.job)
		}
		t0 := time.Now()
		switch op.kind {
		case serve.StatusQueued:
			if _, err = m.NextID(); err == nil {
				err = m.Put(robust.JobRecord{ID: rec.ID, Client: rec.Client, Status: serve.StatusQueued, Spec: rec.Spec, Checkpoint: rec.Checkpoint})
			}
			writes += 2
		case serve.StatusRunning:
			if err = m.SetStatus(rec.ID, serve.StatusRunning, ""); err == nil {
				err = m.SetGolden(rec.ID, rec.Golden)
			}
			writes += 2
		case "unit":
			key, ok := unitKey(rec, op.unit)
			if !ok {
				return 0, 0, fmt.Errorf("job %s: unit %+v missing from the manifest", op.job, op.unit)
			}
			err = m.SetUnit(rec.ID, key, rec.Units[key])
			writes++
		case serve.StatusDone:
			err = m.SetStatusAt(rec.ID, serve.StatusDone, "", rec.FinishedAtUnix)
			writes++
		default:
			return 0, 0, fmt.Errorf("job %s: unexpected status %s", op.job, op.kind)
		}
		if err != nil {
			return 0, 0, err
		}
		total += time.Since(t0).Seconds()
	}
	return writes, total, nil
}

// unitKey finds the manifest key of the unit a progress event reported.
func unitKey(rec robust.JobRecord, u *serve.UnitEvent) (string, bool) {
	if u == nil {
		return "", false
	}
	for key, ju := range rec.Units {
		if ju.Space == u.Space && ju.Method == u.Method && ju.Seed == u.Seed {
			return key, true
		}
	}
	return "", false
}
