// Package serve is the tuning-as-a-service layer: a long-running HTTP job
// server in front of the campaign engine. Clients submit tuning jobs (a
// scenario, objective spaces, a method set, seeds, optional
// chaos/outage flags) over a JSON API; the server runs each job as an
// eval.Campaign on a bounded pool of campaign slots, streams per-unit
// progress and Pareto-front updates over SSE (with a long-poll fallback),
// and persists all job state through internal/robust — a JobManifest for
// the job table plus one CampaignCheckpoint per job for resume state.
//
// The durability contract is inherited from the campaign layer and held to
// the same standard CI holds the CLIs to: the server process can be
// SIGKILLed at any instant and restarted against the same state directory,
// and every interrupted job resumes to results — and final checkpoint
// bytes — identical to an uninterrupted run. Graceful shutdown (Shutdown)
// additionally drains campaigns at the next evaluator call, sends every
// in-flight event stream a terminal event, and parks interrupted jobs so
// the next boot requeues them.
//
// Multi-tenancy: each client has its own FIFO queue; campaign slots are
// granted round-robin across clients, so one client's backlog cannot
// starve another's first job. Submission is token-bucket rate limited per
// client.
package serve

import (
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"ppatuner/internal/clock"
	"ppatuner/internal/core"
	"ppatuner/internal/eval"
	"ppatuner/internal/robust"
)

// Job lifecycle statuses. Transitions:
//
//	queued -> running -> done | failed | cancelled
//	queued -> cancelled
//	running -> parked            (graceful shutdown drained the campaign)
//	parked -> queued             (next boot requeues it)
//	queued/running (at SIGKILL) -> queued (next boot)
const (
	StatusQueued    = "queued"
	StatusRunning   = "running"
	StatusParked    = "parked"
	StatusDone      = "done"
	StatusFailed    = "failed"
	StatusCancelled = "cancelled"
)

// TerminalStatus reports whether a job in this status will never run again.
func TerminalStatus(status string) bool {
	return status == StatusDone || status == StatusFailed || status == StatusCancelled
}

// Config parameterises a Server.
type Config struct {
	// StateDir is the durable state directory: the job manifest plus one
	// campaign checkpoint per job live there. Required; New creates it if
	// it is missing.
	StateDir string
	// MaxActive bounds how many campaigns run concurrently (default 1).
	// Each campaign additionally runs UnitWorkers units in parallel.
	MaxActive int
	// UnitWorkers is the default per-campaign unit concurrency applied to
	// jobs that do not request their own (default 1). Purely a wall-clock
	// knob: results are bit-identical for any value.
	UnitWorkers int
	// Rate and Burst configure the per-client submission token bucket:
	// Rate tokens/second refill up to Burst. Rate <= 0 disables limiting.
	Rate  float64
	Burst int
	// Clock supplies time to the rate limiter and the per-job resilience
	// stack (breaker dwells, chaos windows). Nil means the wall clock;
	// tests inject a deterministic fake.
	Clock clock.Clock
	// Retain, when positive, garbage-collects terminal jobs (done, failed,
	// cancelled) once they have been terminal for this long: the manifest
	// record is dropped first, then the job's checkpoint file, so a crash
	// mid-collection can orphan a file (swept next round) but never a
	// record. Zero keeps everything forever (the previous behaviour).
	Retain time.Duration
	// Resolve maps a scenario name to its benchmark scenario; each job run
	// calls it once. Nil means eval.StandardScenario (the paper's
	// scenarios), whose benchmark datasets are built once per process.
	Resolve func(name string) (*eval.Scenario, error)
	// Logf, when non-nil, receives server progress lines.
	Logf func(format string, args ...any)
}

// Server is the tuning job server. Build with New, wire the HTTP surface
// via Handler, start scheduling with Start, and drain with Shutdown.
type Server struct {
	cfg      Config
	clk      clock.Clock
	manifest *robust.JobManifest
	limiter  *rateLimiter

	mu      sync.Mutex
	jobs    map[string]*job
	queues  map[string][]*job
	clients []string // round-robin order over queue owners
	rr      int
	running int
	started bool

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	// wrapUnit, when non-nil, wraps each unit's evaluator (test
	// instrumentation: blocking gates, call counters). Composes beneath
	// the drain check.
	wrapUnit func(eval.Unit, core.Evaluator) core.Evaluator
}

// New builds a server over the given state directory, loading the job
// manifest a previous process left there. A missing directory is created:
// with no manifest in it, this is the first boot. Call Start to requeue
// interrupted jobs and begin scheduling.
func New(cfg Config) (*Server, error) {
	if cfg.StateDir == "" {
		return nil, fmt.Errorf("serve: Config.StateDir is required")
	}
	if cfg.MaxActive <= 0 {
		cfg.MaxActive = 1
	}
	if cfg.UnitWorkers <= 0 {
		cfg.UnitWorkers = 1
	}
	clk := cfg.Clock
	if clk == nil {
		clk = clock.Real()
	}
	if err := os.MkdirAll(cfg.StateDir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: state directory: %w", err)
	}
	manifest, err := robust.LoadJobManifest(robust.JobManifestPath(cfg.StateDir))
	if err != nil {
		return nil, err
	}
	return &Server{
		cfg:      cfg,
		clk:      clk,
		manifest: manifest,
		limiter:  newRateLimiter(clk, cfg.Rate, cfg.Burst),
		jobs:     map[string]*job{},
		queues:   map[string][]*job{},
		stop:     make(chan struct{}),
	}, nil
}

// logf forwards to the configured logger.
func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// stopping reports whether Shutdown has begun.
func (s *Server) stopping() bool {
	select {
	case <-s.stop:
		return true
	default:
		return false
	}
}

// Shutdown drains the server: no new campaigns start, running campaigns
// stop at their next evaluator call or breaker pause (their paid-for
// observations are already checkpointed), interrupted jobs are parked for
// the next boot, and every subscribed event stream receives a terminal
// shutdown event. Blocks until all campaign runners have exited. Safe to
// call more than once.
func (s *Server) Shutdown() {
	s.stopOnce.Do(func() { close(s.stop) })
	s.mu.Lock()
	ids := make([]string, 0, len(s.jobs))
	for id := range s.jobs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var cancels []func()
	for _, id := range ids {
		if c := s.jobs[id].cancelFunc(); c != nil {
			cancels = append(cancels, c)
		}
	}
	s.mu.Unlock()
	for _, c := range cancels {
		c()
	}
	s.wg.Wait()
}
