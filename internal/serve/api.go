package serve

import (
	"fmt"

	"ppatuner/internal/eval"
)

// The request/response structs below are the server's JSON wire surface.
// Every type here is reachable from a wirecompat root, so renaming a field,
// changing its type, or editing a json tag fails ppalint until the change
// is recorded in wire.lock — deployed clients hold the other end of this
// schema.

// JobRequest is a tuning-job submission: everything needed to reconstruct
// the campaign deterministically, by value — no server state is implied.
type JobRequest struct {
	// Client identifies the submitting tenant (queue + rate-limit key).
	// Empty means "anon".
	Client string `json:"client,omitempty"`
	// Scenario names the benchmark scenario: one of the paper's scenario
	// names, or the aliases "table2" / "table3".
	Scenario string `json:"scenario"`
	// Spaces restricts the objective spaces by table heading (nil: all
	// three).
	Spaces []string `json:"spaces,omitempty"`
	// Methods restricts the tuner set (nil: all five).
	Methods []string `json:"methods,omitempty"`
	// Seeds is a count ("3" → seeds 1..3) or explicit list ("1,2,5") — the
	// eval.ParseSeeds syntax shared with the CLIs.
	Seeds string `json:"seeds"`
	// Workers bounds the campaign's unit concurrency (0: server default).
	// Purely a wall-clock knob.
	Workers int `json:"workers,omitempty"`
	// GP names the PPATuner surrogate. The exact transfer GP is the only
	// one, so only "exact" and empty are accepted. Any other value, the
	// retired "sparse:<m>" included, is refused rather than run as exact.
	GP string `json:"gp,omitempty"`
	// Outage injects correlated downtime windows into the job's evaluation
	// path: "PERIOD/DOWN" (chaos.ParseSchedule syntax; empty: disabled).
	Outage string `json:"outage,omitempty"`
	// Breaker arms a park-mode circuit breaker tripping after N
	// consecutive transients (0: disabled; required with Outage to park
	// rather than burn retry budgets).
	Breaker int `json:"breaker,omitempty"`
}

// SubmitResponse acknowledges an accepted job.
type SubmitResponse struct {
	ID     string `json:"id"`
	Status string `json:"status"`
}

// JobView is one job's externally visible state.
type JobView struct {
	ID              string   `json:"id"`
	Client          string   `json:"client"`
	Status          string   `json:"status"`
	Scenario        string   `json:"scenario"`
	Spaces          []string `json:"spaces"`
	Methods         []string `json:"methods"`
	Seeds           []int64  `json:"seeds"`
	GP              string   `json:"gp,omitempty"`
	Outage          string   `json:"outage,omitempty"`
	Breaker         int      `json:"breaker,omitempty"`
	UnitsTotal      int      `json:"units_total"`
	UnitsDone       int      `json:"units_done"`
	CancelRequested bool     `json:"cancel_requested,omitempty"`
	Error           string   `json:"error,omitempty"`
}

// JobListDoc is the GET /jobs payload.
type JobListDoc struct {
	Jobs []JobView `json:"jobs"`
}

// FrontDoc is the GET /jobs/{id}/front payload: the golden Pareto front
// and every completed unit's learned front, grouped space → method → seed
// in the job's requested order. The document is a pure function of the job
// spec and the completed units, so an interrupted-and-resumed job serves
// bytes identical to an uninterrupted one.
type FrontDoc struct {
	Job      string       `json:"job"`
	Status   string       `json:"status"`
	Scenario string       `json:"scenario"`
	Spaces   []SpaceFront `json:"spaces"`
}

// SpaceFront is one objective space's fronts.
type SpaceFront struct {
	Space   string        `json:"space"`
	Golden  [][]float64   `json:"golden,omitempty"`
	Methods []MethodFront `json:"methods"`
}

// MethodFront is one tuner's per-seed fronts in one space.
type MethodFront struct {
	Method string      `json:"method"`
	Seeds  []SeedFront `json:"seeds"`
}

// SeedFront is one completed unit: scored metrics plus the learned front.
type SeedFront struct {
	Seed  int64       `json:"seed"`
	HV    float64     `json:"hv"`
	ADRS  float64     `json:"adrs"`
	Runs  int         `json:"runs"`
	Front [][]float64 `json:"front,omitempty"`
}

// Event is one entry of a job's progress stream, delivered over SSE or the
// long-poll fallback. Seq is the per-job cursor for resuming a stream.
type Event struct {
	Seq    int    `json:"seq"`
	Type   string `json:"type"` // "status" | "unit" | "shutdown"
	Job    string `json:"job"`
	Status string `json:"status,omitempty"`
	// Unit carries per-unit progress (type "unit"): the scored result and
	// the unit's learned Pareto front.
	Unit *UnitEvent `json:"unit,omitempty"`
	// Done/Total track unit completion (type "unit").
	Done    int    `json:"done,omitempty"`
	Total   int    `json:"total,omitempty"`
	Message string `json:"message,omitempty"`
}

// UnitEvent is the per-unit payload of a progress event.
type UnitEvent struct {
	Space  string      `json:"space"`
	Method string      `json:"method"`
	Seed   int64       `json:"seed"`
	HV     float64     `json:"hv"`
	ADRS   float64     `json:"adrs"`
	Runs   int         `json:"runs"`
	Front  [][]float64 `json:"front,omitempty"`
}

// EventPage is the long-poll fallback payload: events after the requested
// cursor plus the next cursor to poll from.
type EventPage struct {
	Events []Event `json:"events"`
	Next   int     `json:"next"`
}

// ErrorDoc is every non-2xx JSON payload.
type ErrorDoc struct {
	Error string `json:"error"`
}

// HealthDoc is the GET /healthz payload.
type HealthDoc struct {
	OK   bool `json:"ok"`
	Jobs int  `json:"jobs"`
}

// jobPlan is a validated, resolved JobRequest: the campaign axes by value.
type jobPlan struct {
	scenario string
	spaces   []eval.ObjSpace
	methods  []eval.Method
	seeds    []int64
	faults   eval.FaultConfig
	workers  int
}

// canonicalScenario resolves submission aliases to stable scenario names.
func canonicalScenario(name string) string {
	switch name {
	case "table2", "Table 2":
		return eval.ScenarioOneName
	case "table3", "Table 3":
		return eval.ScenarioTwoName
	}
	return name
}

// plan validates a request against the server's configuration: it decodes
// the campaign axes, then checks the surrogate and the fault stack.
// Validation is cheap (no benchmark construction): scenario existence for
// custom resolvers is established when the job first runs.
func (s *Server) plan(req JobRequest) (*jobPlan, error) {
	p, err := s.axes(req)
	if err != nil {
		return nil, err
	}
	if req.GP != "" && req.GP != "exact" {
		return nil, fmt.Errorf("gp: surrogate %q is not available; the exact GP is the only one (use \"exact\" or omit the field)", req.GP)
	}
	p.faults = eval.FaultConfig{Outage: req.Outage, Breaker: req.Breaker, MaxOutage: eval.DefaultMaxOutage}
	if err := p.faults.Validate(); err != nil {
		return nil, err
	}
	p.workers = req.Workers
	if p.workers <= 0 {
		p.workers = s.cfg.UnitWorkers
	}
	return p, nil
}

// axes decodes a request's scenario, spaces, methods and seeds. Views and
// fronts read a stored job through it alone, so a job whose spec no longer
// passes plan's server-side checks still reports the axes it names.
func (s *Server) axes(req JobRequest) (*jobPlan, error) {
	p := &jobPlan{scenario: canonicalScenario(req.Scenario)}
	if p.scenario == "" {
		return nil, fmt.Errorf("scenario is required (table2, table3, or a full scenario name)")
	}
	if s.cfg.Resolve == nil && p.scenario != eval.ScenarioOneName && p.scenario != eval.ScenarioTwoName {
		return nil, fmt.Errorf("unknown scenario %q", req.Scenario)
	}
	if req.Spaces == nil {
		p.spaces = eval.Spaces()
	} else {
		for _, name := range req.Spaces {
			sp, err := eval.SpaceByName(name)
			if err != nil {
				return nil, fmt.Errorf("spaces: %v", err)
			}
			p.spaces = append(p.spaces, sp)
		}
	}
	if req.Methods == nil {
		p.methods = eval.Methods()
	} else {
		for _, name := range req.Methods {
			m, err := methodByName(name)
			if err != nil {
				return nil, err
			}
			p.methods = append(p.methods, m)
		}
	}
	if len(p.spaces) == 0 || len(p.methods) == 0 {
		return nil, fmt.Errorf("spaces and methods must be non-empty")
	}
	seedSpec := req.Seeds
	if seedSpec == "" {
		seedSpec = "1"
	}
	seeds, err := eval.ParseSeeds(seedSpec)
	if err != nil {
		return nil, fmt.Errorf("seeds: %v", err)
	}
	p.seeds = seeds
	return p, nil
}

// methodByName resolves a tuner by its table spelling.
func methodByName(name string) (eval.Method, error) {
	for _, m := range eval.Methods() {
		if string(m) == name {
			return m, nil
		}
	}
	return "", fmt.Errorf("unknown method %q", name)
}

// total is the job's unit count.
func (p *jobPlan) total() int {
	return len(p.spaces) * len(p.methods) * len(p.seeds)
}

// spaceNames returns the plan's space headings in order.
func (p *jobPlan) spaceNames() []string {
	out := make([]string, len(p.spaces))
	for i, sp := range p.spaces {
		out[i] = sp.Name
	}
	return out
}

// methodNames returns the plan's tuner names in order.
func (p *jobPlan) methodNames() []string {
	out := make([]string, len(p.methods))
	for i, m := range p.methods {
		out[i] = string(m)
	}
	return out
}
