package analysis

import "strings"

// The determinism policy table. A tuner run must be a pure function of
// (seed, pool, options): the paper's Table 1 / Fig. 3 reproductions and the
// serial==parallel bit-identity tests are meaningless if wall-clock time or
// the global math/rand source can leak into results. The nodeterminism
// analyzer enforces that inside the packages listed here; everything else
// (cmd/, examples/, the evaluation harness) may read clocks for logging and
// progress without invalidating results.
//
// Adding an entry to Exempt is an auditable act: every entry must carry a
// reason, and the reason is echoed in the diagnostic docs.

// Deterministic lists the package-path prefixes whose non-test code must be
// reproducible from a seed: no wall clock, no global RNG. Explicit
// *rand.Rand values plumbed from a seed are the only sanctioned randomness.
var Deterministic = []string{
	"ppatuner/internal/core",
	// The four re-implemented baselines produce Table 2/3 cells and the
	// end-to-end benchmark's digests, so they answer to the same ban.
	"ppatuner/internal/baselines",
	// internal/gp's fits and posteriors feed every PPATuner, TCAD'19 and
	// MLCAD'19 table cell and the end-to-end benchmark's golden digests, so
	// its hyper-parameter search and pool sweeps answer to the same ban.
	"ppatuner/internal/gp",
	"ppatuner/internal/mat",
	"ppatuner/internal/sample",
	"ppatuner/internal/pareto",
	"ppatuner/internal/pdtool",
	"ppatuner/internal/par",
	"ppatuner/internal/tree",
	"ppatuner/internal/shard",
}

// Exemption carves a package subtree out of the determinism ban, with the
// documented reason. Ordered and prefix-matched most-specific-first so the
// table stays deterministic if subtrees ever overlap.
type Exemption struct {
	Prefix string
	Reason string
}

// Exempt records the packages that sit adjacent to (or inside) the
// deterministic set but legitimately touch the wall clock.
// internal/robust is the canonical entry: its deadlines, retry backoff, and
// failure-event timestamps are wall-clock by design (they guard against
// hung EDA tool invocations) and are kept out of every numerical result.
var Exempt = []Exemption{
	{
		Prefix: "ppatuner/internal/clock",
		Reason: "the sanctioned wall-clock access point: Real() is the wall clock by definition; every fault-tolerance consumer takes it as an injected Clock so tests substitute the deterministic fake and the nodeterminism exemptions elsewhere stay narrow",
	},
	{
		Prefix: "ppatuner/internal/pdtool/chaos",
		Reason: "fault injector: simulated hangs and outage-window membership run on an injected Clock (wall clock by default); which evaluations fail is still drawn from the seeded injector RNG or the seed-derived outage schedule",
	},
	{
		Prefix: "ppatuner/internal/shard/transport",
		Reason: "the shard subsystem's only non-deterministic layer: TCP dials, stdio pipes, subprocess spawning and fault-injected delivery are wall-clock by nature; the coordinator, ledger and worker logic above it run on an injected Clock and stay under the determinism ban",
	},
	{
		Prefix: "ppatuner/internal/robust",
		Reason: "fault-tolerance layer: deadlines, retry backoff, circuit-breaker dwells and failure timestamps run on an injected Clock (wall clock by contract) and never enter QoR vectors",
	},
}

// Concurrent lists the exact package paths whose non-test code is subject
// to the concurrency analyzers (goroutineleak, lockio): the layers that own
// goroutines, locks and wire I/O. Fixtures register the same paths, so the
// analyzers behave identically under test.
var Concurrent = []string{
	"ppatuner/internal/shard",
	"ppatuner/internal/shard/transport",
	"ppatuner/internal/robust",
	"ppatuner/internal/par",
	// The job server owns campaign-runner goroutines, per-client queues and
	// the SSE broadcast path — exactly the leak/lock-inversion surface the
	// analyzers exist for.
	"ppatuner/internal/serve",
}

// ConcurrencyPolicy reports whether pkgPath's non-test code is covered by
// the goroutineleak and lockio analyzers.
func ConcurrencyPolicy(pkgPath string) bool {
	for _, p := range Concurrent {
		if pkgPath == p {
			return true
		}
	}
	return false
}

// DeterminismPolicy reports whether pkgPath falls under the determinism
// ban, and if it is exempt, the documented reason.
func DeterminismPolicy(pkgPath string) (covered bool, exemptReason string) {
	for _, e := range Exempt {
		if pkgPath == e.Prefix || strings.HasPrefix(pkgPath, e.Prefix+"/") {
			return false, e.Reason
		}
	}
	for _, prefix := range Deterministic {
		if pkgPath == prefix || strings.HasPrefix(pkgPath, prefix+"/") {
			return true, ""
		}
	}
	return false, ""
}
