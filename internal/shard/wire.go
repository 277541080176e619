// Package shard distributes eval.Campaign work units across OS processes.
//
// A coordinator enumerates the campaign's (space × method × seed) units and
// grants time-bounded leases over a line-delimited JSON protocol; workers
// run one unit at a time through the existing resilient evaluator, stream
// each fresh observation back as it is paid for, and ship the unit's scored
// result plus serialised RNG end state for merge into the single
// CampaignCheckpoint. Worker death, heartbeat loss and lease expiry all
// reclaim the unit and requeue it for the next idle worker; renew/reclaim
// races are resolved by monotonically increasing lease epochs, so a zombie
// worker's late result is detected and discarded. A licence outage never
// reaches the protocol: the worker's circuit breaker pauses the
// evaluation, and its heartbeats keep the lease meanwhile.
//
// Because every unit's random stream is derived from (seed, unit key) and
// observations merge idempotently, the merged checkpoint and the assembled
// table are byte-identical to a one-process run at any worker count and
// under any kill schedule: worker death stretches wall-clock time, never
// results.
package shard

import (
	"ppatuner/internal/eval"
	"ppatuner/internal/robust"
)

// MsgType tags one protocol message.
type MsgType string

const (
	// MsgHello introduces a worker (worker → coordinator): Worker names it.
	// A reconnecting worker also carries Key and Epoch — the lease it
	// believes it still holds — and the coordinator re-attaches it when the
	// ledger agrees, so the unit is neither double-granted nor forfeited.
	MsgHello MsgType = "hello"
	// MsgWelcome answers a hello (coordinator → worker): Generation is the
	// coordinator's checkpoint-fencing generation, so a worker knows which
	// incarnation of the control plane it is speaking to.
	MsgWelcome MsgType = "welcome"
	// MsgGrant leases a unit to a worker (coordinator → worker): Key, Epoch,
	// Unit, LeaseMillis, the RNG state to start from and the observations to
	// replay.
	MsgGrant MsgType = "grant"
	// MsgObs streams one fresh observation (worker → coordinator): Key,
	// Epoch, Obs.
	MsgObs MsgType = "obs"
	// MsgObsAck acknowledges a merged (or knowingly discarded) observation
	// (coordinator → worker): Key, Index. A reconnecting worker re-streams
	// only unacknowledged observations; the index-deduplicated merge makes
	// any overlap idempotent.
	MsgObsAck MsgType = "obs_ack"
	// MsgResultAck acknowledges a handled result (coordinator → worker):
	// Key, Epoch. Receipt clears the worker's retransmit buffer for the
	// unit.
	MsgResultAck MsgType = "result_ack"
	// MsgHeartbeat renews a lease (worker → coordinator): Key, Epoch.
	MsgHeartbeat MsgType = "heartbeat"
	// MsgResult completes a unit (worker → coordinator): Key, Epoch, Result,
	// RandEnd.
	MsgResult MsgType = "result"
	// MsgFail reports a unit failure (worker → coordinator): Key, Epoch,
	// Error. It fails the campaign.
	MsgFail MsgType = "fail"
	// MsgShutdown tells a worker to exit (coordinator → worker).
	MsgShutdown MsgType = "shutdown"
)

// Msg is the single wire envelope; which fields are set depends on Type.
// One JSON object per line, no framing beyond the newline.
type Msg struct {
	Type        MsgType              `json:"type"`
	Worker      string               `json:"worker,omitempty"`
	Key         string               `json:"key,omitempty"`
	Epoch       uint64               `json:"epoch,omitempty"`
	Unit        *eval.UnitSpec       `json:"unit,omitempty"`
	LeaseMillis int64                `json:"lease_millis,omitempty"`
	RandState   []byte               `json:"rand_state,omitempty"`
	Replay      []robust.Observation `json:"replay,omitempty"`
	Obs         *robust.Observation  `json:"obs,omitempty"`
	Result      *eval.UnitResult     `json:"result,omitempty"`
	RandEnd     []byte               `json:"rand_end,omitempty"`
	Error       string               `json:"error,omitempty"`
	// Generation is the coordinator's checkpoint-fencing generation
	// (welcome messages).
	Generation uint64 `json:"generation,omitempty"`
	// Index names the acknowledged observation (obs_ack messages). The
	// zero value means pool index 0 — JSON omits it, and the zero-value
	// default on decode round-trips it correctly.
	Index int `json:"index,omitempty"`
}

// Conn is one coordinator↔worker message stream. Send must be safe for
// concurrent use (a worker heartbeats while its evaluation streams
// observations); Recv is called from a single goroutine per side. Closing
// unblocks a pending Recv with an error.
type Conn interface {
	Send(Msg) error
	Recv() (Msg, error)
	Close() error
}
