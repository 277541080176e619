package shard

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"ppatuner/internal/clock"
	"ppatuner/internal/robust"
)

// BeaconState is one liveness announcement: the announcing coordinator's
// checkpoint generation and a sequence number that advances on every
// announce. Staleness is decided by the sequence standing still, not by
// file mtimes — content-based detection works identically under the fake
// clock and across filesystems with coarse timestamps.
type BeaconState struct {
	Generation uint64 `json:"generation"`
	Seq        uint64 `json:"seq"`
}

// Beacon is a primary coordinator's heartbeat file. The primary announces
// into it on the coordinator clock; a standby watches it and promotes once
// the sequence number has been still for its takeover window. The file is
// advisory — fencing on the checkpoint, not the beacon, is what makes a
// mistimed takeover safe; the beacon only decides when to try.
type Beacon struct {
	path  string
	mu    sync.Mutex
	seq   uint64
	muted bool
}

// NewBeacon builds a beacon persisting announcements to path.
func NewBeacon(path string) *Beacon {
	return &Beacon{path: path}
}

// Announce writes the next liveness record (atomic rename, like every
// other state file). The first announce continues the sequence recorded on
// disk, so a promoted standby's announcements advance past the deposed
// primary's rather than restarting a sequence the next standby might
// mistake for progress. A muted beacon silently announces nothing.
func (b *Beacon) Announce(gen uint64) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.muted {
		return nil
	}
	if b.seq == 0 {
		if st, ok, _ := b.read(); ok {
			b.seq = st.Seq
		}
	}
	b.seq++
	data, err := json.Marshal(BeaconState{Generation: gen, Seq: b.seq})
	if err != nil {
		return fmt.Errorf("shard: encode beacon: %w", err)
	}
	data = append(data, '\n')
	if err := robust.WriteFileAtomic(b.path, data); err != nil {
		return fmt.Errorf("shard: write beacon: %w", err)
	}
	return nil
}

// Mute stops all future announcements — the chaos hook behind split-brain
// schedules: a muted primary looks dead to the standby while it keeps
// serving its workers and writing the checkpoint, which is exactly the
// scenario checkpoint fencing exists to make survivable.
func (b *Beacon) Mute() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.muted = true
}

// Read returns the current announcement, with ok=false when no beacon file
// exists yet.
func (b *Beacon) Read() (BeaconState, bool, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.read()
}

func (b *Beacon) read() (BeaconState, bool, error) {
	data, err := os.ReadFile(b.path)
	if os.IsNotExist(err) {
		return BeaconState{}, false, nil
	}
	if err != nil {
		return BeaconState{}, false, fmt.Errorf("shard: read beacon: %w", err)
	}
	var st BeaconState
	if err := json.Unmarshal(data, &st); err != nil {
		return BeaconState{}, false, fmt.Errorf("shard: parse beacon %s: %w", b.path, err)
	}
	return st, true, nil
}

// Watch polls the beacon every `every` tick of clk and returns nil once
// the announcement has not changed for staleAfter — the standby's cue to
// adopt the checkpoint and promote. A missing beacon counts as silence
// (the primary may have died before its first announce), so the takeover
// clock runs from the start of the watch. Context cancellation returns
// ctx.Err(). Read errors are treated as silence too: a half-written or
// unreadable beacon must not wedge the standby forever.
func (b *Beacon) Watch(ctx context.Context, clk clock.Clock, every, staleAfter time.Duration) error {
	if every <= 0 {
		every = staleAfter / 8
	}
	if every <= 0 {
		every = time.Second
	}
	last, _, _ := b.Read()
	lastChange := clk.Now()
	for {
		if err := clk.Sleep(ctx, every); err != nil {
			return err
		}
		if st, ok, err := b.Read(); err == nil && ok && st != last {
			last, lastChange = st, clk.Now()
			continue
		}
		if clk.Now().Sub(lastChange) >= staleAfter {
			return nil
		}
	}
}
