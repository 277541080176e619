package shard

import (
	"context"
	"errors"
	"io"
	"sync"
	"testing"
	"time"

	"ppatuner/internal/clock"
	"ppatuner/internal/robust"
)

// scriptConn is a scripted in-memory Conn: sends are recorded (and fail
// once broken), receives drain a queue then fail.
type scriptConn struct {
	mu     sync.Mutex
	sent   []Msg
	inbox  []Msg
	broken bool
	closed bool
}

func (c *scriptConn) Send(m Msg) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.broken || c.closed {
		return io.ErrClosedPipe
	}
	c.sent = append(c.sent, m)
	return nil
}

func (c *scriptConn) Recv() (Msg, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.inbox) > 0 {
		m := c.inbox[0]
		c.inbox = c.inbox[1:]
		return m, nil
	}
	return Msg{}, io.EOF
}

func (c *scriptConn) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	return nil
}

func (c *scriptConn) breakNow() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.broken = true
}

func (c *scriptConn) sentMsgs() []Msg {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Msg(nil), c.sent...)
}

// dialScript returns conns in order; when exhausted it fails.
func dialScript(conns ...*scriptConn) func() (Conn, error) {
	i := 0
	return func() (Conn, error) {
		if i >= len(conns) {
			return nil, errors.New("no more conns")
		}
		c := conns[i]
		i++
		return c, nil
	}
}

func TestBackoffDeterministicCappedJittered(t *testing.T) {
	b := Backoff{Base: 100 * time.Millisecond, Cap: time.Second, Salt: "w1"}
	for attempt := 0; attempt < 12; attempt++ {
		d1 := b.Delay(attempt)
		d2 := b.Delay(attempt)
		if d1 != d2 {
			t.Fatalf("attempt %d: %v != %v — jitter must be deterministic", attempt, d1, d2)
		}
		full := 100 * time.Millisecond << uint(attempt)
		if full > time.Second || attempt > 10 {
			full = time.Second
		}
		if d1 < full/2 || d1 >= full {
			t.Fatalf("attempt %d: delay %v outside [%v, %v)", attempt, d1, full/2, full)
		}
	}
	if (Backoff{Salt: "a"}).Delay(3) == (Backoff{Salt: "b"}).Delay(3) {
		t.Fatal("distinct salts produced identical jitter — fleet would redial in lockstep")
	}
}

func TestReconnResendsUnackedOnReconnect(t *testing.T) {
	c1 := &scriptConn{}
	c2 := &scriptConn{}
	r, err := Connect(context.Background(), ReconnOptions{
		Dial:    dialScript(c1, c2),
		Backoff: Backoff{Base: time.Millisecond, Cap: time.Millisecond},
		Clock:   clock.NewFake(time.Unix(0, 0)),
	})
	if err != nil {
		t.Fatal(err)
	}
	hello := Msg{Type: MsgHello, Worker: "w1"}
	obs0 := Msg{Type: MsgObs, Key: "k", Epoch: 1, Obs: &robust.Observation{Index: 0}}
	obs1 := Msg{Type: MsgObs, Key: "k", Epoch: 1, Obs: &robust.Observation{Index: 1}}
	for _, m := range []Msg{hello, obs0, obs1} {
		if err := r.Send(m); err != nil {
			t.Fatal(err)
		}
	}
	c1.breakNow()
	// The next send fails over. It is noted into the retransmit buffer
	// before the wire attempt, so the handshake on c2 re-introduces the
	// worker and re-streams all three observations in original order —
	// including the one whose send triggered the reconnect.
	if err := r.Send(Msg{Type: MsgObs, Key: "k", Epoch: 1, Obs: &robust.Observation{Index: 2}}); err != nil {
		t.Fatal(err)
	}
	got := c2.sentMsgs()
	if len(got) != 4 {
		t.Fatalf("handshake sent %d messages, want 4 (hello + 3 unacked): %+v", len(got), got)
	}
	if got[0].Type != MsgHello || got[0].Worker != "w1" {
		t.Fatalf("handshake did not lead with the hello: %+v", got[0])
	}
	for i, m := range got[1:] {
		if m.Type != MsgObs || m.Obs == nil || m.Obs.Index != i {
			t.Fatalf("backlog message %d = %+v, want obs index %d", i, m, i)
		}
	}
}

func TestReconnAcksTrimRetransmitBuffer(t *testing.T) {
	c1 := &scriptConn{inbox: []Msg{
		{Type: MsgWelcome, Generation: 7},
		{Type: MsgObsAck, Key: "k", Index: 0},
		{Type: MsgResultAck, Key: "k", Epoch: 1},
		{Type: MsgGrant, Key: "k2", Epoch: 2},
	}}
	r, err := Connect(context.Background(), ReconnOptions{
		Dial:  dialScript(c1),
		Clock: clock.NewFake(time.Unix(0, 0)),
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = r.Send(Msg{Type: MsgHello, Worker: "w"})
	_ = r.Send(Msg{Type: MsgObs, Key: "k", Epoch: 1, Obs: &robust.Observation{Index: 0}})
	_ = r.Send(Msg{Type: MsgObs, Key: "k", Epoch: 1, Obs: &robust.Observation{Index: 1}})
	_ = r.Send(Msg{Type: MsgResult, Key: "k", Epoch: 1})

	// Recv consumes welcome and both acks internally and surfaces only the
	// grant. The obs ack trims index 0; the result ack trims everything
	// left for the unit.
	m, err := r.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if m.Type != MsgGrant || m.Key != "k2" {
		t.Fatalf("Recv surfaced %+v, want the grant", m)
	}
	if g := r.Generation(); g != 7 {
		t.Fatalf("Generation() = %d, want 7 from the welcome", g)
	}
	r.mu.Lock()
	n, heldKey, heldEpoch := len(r.unacked), r.heldKey, r.heldEpoch
	r.mu.Unlock()
	if n != 0 {
		t.Fatalf("unacked buffer = %d entries after full ack, want 0", n)
	}
	if heldKey != "k2" || heldEpoch != 2 {
		t.Fatalf("held lease = (%q, %d), want (k2, 2) from the grant", heldKey, heldEpoch)
	}
}

func TestReconnRehandshakeNamesHeldLease(t *testing.T) {
	c1 := &scriptConn{inbox: []Msg{{Type: MsgGrant, Key: "unit-a", Epoch: 3}}}
	c2 := &scriptConn{inbox: []Msg{{Type: MsgShutdown}}}
	r, err := Connect(context.Background(), ReconnOptions{
		Dial:    dialScript(c1, c2),
		Backoff: Backoff{Base: time.Millisecond},
		Clock:   clock.NewFake(time.Unix(0, 0)),
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = r.Send(Msg{Type: MsgHello, Worker: "w"})
	if m, err := r.Recv(); err != nil || m.Type != MsgGrant {
		t.Fatalf("Recv = %+v, %v; want the grant", m, err)
	}
	// c1 dies (inbox empty → EOF); Recv reconnects through c2, whose
	// handshake hello must carry the held lease so the new coordinator
	// re-attaches instead of double-granting.
	if m, err := r.Recv(); err != nil || m.Type != MsgShutdown {
		t.Fatalf("Recv after reconnect = %+v, %v; want the shutdown from c2", m, err)
	}
	got := c2.sentMsgs()
	if len(got) == 0 || got[0].Type != MsgHello {
		t.Fatalf("no handshake hello on the replacement conn: %+v", got)
	}
	if got[0].Key != "unit-a" || got[0].Epoch != 3 || got[0].Worker != "w" {
		t.Fatalf("re-hello = %+v, want Worker=w Key=unit-a Epoch=3", got[0])
	}
}

func TestReconnGivesUpAfterMaxDown(t *testing.T) {
	fc := clock.NewFake(time.Unix(0, 0))
	dead := func() (Conn, error) { return nil, errors.New("refused") }
	_, err := Connect(context.Background(), ReconnOptions{
		Dial:    dead,
		Backoff: Backoff{Base: time.Second, Cap: time.Second},
		MaxDown: 5 * time.Second,
		Clock:   fc,
	})
	if err == nil {
		t.Fatal("Connect against a dead coordinator must eventually fail")
	}
	if fc.Now().Sub(time.Unix(0, 0)) < 5*time.Second {
		t.Fatalf("gave up after only %v of virtual downtime, want >= MaxDown", fc.Now().Sub(time.Unix(0, 0)))
	}
}
