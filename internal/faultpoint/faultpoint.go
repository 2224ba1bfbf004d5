// Package faultpoint is the test-side fault seam: Wrap puts a seeded
// net.Listener in front of a server under test, and while a fault is armed on
// it the connections it accepts fail the way a network does. A conn can be
// dropped at accept (the client's dial fails in the hello), fail a read (the
// request is lost and the server drops the conn), tear a write (a prefix
// goes out, then the conn closes), reset mid-frame (a prefix, then an RST),
// or stall a read or a write. Every wire fault the robustness suites fire is
// one of these, so no production package holds fault code: the server under
// test runs its shipped path over a conn that misbehaves.
//
// Determinism: each listener draws its triggers from its own rng, seeded
// from the run seed and the listener's index, so a fixed (seed, policies,
// hit order) always yields the same trigger sequence.
package faultpoint

import (
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"ensembler/internal/rng"
)

// Kind is the failure a triggered fault injects.
type Kind uint8

const (
	// Drop closes a freshly accepted conn before the hello.
	Drop Kind = iota
	// ReadError fails a read that delivered bytes, losing them.
	ReadError
	// TornWrite writes a prefix of a write, then closes the conn.
	TornWrite
	// Reset writes a prefix of a write, then resets the conn.
	Reset
	// Stall sleeps before a read returns or a write proceeds.
	Stall
	numKinds
)

var kindNames = [numKinds]string{"drop", "read-error", "torn-write", "reset", "stall"}

func (k Kind) String() string {
	if k < numKinds {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// ErrInjected is what a failed read or a torn write returns.
var ErrInjected = errors.New("faultpoint: injected fault")

// Policy says when an armed fault triggers and what it does. The zero value
// drops every accepted conn.
type Policy struct {
	Kind Kind
	// Prob is the per-hit trigger probability; 0 or ≥ 1 means always.
	Prob float64
	// Count caps the number of triggers; 0 means unlimited.
	Count int
	// Delay is a Stall's sleep.
	Delay time.Duration
}

// Fault is one policy armed on one listener.
type Fault struct {
	p        Policy
	triggers atomic.Uint64 // added to under the listener's mu
}

// Triggers reports how many times the fault fired.
func (f *Fault) Triggers() uint64 { return f.triggers.Load() }

// Listener wraps a net.Listener; see the package comment.
type Listener struct {
	net.Listener
	armed  atomic.Bool // any fault armed: the one load a disarmed conn pays
	mu     sync.Mutex
	r      *rng.RNG
	faults []*Fault
}

// Wrap returns ln behind the seam, its trigger stream seeded from the run
// seed and the listener's index.
func Wrap(ln net.Listener, seed int64, index int) *Listener {
	return &Listener{Listener: ln, r: rng.New(seed ^ int64(uint64(index+1)*0x9E3779B97F4A7C15))}
}

// Arm arms p on l until Disarm; faults of one kind are consulted in the
// order they were armed, and a hit triggers at most one of them.
func (l *Listener) Arm(p Policy) *Fault {
	f := &Fault{p: p}
	l.mu.Lock()
	l.faults = append(l.faults, f)
	l.armed.Store(true)
	l.mu.Unlock()
	return f
}

// Disarm disarms f; its trigger count stays readable.
func (l *Listener) Disarm(f *Fault) {
	l.mu.Lock()
	l.faults = slices.DeleteFunc(l.faults, func(g *Fault) bool { return g == f })
	l.armed.Store(len(l.faults) > 0)
	l.mu.Unlock()
}

// fire consults the faults armed for kind k on one hit and reports the
// policy that triggered, if any.
func (l *Listener) fire(k Kind) (Policy, bool) {
	if !l.armed.Load() {
		return Policy{}, false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, f := range l.faults {
		if f.p.Kind != k {
			continue
		}
		if (f.p.Count > 0 && f.triggers.Load() >= uint64(f.p.Count)) ||
			(f.p.Prob > 0 && f.p.Prob < 1 && l.r.Float64() >= f.p.Prob) {
			continue
		}
		f.triggers.Add(1)
		return f.p, true
	}
	return Policy{}, false
}

// stall counts a Stall hit and sleeps through it if it triggers.
func (l *Listener) stall() {
	if p, ok := l.fire(Stall); ok {
		time.Sleep(p.Delay)
	}
}

// Accept accepts the next conn that no armed Drop closes.
func (l *Listener) Accept() (net.Conn, error) {
	for {
		c, err := l.Listener.Accept()
		if err != nil {
			return nil, err
		}
		if _, ok := l.fire(Drop); ok {
			c.Close()
			continue
		}
		return &conn{Conn: c, l: l}, nil
	}
}

// conn is an accepted conn behind the seam.
type conn struct {
	net.Conn
	l *Listener
}

// Read fails or stalls a read only once it has delivered bytes, so an armed
// fault hits a request in flight, not an idle wait.
func (c *conn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	if n > 0 {
		if _, ok := c.l.fire(ReadError); ok {
			return 0, ErrInjected
		}
		c.l.stall()
	}
	return n, err
}

func (c *conn) Write(b []byte) (int, error) {
	c.l.stall()
	if _, ok := c.l.fire(TornWrite); ok {
		return c.tear(b, false)
	}
	if _, ok := c.l.fire(Reset); ok {
		return c.tear(b, true)
	}
	return c.Conn.Write(b)
}

// tear writes a prefix of b, then closes the conn: with reset, abortively,
// so the peer reads an RST instead of an end of stream.
func (c *conn) tear(b []byte, reset bool) (int, error) {
	n, _ := c.Conn.Write(b[:cutLen(len(b))])
	if tc, ok := c.Conn.(*net.TCPConn); ok && reset {
		tc.SetLinger(0)
	}
	c.Conn.Close()
	return n, ErrInjected
}

// cutLen is the prefix of an n-byte write a tear lets through: half, so at
// least one byte and always short of the whole once n > 1.
func cutLen(n int) int { return n / 2 }
