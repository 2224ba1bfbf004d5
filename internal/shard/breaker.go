package shard

// The per-shard circuit breaker: the upgrade from PR 3's boolean
// down-marking. Down-marking still sent every request to a dead shard (one
// cheap probe each); the breaker goes further — an open circuit
// short-circuits requests to the shard entirely, and recovery is governed
// by a jittered, exponentially backed-off reopen schedule with single-probe
// half-open admission, so a flapping shard cannot absorb a thundering herd
// of probes the instant its backoff expires.
//
//	closed ──(threshold consecutive failures)──▶ open
//	open ──(reopen backoff elapses; first caller admitted)──▶ half-open
//	half-open ──(probe succeeds)──▶ closed   (backoff resets)
//	half-open ──(probe fails)──▶ open        (backoff doubles, jittered)
//
// Traffic stays selection-independent: whether a shard's circuit is open
// depends only on its observed health, never on the secret selection, so a
// wire observer learns nothing new from the short-circuit pattern (the same
// argument that justified down-marking's probes — see DESIGN.md §2k).

import (
	"errors"
	"sync"
	"time"

	"ensembler/internal/rng"
)

// ErrBreakerOpen is returned (wrapped with the shard identity) when a
// request is short-circuited by an open circuit: the shard was not
// contacted at all. Callers distinguishing "shard refused fast" from "shard
// failed on the wire" match it with errors.Is.
var ErrBreakerOpen = errors.New("shard: circuit breaker open")

// BreakerState is one shard circuit's position in the state machine. The
// numeric values are the ensembler_shard_breaker_state gauge encoding.
type BreakerState int32

const (
	BreakerClosed   BreakerState = 0 // normal traffic
	BreakerOpen     BreakerState = 1 // short-circuiting; reopen pending
	BreakerHalfOpen BreakerState = 2 // one probe in flight decides
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return "invalid"
}

// breaker is one shard's circuit and its wire counters, under one mutex
// taken once per attempt (and once by allow) — noise next to a network round
// trip. Requests and failures count actual wire attempts; short-circuited
// requests count only in shortCircuits — an open circuit generating zero
// traffic must not look like a shard failing traffic.
type breaker struct {
	mu sync.Mutex

	p policy   // threshold, reopen waits and jitter
	r *rng.RNG // jitter source, seeded for deterministic tests

	state       BreakerState
	consecFails int
	wait        time.Duration // current un-jittered reopen wait
	reopenAt    time.Time     // open → half-open eligibility instant
	opens       uint64        // total closed/half-open → open transitions

	requests      uint64
	failures      uint64
	shortCircuits uint64
	lastErr       string
}

func newBreaker(p policy, seed int64) *breaker {
	return &breaker{p: p, r: rng.New(seed)}
}

// jittered spreads a reopen wait by ±jitter so a fleet of clients that
// opened their circuits together does not re-probe the recovering shard in
// lockstep.
func (b *breaker) jittered(d time.Duration) time.Duration {
	if b.p.Jitter <= 0 {
		return d
	}
	f := 1 + float64(b.p.Jitter*(float64(2*b.r.Float64())-1))
	return time.Duration(float64(d) * f)
}

// allow decides one request's fate: admit normally, admit as the half-open
// probe (the caller must make a single bounded attempt), or short-circuit,
// which it counts.
func (b *breaker) allow(now time.Time) (admit, probe bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch {
	case b.state == BreakerClosed:
		return true, false
	case b.state == BreakerOpen && !now.Before(b.reopenAt):
		// Backoff elapsed: this caller becomes the probe, and the state
		// moves to half-open so every concurrent caller short-circuits
		// until the probe's verdict arrives.
		b.state = BreakerHalfOpen
		return true, true
	default: // open and waiting, or half-open with the probe slot taken
		b.shortCircuits++
		return false, false
	}
}

// recordSuccess counts one answered exchange: it closes the circuit from any
// state and resets the failure streak and backoff.
func (b *breaker) recordSuccess() {
	b.mu.Lock()
	b.requests++
	b.lastErr = ""
	b.consecFails = 0
	b.state = BreakerClosed
	b.wait = 0
	b.mu.Unlock()
}

// releaseProbe returns the half-open probe slot when the probe's outcome
// says nothing about the shard (caller-side cancellation): the circuit
// reverts to open with its reopen wait already elapsed, so the next
// request becomes the new probe instead of the circuit wedging half-open.
func (b *breaker) releaseProbe() {
	b.mu.Lock()
	if b.state == BreakerHalfOpen {
		b.state = BreakerOpen
		b.reopenAt = time.Time{}
	}
	b.mu.Unlock()
}

// recordFailure counts one failed exchange at the given instant: a closed
// circuit opens once the streak reaches the threshold; a failed half-open
// probe reopens with doubled (capped, jittered) backoff.
func (b *breaker) recordFailure(now time.Time, err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.requests++
	b.failures++
	b.lastErr = err.Error()
	b.consecFails++
	switch b.state {
	case BreakerClosed:
		if b.consecFails >= b.p.DownAfter {
			b.open(now)
		}
	case BreakerHalfOpen:
		b.open(now)
	case BreakerOpen:
		// A straggler from a request admitted before the circuit opened;
		// the streak count above is all it contributes.
	}
}

// open (re)opens the circuit, doubling the reopen wait; caller holds b.mu.
func (b *breaker) open(now time.Time) {
	if b.wait <= 0 {
		b.wait = b.p.Backoff
	} else {
		b.wait *= 2
	}
	if b.wait > b.p.MaxBackoff {
		b.wait = b.p.MaxBackoff
	}
	b.state = BreakerOpen
	b.reopenAt = now.Add(b.jittered(b.wait))
	b.opens++
}

// snapshot reads the breaker for Health() and the metrics; the caller fills
// in the shard's address and bodies.
func (b *breaker) snapshot(now time.Time) Health {
	b.mu.Lock()
	defer b.mu.Unlock()
	h := Health{
		Breaker:             b.state,
		Requests:            b.requests,
		Failures:            b.failures,
		ShortCircuits:       b.shortCircuits,
		BreakerOpens:        b.opens,
		ConsecutiveFailures: b.consecFails,
		LastErr:             b.lastErr,
	}
	if b.state == BreakerOpen {
		h.ReopenIn = max(b.reopenAt.Sub(now), 0)
	}
	return h
}
