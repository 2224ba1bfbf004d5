package privacy

import (
	"fmt"
	"sync/atomic"
	"time"
)

// The escalation ladder. An account's rung is a function of the rows it has
// left: the ledger only drains, so an account only ever climbs.
const (
	// NoiseSigma is the standard deviation of the Gaussian noise added to
	// response features at LevelNoise (doubled at LevelRotate) — the same
	// order as the training-time feature noise.
	NoiseSigma = 0.05
	// NoiseAt is the remaining-budget fraction at or below which noise
	// starts.
	NoiseAt = 0.5
	// RotateAt is the remaining-budget fraction at or below which a selector
	// rotation is requested.
	RotateAt = 0.2
)

// Escalation levels, as ClientBudget.Level reports them.
const (
	// LevelOK serves normally.
	LevelOK = iota
	// LevelNoise adds Gaussian noise of NoiseSigma to response features.
	LevelNoise
	// LevelRotate doubles the noise and requests a selector rotation via the
	// RotateFunc plumbing — the drained client has seen enough of this epoch.
	LevelRotate
	// LevelRefused marks an exhausted account: any further request is
	// refused.
	LevelRefused
)

// PolicyConfig configures a Guard. The zero value enforces the ladder with
// no rotation hook.
type PolicyConfig struct {
	// Observe runs the ledger in accounting-only mode: budgets drain and the
	// admin plane reports them, but no request is ever noised, rotated on, or
	// refused. The flag form is -privacy-policy observe.
	Observe bool
	// Rotate, when non-nil, is invoked (on its own goroutine, single-flight,
	// rate-limited by MinRotateInterval) when any account first crosses
	// RotateAt — the audit subsystem's RotateFunc plumbing.
	Rotate func(cause string)
	// MinRotateInterval rate-limits budget-driven rotations. Default 1m.
	MinRotateInterval time.Duration
	// Now is the clock (tests); nil uses time.Now.
	Now func() time.Time
}

// Verdict is the guard's decision for one request: refuse it outright, or
// serve it with sigma-scaled Gaussian noise (sigma 0: serve clean).
type Verdict struct {
	Refuse bool
	Sigma  float64
}

// Guard binds a Ledger to the escalation ladder. It is what the comm server
// consults on the hot path: Charge is O(1) atomics on the account and a few
// integer compares, so a guard-enabled server keeps the zero-allocation
// serving loop.
type Guard struct {
	ledger *Ledger
	cfg    PolicyConfig

	lastRotate atomic.Int64
	refused    atomic.Uint64
	noised     atomic.Uint64
	rotations  atomic.Uint64
}

// NewGuard fills cfg's defaults and binds the ladder to the ledger.
func NewGuard(l *Ledger, cfg PolicyConfig) (*Guard, error) {
	if l == nil {
		return nil, fmt.Errorf("privacy: guard needs a ledger")
	}
	if cfg.MinRotateInterval == 0 {
		cfg.MinRotateInterval = time.Minute
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &Guard{ledger: l, cfg: cfg}, nil
}

// Ledger returns the guard's budget store (the admin plane and auditor read
// it).
func (g *Guard) Ledger() *Ledger { return g.ledger }

// AccountFor resolves the account one connection charges against: the
// wire-negotiated client ID, or the handler's address bucket for legacy
// peers.
func (g *Guard) AccountFor(id string) *Account { return g.ledger.AccountFor(id) }

// Charge records rows served rows against the account and returns the
// ladder's verdict. A request is refused exactly when its rows do not fit
// what the account has left; the refusal costs nothing. The hot path is
// atomics and integer compares only; allocation happens only on the cold
// rotation edge.
func (g *Guard) Charge(a *Account, rows int) Verdict {
	n := int64(max(rows, 1))
	l := g.ledger
	if g.cfg.Observe {
		a.spent.Add(n)
		l.rowsTotal.Add(uint64(n))
		return Verdict{}
	}
	spent, ok := l.debit(a, n)
	if !ok {
		a.refusals.Add(1)
		g.refused.Add(1)
		return Verdict{Refuse: true}
	}
	switch lvl := l.level(spent); {
	case lvl >= LevelRotate: // the request that spends the last row is still served
		// Debits are serialized by the CAS, so exactly one charge per
		// account crosses into the rotate rung.
		if l.level(spent-n) < LevelRotate {
			g.requestRotate(a)
		}
		g.noised.Add(1)
		return Verdict{Sigma: 2 * NoiseSigma}
	case lvl == LevelNoise:
		g.noised.Add(1)
		return Verdict{Sigma: NoiseSigma}
	}
	return Verdict{}
}

// requestRotate fires the policy's rotation hook once per
// MinRotateInterval, on its own goroutine — rotation walks the registry and
// must never run under the serving path.
func (g *Guard) requestRotate(a *Account) {
	if g.cfg.Rotate == nil {
		return
	}
	now := g.cfg.Now().UnixNano()
	last := g.lastRotate.Load()
	if last != 0 && now-last < g.cfg.MinRotateInterval.Nanoseconds() {
		return
	}
	if !g.lastRotate.CompareAndSwap(last, now) {
		return
	}
	g.rotations.Add(1)
	cause := fmt.Sprintf("privacy budget: client %s drained past the rotation threshold", a.id)
	go g.cfg.Rotate(cause)
}

// Refusals reports how many requests the guard refused.
func (g *Guard) Refusals() uint64 { return g.refused.Load() }

// Noised reports how many requests were served with escalation noise.
func (g *Guard) Noised() uint64 { return g.noised.Load() }

// Rotations reports how many budget-driven rotations the guard requested.
func (g *Guard) Rotations() uint64 { return g.rotations.Load() }

// Observing reports whether the guard runs in accounting-only mode.
func (g *Guard) Observing() bool { return g.cfg.Observe }
