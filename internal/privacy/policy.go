package privacy

import (
	"fmt"
	"sync/atomic"
)

// The escalation ladder. An account's rung is a function of the rows it has
// left: the ledger only drains, so an account only ever climbs.
const (
	// NoiseSigma is the standard deviation of the Gaussian noise added to
	// response features at LevelNoise (doubled at LevelHeavyNoise) — the
	// same order as the training-time feature noise.
	NoiseSigma = 0.05
	// NoiseAt is the remaining-budget fraction at or below which noise
	// starts.
	NoiseAt = 0.5
	// HeavyNoiseAt is the remaining-budget fraction at or below which the
	// noise doubles.
	HeavyNoiseAt = 0.2
)

// Escalation levels, as ClientBudget.Level reports them.
const (
	// LevelOK serves normally.
	LevelOK = iota
	// LevelNoise adds Gaussian noise of NoiseSigma to response features.
	LevelNoise
	// LevelHeavyNoise doubles the noise: the drained client is close to
	// refusal.
	LevelHeavyNoise
	// LevelRefused marks an exhausted account: any further request is
	// refused.
	LevelRefused
)

// PolicyConfig configures a Guard. The zero value enforces the ladder.
type PolicyConfig struct {
	// Observe runs the ledger in accounting-only mode: budgets drain and the
	// admin plane reports them, but no request is ever noised or refused.
	// The flag form is -privacy-policy observe.
	Observe bool
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

	refused atomic.Uint64
	noised  atomic.Uint64
}

// NewGuard binds the ladder to the ledger.
func NewGuard(l *Ledger, cfg PolicyConfig) (*Guard, error) {
	if l == nil {
		return nil, fmt.Errorf("privacy: guard needs a ledger")
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
// what the account has left; the refusal costs nothing. The path is atomics
// and integer compares only.
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
	case lvl >= LevelHeavyNoise: // the request that spends the last row is still served
		g.noised.Add(1)
		return Verdict{Sigma: 2 * NoiseSigma}
	case lvl == LevelNoise:
		g.noised.Add(1)
		return Verdict{Sigma: NoiseSigma}
	}
	return Verdict{}
}

// Refusals reports how many requests the guard refused.
func (g *Guard) Refusals() uint64 { return g.refused.Load() }

// Noised reports how many requests were served with escalation noise.
func (g *Guard) Noised() uint64 { return g.noised.Load() }

// Observing reports whether the guard runs in accounting-only mode.
func (g *Guard) Observing() bool { return g.cfg.Observe }
