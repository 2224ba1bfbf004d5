// Package privacy limits how many rows one client identity can pull from
// the serving stack. The paper's adversary is the honest-but-curious server;
// this package meters the other side — a querying client that extracts the
// server bodies, or their training membership, by asking many questions.
// For that threat a per-identity row budget is the whole mechanism; it is
// rate limiting, not differential privacy. The pieces:
//
//   - a sharded per-client Ledger (this file): one atomic row counter per
//     identity, checked against a fixed row budget, keyed by the
//     wire-negotiated client identity;
//   - a Guard (policy.go) that escalates as an account drains: noise the
//     responses, double the noise, then refuse.
//
// The package is tensor-free and imports nothing from the serving stack.
package privacy

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

const (
	// DefaultMaxClients bounds how many client accounts the ledger tracks
	// before evicting the least recently connected.
	DefaultMaxClients = 4096
	// DefaultShards is the ledger's default shard count (rounded up to a
	// power of two).
	DefaultShards = 64
)

// LedgerConfig configures a Ledger. BudgetRows is required; everything else
// has serviceable defaults.
type LedgerConfig struct {
	// BudgetRows is how many rows one identity may be served before its
	// requests are refused.
	BudgetRows int64
	// MaxClients bounds tracked accounts; the least recently connected
	// account is evicted past the bound. Defaults to DefaultMaxClients.
	MaxClients int
	// Shards is the number of account-map shards. Defaults to
	// DefaultShards; rounded up to a power of two.
	Shards int
	// Now is the clock (tests); nil uses time.Now.
	Now func() time.Time

	// BudgetEps, QueryEps and SecretFraction are a shim kept only because
	// the frozen benchmark module still builds its ledgers from them: when
	// BudgetRows is 0, NewLedger budgets BudgetEps/QueryEps rows and ignores
	// SecretFraction. Delete with the next benchmark change.
	BudgetEps, QueryEps, SecretFraction float64
}

// Account is one client's row counter. The charge path touches only the
// atomic fields, so concurrent requests from one client never take a lock.
type Account struct {
	id string

	spent    atomic.Int64  // rows served
	refusals atomic.Uint64 // requests refused for this account
	lastSeen atomic.Int64  // unix nanos at last AccountFor — the eviction clock
}

// ID returns the client identity the account is keyed by.
func (a *Account) ID() string { return a.id }

// Spent returns the rows the account has been served.
func (a *Account) Spent() int64 { return a.spent.Load() }

type ledgerShard struct {
	mu       sync.RWMutex
	accounts map[string]*Account
}

// Ledger is the sharded per-client row store. AccountFor resolves a client
// identity to its Account once per connection; the per-request charge then
// runs entirely on that account's atomics — the discipline that keeps the
// serving loop at zero allocations per request (asserted by the comm
// benchmarks with the ledger enabled).
type Ledger struct {
	budget   int64 // rows per account
	noiseAt  int64 // remaining-row thresholds of the ladder (policy.go)
	heavyAt  int64
	maxShard int // per-shard account bound (MaxClients / shards)
	mask     uint64
	shards   []ledgerShard
	now      func() time.Time

	clients   atomic.Int64
	evictions atomic.Uint64
	rowsTotal atomic.Uint64
}

// NewLedger validates cfg and builds the ledger.
func NewLedger(cfg LedgerConfig) (*Ledger, error) {
	if cfg.BudgetRows == 0 && cfg.BudgetEps > 0 && cfg.QueryEps > 0 {
		cfg.BudgetRows = int64(cfg.BudgetEps / cfg.QueryEps)
	}
	if cfg.BudgetRows <= 0 {
		return nil, fmt.Errorf("privacy: ledger needs a positive row budget, got %d", cfg.BudgetRows)
	}
	if cfg.MaxClients <= 0 {
		cfg.MaxClients = DefaultMaxClients
	}
	if cfg.Shards <= 0 {
		cfg.Shards = DefaultShards
	}
	shards := 1
	for shards < cfg.Shards {
		shards <<= 1
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	maxShard := cfg.MaxClients / shards
	if maxShard < 1 {
		maxShard = 1
	}
	return &Ledger{
		budget:   cfg.BudgetRows,
		noiseAt:  int64(NoiseAt * float64(cfg.BudgetRows)),
		heavyAt:  int64(HeavyNoiseAt * float64(cfg.BudgetRows)),
		maxShard: maxShard,
		mask:     uint64(shards - 1),
		shards:   make([]ledgerShard, shards),
		now:      cfg.Now,
	}, nil
}

// fnv1a hashes a client identity to its shard (inline FNV-1a, no
// allocation).
func fnv1a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// AccountFor resolves (creating if needed) the account for a client
// identity. Called once per connection, not per request; may evict the
// shard's least recently connected account past the capacity bound.
func (l *Ledger) AccountFor(id string) *Account {
	sh := &l.shards[fnv1a(id)&l.mask]
	now := l.now().UnixNano()

	sh.mu.RLock()
	a := sh.accounts[id]
	sh.mu.RUnlock()
	if a != nil {
		a.lastSeen.Store(now)
		return a
	}

	sh.mu.Lock()
	defer sh.mu.Unlock()
	if a = sh.accounts[id]; a != nil {
		a.lastSeen.Store(now)
		return a
	}
	if sh.accounts == nil {
		sh.accounts = make(map[string]*Account)
	}
	for len(sh.accounts) >= l.maxShard {
		var lruID string
		lru := int64(1<<63 - 1)
		for k, cand := range sh.accounts {
			if seen := cand.lastSeen.Load(); seen < lru {
				lruID, lru = k, seen
			}
		}
		delete(sh.accounts, lruID)
		l.clients.Add(-1)
		l.evictions.Add(1)
	}
	a = &Account{id: id}
	a.lastSeen.Store(now)
	sh.accounts[id] = a
	l.clients.Add(1)
	return a
}

// debit takes n rows from the account if they fit what remains and returns
// the account's spent rows after the charge. A debit that does not fit
// changes nothing, so a refused request costs nothing and a smaller one
// after it can still be served.
func (l *Ledger) debit(a *Account, n int64) (spent int64, ok bool) {
	for {
		s := a.spent.Load()
		if s+n > l.budget {
			return s, false
		}
		if a.spent.CompareAndSwap(s, s+n) {
			l.rowsTotal.Add(uint64(n))
			return s + n, true
		}
	}
}

// level reports the ladder rung of an account that has spent rows.
func (l *Ledger) level(spent int64) int32 {
	switch remaining := l.budget - spent; {
	case remaining <= 0:
		return LevelRefused
	case remaining <= l.heavyAt:
		return LevelHeavyNoise
	case remaining <= l.noiseAt:
		return LevelNoise
	}
	return LevelOK
}

// ClientBudget is one account's externally visible state — the /budget admin
// payload and the auditor's worst-drained-client input.
type ClientBudget struct {
	Client    string  `json:"client"`
	Spent     int64   `json:"spent_rows"`
	Remaining int64   `json:"remaining_rows"`
	Drained   float64 `json:"drained"` // Spent / budget, clamped to [0,1]
	Level     int     `json:"level"`
	Refusals  uint64  `json:"refusals"`
}

func (l *Ledger) clientBudget(a *Account) ClientBudget {
	spent := a.spent.Load()
	return ClientBudget{
		Client:    a.id,
		Spent:     spent,
		Remaining: max(l.budget-spent, 0),
		Drained:   min(float64(spent)/float64(l.budget), 1),
		Level:     int(l.level(spent)),
		Refusals:  a.refusals.Load(),
	}
}

// Snapshot returns every tracked account's state, most drained first.
func (l *Ledger) Snapshot() []ClientBudget {
	var out []ClientBudget
	for i := range l.shards {
		sh := &l.shards[i]
		sh.mu.RLock()
		for _, a := range sh.accounts {
			out = append(out, l.clientBudget(a))
		}
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Spent != out[j].Spent {
			return out[i].Spent > out[j].Spent
		}
		return out[i].Client < out[j].Client
	})
	return out
}

// TopSpenders returns the n most drained accounts.
func (l *Ledger) TopSpenders(n int) []ClientBudget {
	all := l.Snapshot()
	if n < len(all) {
		all = all[:n]
	}
	return all
}

// LedgerStats is the ledger's aggregate telemetry snapshot.
type LedgerStats struct {
	Clients    int    `json:"clients"`
	Evictions  uint64 `json:"evictions"`
	Rows       uint64 `json:"rows_charged"`
	BudgetRows int64  `json:"budget_rows"`
	MaxClients int    `json:"max_clients"`
}

// Stats reports the ledger's aggregate counters and configuration.
func (l *Ledger) Stats() LedgerStats {
	return LedgerStats{
		Clients:    int(l.clients.Load()),
		Evictions:  l.evictions.Load(),
		Rows:       l.rowsTotal.Load(),
		BudgetRows: l.budget,
		MaxClients: l.maxShard * len(l.shards),
	}
}
