// Package faultpoint is a deterministic fault-injection registry: named
// sites compiled into production code paths at trust boundaries (accept,
// negotiation, frame I/O, budget charge, registry publish,
// shard exchange), armed only by tests, the chaos harness, or an operator
// who explicitly opted in (ensembler-serve refuses ENSEMBLER_FAULTPOINTS
// without -allow-faultpoints).
//
// The design constraint is the serving hot path: a disabled site must cost
// one atomic load and a predicted branch — 0 allocations, ~1ns — so sites
// can live inside loops that are CI-pinned at 0 allocs/op
// (BenchmarkServeRequestLoopFaultpointsDisabled gates exactly this). The
// fast path therefore checks a single package-global atomic.Bool that is
// true iff ANY site is armed; per-site state is consulted only behind it.
//
// Determinism: every armed site draws its trigger decisions from its own
// rng stream, seeded as masterSeed ^ fnv64(siteName). Re-arming a site
// resets its stream and counters, so a fixed (seed, policy, hit sequence)
// always yields the same fault sequence — the property the chaos harness
// needs to replay a failure from its logged seed.
package faultpoint

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ensembler/internal/rng"
)

// Kind is the failure a triggered site injects.
type Kind uint8

const (
	// Error makes the site return an injected error.
	Error Kind = iota
	// Panic makes the site panic (exercises recover paths).
	Panic
	// Delay makes the site sleep before proceeding normally.
	Delay
	// PartialWrite instructs a write-capable site to emit only a fraction
	// of the payload before failing — a torn frame. Sites that cannot cut a
	// write treat it as Error.
	PartialWrite
	// ConnReset instructs a connection-owning site to cut the payload and
	// abruptly close the underlying connection mid-frame. Sites without a
	// connection treat it as Error.
	ConnReset
)

func (k Kind) String() string {
	switch k {
	case Error:
		return "error"
	case Panic:
		return "panic"
	case Delay:
		return "delay"
	case PartialWrite:
		return "partial-write"
	case ConnReset:
		return "conn-reset"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// ErrInjected is the default error an Error/PartialWrite/ConnReset trigger
// returns; call sites and tests match it with errors.Is.
var ErrInjected = errors.New("faultpoint: injected fault")

// Policy says when a site triggers and what it does. The zero value is a
// always-trigger Error policy.
type Policy struct {
	Kind Kind
	// Err overrides the injected error (default ErrInjected, wrapped with
	// the site name).
	Err error
	// Delay is the sleep for Kind Delay.
	Delay time.Duration
	// Frac is the fraction of the payload a PartialWrite/ConnReset site
	// emits before cutting, clamped to [0,1); 0 means half.
	Frac float64
	// Prob is the per-hit trigger probability; 0 or ≥1 means always.
	Prob float64
	// After skips the first After hits before triggering starts.
	After int
	// Count caps the number of triggers; 0 means unlimited.
	Count int
}

// Outcome is one triggered fault, resolved against the policy defaults.
type Outcome struct {
	Kind  Kind
	Err   error
	Delay time.Duration
	Frac  float64
}

// Stats is one site's hit/trigger accounting since it was last armed.
type Stats struct {
	Name     string
	Armed    bool
	Hits     uint64
	Triggers uint64
}

// Site is one named injection point. Obtain via New at package init (or
// lazily for dynamic names like per-shard sites); arm via Enable.
type Site struct {
	name  string
	state atomic.Pointer[siteState]
	// hits/triggers survive disarming so Stats stays readable after a
	// chaos window closes; re-arming resets them.
	hits     atomic.Uint64
	triggers atomic.Uint64
}

type siteState struct {
	mu   sync.Mutex
	p    Policy
	r    *rng.RNG
	hits int
	done int // triggers consumed against p.Count
}

var (
	regMu   sync.Mutex
	sites   = map[string]*Site{}
	pending = map[string]Policy{} // Enable before New (dynamic sites)
	armed   int                   // number of armed sites
	seed    int64                 = 1

	// active is the global fast-path gate: true iff armed > 0. Every
	// disabled Fire/Inject is exactly one load of this plus a branch.
	active atomic.Bool
)

// fnv64 hashes a site name for seed derivation (FNV-1a).
func fnv64(s string) int64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return int64(h)
}

// New registers (or returns the existing) site with the given name. Safe at
// package init and from concurrent constructors; a policy Enabled before
// registration arms the new site immediately.
func New(name string) *Site {
	regMu.Lock()
	defer regMu.Unlock()
	if s, ok := sites[name]; ok {
		return s
	}
	s := &Site{name: name}
	sites[name] = s
	if p, ok := pending[name]; ok {
		// The pending entry already counted toward armed when Enabled;
		// transfer it to the live site without recounting.
		delete(pending, name)
		s.state.Store(&siteState{p: p, r: rng.New(seed ^ fnv64(name))})
	}
	return s
}

// Name reports the site's registered name.
func (s *Site) Name() string { return s.name }

// armLocked arms s with p; caller holds regMu.
func armLocked(s *Site, p Policy) {
	if s.state.Load() == nil {
		armed++
	}
	s.hits.Store(0)
	s.triggers.Store(0)
	s.state.Store(&siteState{p: p, r: rng.New(seed ^ fnv64(s.name))})
	active.Store(armed > 0)
}

// Enable arms the named site with p, resetting its counters and rng stream.
// An unknown name is stashed and applied when the site registers — dynamic
// sites (per-shard) may not exist yet when a chaos schedule is built.
func Enable(name string, p Policy) {
	regMu.Lock()
	defer regMu.Unlock()
	if s, ok := sites[name]; ok {
		armLocked(s, p)
		return
	}
	pending[name] = p
	armed++ // pending policies count as armed: the site fires on creation
	active.Store(true)
}

// Disable disarms the named site (or drops its pending policy). Counters
// remain readable via SiteStats.
func Disable(name string) {
	regMu.Lock()
	defer regMu.Unlock()
	if s, ok := sites[name]; ok {
		if s.state.Swap(nil) != nil {
			armed--
		}
	} else if _, ok := pending[name]; ok {
		delete(pending, name)
		armed--
	}
	active.Store(armed > 0)
}

// DisableAll disarms every site and clears pending policies — the test/
// chaos teardown that restores the zero-overhead state.
func DisableAll() {
	regMu.Lock()
	defer regMu.Unlock()
	for _, s := range sites {
		s.state.Store(nil)
	}
	pending = map[string]Policy{}
	armed = 0
	active.Store(false)
}

// SetSeed sets the master seed future Enable calls derive per-site streams
// from. It does not reseed already-armed sites.
func SetSeed(s int64) {
	regMu.Lock()
	defer regMu.Unlock()
	seed = s
}

// Active lists armed site names (pending ones included), sorted.
func Active() []string {
	regMu.Lock()
	defer regMu.Unlock()
	var out []string
	for name, s := range sites {
		if s.state.Load() != nil {
			out = append(out, name)
		}
	}
	for name := range pending {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Names lists every registered site, sorted — the operator's menu.
func Names() []string {
	regMu.Lock()
	defer regMu.Unlock()
	out := make([]string, 0, len(sites))
	for name := range sites {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// SiteStats snapshots hit/trigger counters for every registered site,
// sorted by name.
func SiteStats() []Stats {
	regMu.Lock()
	defer regMu.Unlock()
	out := make([]Stats, 0, len(sites))
	for name, s := range sites {
		out = append(out, Stats{
			Name:     name,
			Armed:    s.state.Load() != nil,
			Hits:     s.hits.Load(),
			Triggers: s.triggers.Load(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ResetStats zeroes every site's hit/trigger counters (arming a site
// already resets its own). Harnesses that account triggers per run call it
// so the ledger starts from a clean slate.
func ResetStats() {
	regMu.Lock()
	defer regMu.Unlock()
	for _, s := range sites {
		s.hits.Store(0)
		s.triggers.Store(0)
	}
}

// Fire is the general site check: reports whether the site triggers on this
// hit and, if so, the resolved fault. The disabled cost is one atomic load
// and a branch — no allocation (the zero Outcome never escapes).
func (s *Site) Fire() (Outcome, bool) {
	if !active.Load() {
		return Outcome{}, false
	}
	return s.fireSlow()
}

// Inject is the one-line form for sites that can only fail, stall, or
// panic: it sleeps through Delay triggers itself and returns the injected
// error otherwise (PartialWrite/ConnReset degrade to Error here). Same
// disabled cost as Fire.
func (s *Site) Inject() error {
	if !active.Load() {
		return nil
	}
	out, ok := s.fireSlow()
	if !ok {
		return nil
	}
	if out.Kind == Delay {
		time.Sleep(out.Delay)
		return nil
	}
	return out.Err
}

func (s *Site) fireSlow() (Outcome, bool) {
	st := s.state.Load()
	if st == nil {
		return Outcome{}, false
	}
	st.mu.Lock()
	st.hits++
	s.hits.Add(1)
	trigger := st.hits > st.p.After &&
		(st.p.Count <= 0 || st.done < st.p.Count) &&
		(st.p.Prob <= 0 || st.p.Prob >= 1 || st.r.Float64() < st.p.Prob)
	if trigger {
		st.done++
	}
	p := st.p
	st.mu.Unlock()
	if !trigger {
		return Outcome{}, false
	}
	s.triggers.Add(1)
	out := Outcome{Kind: p.Kind, Err: p.Err, Delay: p.Delay, Frac: p.Frac}
	if out.Err == nil {
		out.Err = fmt.Errorf("%w at %s", ErrInjected, s.name)
	}
	if out.Frac <= 0 || out.Frac >= 1 {
		out.Frac = 0.5
	}
	if p.Kind == Panic {
		panic(fmt.Sprintf("faultpoint: injected panic at %s", s.name))
	}
	return out, true
}

// CutLen is the byte count a PartialWrite/ConnReset outcome lets through:
// Frac of the payload, at least 1 byte when the payload is non-empty (a
// 0-byte "partial" write is indistinguishable from a clean failure) and
// always short of the full length.
func (o Outcome) CutLen(n int) int {
	if n <= 0 {
		return 0
	}
	cut := int(float64(n) * o.Frac)
	if cut < 1 {
		cut = 1
	}
	if cut >= n {
		cut = n - 1
	}
	return cut
}
