package comm

// Privacy-budget enforcement on the serving path. A server constructed with
// WithBudget charges every request's row count to the connection's client
// account (the wire-declared identity, or an address bucket for peers that
// declared none) and applies the guard's verdict: serve clean, serve with
// Gaussian noise on the response features as the budget drains, or refuse
// outright with CodeBudgetExhausted once it is spent. The charge is O(1) atomics and
// the noise is in-place arithmetic over arena tensors, so a guarded server
// keeps the zero-allocation steady state (BenchmarkServeRequestLoopLedger
// pins this).

import (
	"math"
	"net"
	"sync/atomic"

	"ensembler/internal/privacy"
	"ensembler/internal/tensor"
)

// budgetExhaustedMsg is the constant refusal text: building it per refusal
// would allocate exactly when a drained client is hammering the server.
const budgetExhaustedMsg = "privacy budget exhausted"

// WithBudget attaches a privacy-budget guard: every served row debits the
// requesting client's row budget and the guard's escalation ladder
// (noise → doubled noise → refusal) shapes the response. nil disables budgeting
// at zero hot-path cost.
func WithBudget(g *privacy.Guard) ServerOption {
	return func(o *serverOptions) { o.guard = g }
}

// addrBucket derives the ledger identity of a peer that declared no client
// ID: the host portion of its remote address, so every connection from one
// machine shares one account. The prefix keeps address buckets disjoint from declared IDs, which are
// printable-ASCII and never contain "addr:" by way of the colon being legal
// — so the prefix namespace is enforced, not assumed: a declared ID equal to
// an address bucket string still maps to a different account only if it
// includes the prefix itself, which is fine — both spend real budget.
func addrBucket(addr net.Addr) string {
	if addr == nil {
		return "addr:unknown"
	}
	host, _, err := net.SplitHostPort(addr.String())
	if err != nil || host == "" {
		return "addr:" + addr.String()
	}
	return "addr:" + host
}

// noiseSeq seeds each job's private noise generator: a distinct odd seed per
// job, no clock or global RNG on the serving path.
var noiseSeq atomic.Uint64

// xorshift64 advances a job's noise state.
func xorshift64(s *uint64) uint64 {
	x := *s
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*s = x
	return x
}

// gauss draws one standard normal via Box-Muller over the job's xorshift
// state — scalar math only, nothing escapes.
func gauss(s *uint64) float64 {
	u1 := (float64(xorshift64(s)>>11) + 1) / (1 << 53) // (0,1]: log never sees 0
	u2 := float64(xorshift64(s)>>11) / (1 << 53)
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

func noiseData[T tensor.Float](s *uint64, data []T, sigma float64) {
	for i := range data {
		data[i] += T(sigma * gauss(s))
	}
}

// noiseResponse perturbs a served response's payload in place with Gaussian
// noise of the job's verdict sigma — the budget-aware analogue of the
// client's own transmission noise, raising the floor of what a drained
// client's further queries can resolve. The tensors are arena-backed and
// about to be encoded, so in-place addition is safe and allocation-free.
func noiseResponse(j *job) {
	if j.noiseSigma <= 0 {
		return
	}
	if j.rng == 0 {
		j.rng = noiseSeq.Add(1)*0x9E3779B97F4A7C15 | 1
	}
	j.pay.noise(&j.rng, j.noiseSigma)
}

// chargeJob runs the budget verdict for one job before any compute: a
// refusal fills the job's response (fixed text, honest code, no allocation)
// and reports false; otherwise the
// verdict's noise sigma is parked on the job for noiseResponse to apply
// after the forward pass.
func (s *Server) chargeJob(j *job) bool {
	g := s.opts.guard
	if g == nil {
		return true
	}
	// Fault site: an injected charge failure refuses the request before any
	// compute, like a ledger that cannot render a verdict — fail closed.
	if err := fpBudget.Inject(); err != nil {
		j.resp = Response{Err: err.Error()}
		return false
	}
	if j.account == nil {
		return true
	}
	_, rows := j.pay.size()
	v := g.Charge(j.account, rows)
	if v.Refuse {
		// Metrics stay honest without special-casing: serve records the
		// refusal like any other answer (Err non-empty, so it counts as an
		// error).
		j.resp = Response{Err: budgetExhaustedMsg, Code: CodeBudgetExhausted}
		return false
	}
	j.noiseSigma = v.Sigma
	return true
}
