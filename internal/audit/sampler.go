// Package audit closes the loop between the paper's offline privacy
// evaluation and the live serving stack: it mirrors a bounded sample of the
// intermediate features clients actually transmit, periodically replays the
// repo's own model-inversion attacks against the currently published
// pipeline, and scores the reconstructions the way Tables I/II do (SSIM/PSNR
// against a calibration floor). The auditor is a gauge: it reports leakage
// against a threshold and never acts on it. Choosing a new selection is the
// secret holder's move, and the serving process does not hold that secret's
// authority — it only reloads what the holder publishes.
//
// The auditor is the defender auditing itself — it runs on the serving box,
// holds the full pipeline (head, secret selector, tail) the way the model
// owner already does, and therefore can measure an upper bound no real
// attacker reaches (see the threat-model discussion in DESIGN.md: mirroring
// features on-box widens no attack surface, because the box already holds
// them in memory on every request).
package audit

import (
	"sync"
	"sync/atomic"

	"ensembler/internal/rng"
	"ensembler/internal/tensor"
)

// Sample is one mirrored feature tensor with the epoch that served it.
type Sample struct {
	Model    string
	Version  int
	Features *tensor.Tensor // private copy, safe to retain
}

// Sampler is a reservoir sampler over the serving hot path, implementing
// comm.FeatureObserver. It mirrors every rate-th observed feature tensor
// into a bounded reservoir with uniform replacement, so the retained set is
// a uniform sample of everything mirrored since the last reset regardless
// of traffic volume.
//
// Cost contract (asserted by TestDisabledSamplerDoesNotAllocate):
//   - disabled (rate 0) or skipped observations: one atomic add, zero
//     allocations, no lock;
//   - sampled observations: one tensor copy plus a short mutex hold.
type Sampler struct {
	rate uint64 // mirror every rate-th observation; 0 disables
	cap  int

	seen    atomic.Uint64 // all observations
	sampled atomic.Uint64 // observations that entered the reservoir path

	mu        sync.Mutex
	r         *rng.RNG
	reservoir []Sample
	admitted  uint64 // reservoir-path observations since the last Reset
}

// NewSampler creates a sampler mirroring every rate-th observation into a
// reservoir of at most capacity tensors. rate 0 disables sampling entirely;
// rate 1 considers every request. The seed drives reservoir replacement
// (deterministic for tests; any value is fine in production).
func NewSampler(rate, capacity int, seed int64) *Sampler {
	if capacity <= 0 {
		capacity = 64
	}
	if rate < 0 {
		rate = 0
	}
	return &Sampler{
		rate: uint64(rate),
		cap:  capacity,
		r:    rng.New(seed),
	}
}

// Enabled reports whether the sampler mirrors anything at all.
func (s *Sampler) Enabled() bool { return s != nil && s.rate > 0 }

// ObserveFeatures implements the comm.FeatureObserver hot-path hook.
func (s *Sampler) ObserveFeatures(model string, version int, f *tensor.Tensor) {
	observe(s, model, version, f)
}

// ObserveFeatures32 implements the comm.FeatureObserver32 hot-path hook: on
// an f32-precision server the sampler receives the float32 tensors the
// compute path actually runs on, so the attack replay and SSIM scoring
// consume what production traffic really leaked, rounded nowhere further.
func (s *Sampler) ObserveFeatures32(model string, version int, f *tensor.Tensor32) {
	observe(s, model, version, f)
}

// observe is the sampler's one ingress at either precision. Skipped
// observations cost one atomic add, zero allocations, no lock; the copy into
// the float64 reservoir (exact for float32 — every float32 is a float64)
// happens only after the rate gate passes.
func observe[T tensor.Float](s *Sampler, model string, version int, f *tensor.Dense[T]) {
	if s == nil || s.rate == 0 {
		return
	}
	n := s.seen.Add(1)
	if n%s.rate != 0 {
		return
	}
	s.sampled.Add(1)
	// The tensor belongs to the request; copy before retaining. The copy
	// happens outside the lock so concurrent workers only serialize on the
	// cheap reservoir bookkeeping.
	smp := Sample{Model: model, Version: version, Features: tensor.ConvertInto(tensor.New(f.Shape...), f)}

	s.mu.Lock()
	defer s.mu.Unlock()
	s.admitted++
	if len(s.reservoir) < s.cap {
		s.reservoir = append(s.reservoir, smp)
		return
	}
	// Uniform reservoir replacement over the admitted stream.
	if j := s.r.Intn(int(s.admitted)); j < s.cap {
		s.reservoir[j] = smp
	}
}

// Snapshot returns a copy of the current reservoir (the tensors themselves
// are immutable once mirrored, so only the slice is copied).
func (s *Sampler) Snapshot() []Sample {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Sample(nil), s.reservoir...)
}

// Reset empties the reservoir — called after an audit consumed it, so the
// next audit scores fresh traffic (and features served after a reload never
// mix with those served before it).
func (s *Sampler) Reset() {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.reservoir = s.reservoir[:0]
	s.admitted = 0
	s.mu.Unlock()
}

// Counts reports how many feature tensors were observed and how many were
// mirrored since construction.
func (s *Sampler) Counts() (seen, sampled uint64) {
	if s == nil {
		return 0, 0
	}
	return s.seen.Load(), s.sampled.Load()
}
