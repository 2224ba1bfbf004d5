package comm

import (
	"fmt"
	"sync/atomic"

	"ensembler/internal/nn"
)

// This file is the server half of sharded serving: a provider wrapper that
// restricts every resolved model to a contiguous body subset [lo, hi). A
// shard server is an ordinary comm.Server constructed over a subset
// provider — the wire protocol is unchanged, the response simply carries
// hi−lo feature tensors instead of N. The client-side scatter-gather
// runtime (package shard) reassembles the full body order across shards and
// applies the secret selector locally, so a compromised shard host observes
// only its own bodies' traffic and, as ever, no selection indices.

// subsetProvider restricts every model resolved through the inner provider
// to the body range [lo, hi). last caches the most recent restriction, which
// Resolve hands out again for as long as the inner provider resolves to the
// same model (compared with ==, so the inner models must be of comparable
// types — every provider here returns pointers): a shard's steady state (one
// epoch, resolved per request) then allocates nothing.
type subsetProvider struct {
	inner  ModelProvider
	lo, hi int
	last   atomic.Pointer[subsetModel]
}

// NewSubsetProvider wraps a provider so every resolved model serves only
// bodies [lo, hi) of the underlying ensemble — the restriction behind
// ensembler-serve's -shard k/K flag. The subset keeps the underlying
// model's name, version, and epoch sequence, so hot swaps and rotations
// propagate to shard servers exactly as they do to a monolith.
func NewSubsetProvider(p ModelProvider, lo, hi int) (ModelProvider, error) {
	if p == nil {
		return nil, fmt.Errorf("comm: subset provider needs an inner provider")
	}
	if lo < 0 || hi <= lo {
		return nil, fmt.Errorf("comm: invalid body subset [%d,%d)", lo, hi)
	}
	return &subsetProvider{inner: p, lo: lo, hi: hi}, nil
}

func (sp *subsetProvider) Resolve(model string, version int) (ServedModel, error) {
	m, err := sp.inner.Resolve(model, version)
	if err != nil {
		return nil, err
	}
	if last := sp.last.Load(); last != nil && last.ServedModel == m {
		return last, nil
	}
	// A shard launched with the wrong -shard k/K against a smaller model is
	// refused here instead of serving garbage; an epoch that fits is cached,
	// so the check runs once per epoch.
	if n := len(m.Bodies()); sp.hi > n {
		return nil, fmt.Errorf("comm: model %q v%d has %d bodies, shard wants [%d,%d) — was the fleet planned for a different N?",
			m.Name(), m.Version(), n, sp.lo, sp.hi)
	}
	sm := &subsetModel{ServedModel: m, lo: sp.lo, hi: sp.hi}
	sp.last.Store(sm)
	return sm, nil
}

// subsetModel narrows one resolved model to the shard's body range. Name,
// Version, and Seq pass through unchanged: a shard server's compiled bodies
// key on the same epoch identity as a monolith's, so a registry publish
// swaps a shard's bodies on exactly the same trigger.
type subsetModel struct {
	ServedModel
	lo, hi int
}

// Bodies slices the model's bodies to the shard's range, which Resolve
// checked; the shard compiles only those.
func (m *subsetModel) Bodies() []*nn.Network { return m.ServedModel.Bodies()[m.lo:m.hi] }
