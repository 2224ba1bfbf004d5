package comm

import (
	"strings"
	"testing"

	"ensembler/internal/nn"
	"ensembler/internal/rng"
	"ensembler/internal/tensor"
)

// subsetBodies builds deterministic bodies for the subset tests.
func subsetBodies(n int) []*nn.Network {
	out := make([]*nn.Network, n)
	for i := range out {
		out[i] = tinyArch().NewBody("sb", rng.New(int64(i+1)))
	}
	return out
}

func TestSubsetProviderServesBodyRange(t *testing.T) {
	bodies := subsetBodies(4)
	provider, err := NewSubsetProvider(&staticModel{bodies: bodies}, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewModelServer(provider)

	x := tensor.New(2, 4, 8, 8)
	rng.New(9).FillNormal(x.Data, 0, 1)
	resp := serveOne(srv, Request{Features: x})
	if resp.Err != "" {
		t.Fatalf("subset request failed: %s", resp.Err)
	}
	if len(resp.Features) != 2 {
		t.Fatalf("subset [1,3) returned %d features, want 2", len(resp.Features))
	}
	// The shard's response must be exactly bodies 1 and 2 of the full
	// ensemble, in body order — the invariant scatter-gather reassembly
	// depends on.
	for j, i := range []int{1, 2} {
		want := subsetBodies(4)[i].Forward(x, false)
		if !resp.Features[j].AllClose(want, 1e-12) {
			t.Errorf("subset feature %d does not match body %d", j, i)
		}
	}
}

func TestSubsetProviderRejectsOutOfRangeShard(t *testing.T) {
	provider, err := NewSubsetProvider(&staticModel{bodies: subsetBodies(3)}, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewModelServer(provider)
	x := tensor.New(1, 4, 8, 8)
	resp := serveOne(srv, Request{Features: x})
	if resp.Err == "" {
		t.Fatal("out-of-range shard must fail to resolve")
	}
	if !strings.Contains(resp.Err, "bodies") {
		t.Errorf("error should explain the body-range mismatch, got: %s", resp.Err)
	}
}

func TestNewSubsetProviderValidation(t *testing.T) {
	if _, err := NewSubsetProvider(nil, 0, 1); err == nil {
		t.Error("nil inner provider must be rejected")
	}
	sm := &staticModel{bodies: subsetBodies(2)}
	for _, r := range [][2]int{{-1, 1}, {2, 2}, {3, 1}} {
		if _, err := NewSubsetProvider(sm, r[0], r[1]); err == nil {
			t.Errorf("range [%d,%d) must be rejected", r[0], r[1])
		}
	}
}

func TestSubsetModelPassesThroughEpochIdentity(t *testing.T) {
	sm := &staticModel{bodies: subsetBodies(2)}
	provider, err := NewSubsetProvider(sm, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := provider.Resolve("", 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.Name() != sm.Name() || m.Version() != sm.Version() || m.Seq() != sm.Seq() {
		t.Error("subset model must keep the inner model's epoch identity")
	}
	// The subset serves the inner model's own bodies, sliced — never copies.
	if got := m.Bodies(); len(got) != 1 || got[0] != sm.bodies[0] {
		t.Errorf("subset bodies %v, want the inner model's body 0 itself", got)
	}
	// Unknown-model resolution errors pass through the wrapper.
	if _, err := provider.Resolve("nope", 0); err == nil {
		t.Error("inner resolution errors must propagate")
	}
}
