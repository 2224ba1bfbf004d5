// Package commtest provides the deterministic untrained serving harness
// shared by the comm concurrency tests and the serving benchmark
// (bench/): seeded bodies that rebuild bit-identically
// (standing in for a trained server's bodies), a raw-protocol
// client wiring (identity head, concat-all selection, linear tail), and a
// local reference computation to check remote results against. Untrained
// networks cost exactly as much to run as trained ones, which is all a
// serving benchmark needs.
package commtest

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"testing"

	"ensembler/internal/comm"
	"ensembler/internal/ensemble"
	"ensembler/internal/faultpoint"
	"ensembler/internal/nn"
	"ensembler/internal/registry"
	"ensembler/internal/rng"
	"ensembler/internal/shard"
	"ensembler/internal/split"
	"ensembler/internal/tensor"
)

// TinyArch is the smallest split architecture the harness runs — fast
// enough for race-detector test loops.
func TinyArch() split.Arch {
	return split.Arch{InC: 3, H: 8, W: 8, HeadC: 4, BlockWidths: []int{8, 16}, Classes: 4, UseMaxPool: true}
}

// Bodies deterministically builds n server bodies for arch; every call
// returns networks with identical weights and private caches, so it doubles
// as a private copy of the server's bodies for reference computations.
func Bodies(arch split.Arch, n int) []*nn.Network {
	out := make([]*nn.Network, n)
	for i := range out {
		out[i] = arch.NewBody(fmt.Sprintf("b%d", i), rng.New(int64(i+1)))
	}
	return out
}

// Pipeline deterministically builds an untrained but fully wired Ensembler
// over arch — members, secret selector, final head/noise/tail. Registry and
// hot-swap harnesses publish these: an untrained pipeline costs exactly as
// much to serve, clone, and persist as a trained one, and different seeds
// give bit-distinguishable model versions.
func Pipeline(arch split.Arch, n, p int, seed int64) *ensemble.Ensembler {
	return ensemble.New(ensemble.Config{
		Arch: arch, N: n, P: p, Sigma: 0.05, Lambda: 0.5, Seed: seed, Stage1Noise: true,
	})
}

// PlantTornPublish leaves in a store directory what a publish of e as model
// name leaves when its process dies before the final rename: a
// registry.PublishTempPrefix temp dir holding the model file cut short, or
// (late) the whole model file and a manifest, laid out with the registry's
// own file names. Nothing in it is a visible version; the store's next Open
// must quarantine it.
func PlantTornPublish(t testing.TB, dir, name string, e *ensemble.Ensembler, late bool) {
	t.Helper()
	modelDir := filepath.Join(dir, name)
	if err := os.MkdirAll(modelDir, 0o755); err != nil {
		t.Fatal(err)
	}
	tmp, err := os.MkdirTemp(modelDir, registry.PublishTempPrefix+"*")
	if err != nil {
		t.Fatal(err)
	}
	var model bytes.Buffer
	if err := e.Save(&model); err != nil {
		t.Fatal(err)
	}
	b := model.Bytes()
	if !late {
		b = b[:len(b)/2]
	}
	if err := os.WriteFile(filepath.Join(tmp, registry.ModelFile), b, 0o644); err != nil {
		t.Fatal(err)
	}
	if late {
		manifest := fmt.Sprintf(`{"format": %d, "model": %q}`, registry.ManifestFormat, name)
		if err := os.WriteFile(filepath.Join(tmp, registry.ManifestFile), []byte(manifest), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// Tail deterministically builds the concat-all linear tail matching n
// bodies.
func Tail(arch split.Arch, n int) *nn.Network {
	return nn.NewNetwork("t", nn.NewLinear("fc", n*arch.FeatureDim(), arch.Classes, rng.New(99)))
}

// Wire points a client at identity features, a concat-everything selector,
// and a fresh deterministic tail — pure protocol mechanics, no trained
// pipeline. Each call builds a private tail, so concurrently used clients
// don't share forward caches.
func Wire(c *comm.Client, arch split.Arch, n int) {
	c.ComputeFeatures = func(x *tensor.Tensor) *tensor.Tensor { return x }
	c.Select = nn.ConcatFeatures
	c.Tail = Tail(arch, n)
}

// Input builds a deterministic feature batch of the given row count.
func Input(arch split.Arch, seed int64, rows int) *tensor.Tensor {
	x := tensor.New(rows, arch.HeadC, arch.H, arch.W)
	rng.New(seed).FillNormal(x.Data, 0, 1)
	return x
}

// Reference computes the expected logits for x on private copies of the
// server bodies and tail — what a remote round trip must reproduce
// bit-for-bit.
func Reference(arch split.Arch, n int, x *tensor.Tensor) *tensor.Tensor {
	bodies := Bodies(arch, n)
	feats := make([]*tensor.Tensor, n)
	for i, b := range bodies {
		feats[i] = b.Forward(x, false)
	}
	return Tail(arch, n).Forward(nn.ConcatFeatures(feats), false)
}

// Fleet is a running sharded deployment for tests: K shard servers over one
// registry-published pipeline, each hosting a disjoint body subset.
type Fleet struct {
	Pipeline *ensemble.Ensembler
	Registry *registry.Registry
	Addrs    []string
	Ranges   []shard.Range
	// Listeners are the shards' fault seams, in shard order: a fault armed
	// on one fails only that shard's conns.
	Listeners []*faultpoint.Listener

	cancels []context.CancelFunc
	serves  []chan error
}

// StartShards launches a K-shard fleet over a deterministic untrained
// pipeline (see Pipeline) published to a fresh in-memory registry, and
// registers full teardown with t.Cleanup. Every shard listens on a
// kernel-assigned loopback port whose listener is handed directly to
// Serve — ports are never closed and re-bound, which is what keeps these
// tests from flaking under -race in CI (the probe-then-rebind pattern
// races other test processes for the port).
func StartShards(t testing.TB, k, n, p int, seed int64, opts ...comm.ServerOption) *Fleet {
	t.Helper()
	e := Pipeline(TinyArch(), n, p, seed)
	reg := registry.New(nil)
	if _, err := reg.Publish("fleet", e); err != nil {
		t.Fatalf("publishing fleet pipeline: %v", err)
	}
	f, err := StartShardServers(reg, e, k, opts...)
	if err != nil {
		t.Fatalf("starting shard fleet: %v", err)
	}
	t.Cleanup(func() {
		for i := range f.cancels {
			if err := f.StopShard(i); err != nil {
				t.Errorf("shard %d serve: %v", i, err)
			}
		}
	})
	return f
}

// StartShardServers starts one comm.Server per shard of the plan, each over
// a subset provider on the registry, each on its own :0 listener behind a
// fault seam seeded from the pipeline's seed and the shard index (nothing is
// armed on it until a test arms it). The caller owns teardown via StopShard;
// StartShards wraps this with t.Cleanup for tests.
func StartShardServers(reg *registry.Registry, e *ensemble.Ensembler, k int, opts ...comm.ServerOption) (*Fleet, error) {
	ranges, err := shard.Plan(e.Cfg.N, k)
	if err != nil {
		return nil, err
	}
	f := &Fleet{Pipeline: e, Registry: reg, Ranges: ranges}
	for i, r := range ranges {
		provider, err := comm.NewSubsetProvider(reg, r.Lo, r.Hi)
		if err != nil {
			return nil, err
		}
		tcp, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		ln := faultpoint.Wrap(tcp, e.Cfg.Seed, i)
		srv := comm.NewModelServer(provider, append([]comm.ServerOption{comm.WithWorkers(2)}, opts...)...)
		ctx, cancel := context.WithCancel(context.Background())
		served := make(chan error, 1)
		go func() { served <- srv.Serve(ctx, ln) }()
		f.Addrs = append(f.Addrs, ln.Addr().String())
		f.cancels = append(f.cancels, cancel)
		f.serves = append(f.serves, served)
		f.Listeners = append(f.Listeners, ln)
	}
	return f, nil
}

// StopShard gracefully stops shard i (idempotent) and returns its Serve
// error — how a test kills one shard mid-traffic.
func (f *Fleet) StopShard(i int) error {
	if f.cancels[i] == nil {
		return nil
	}
	f.cancels[i]()
	f.cancels[i] = nil
	err := <-f.serves[i]
	f.Listeners[i].Close()
	return err
}

// ClientConfig returns a shard.Client configuration pointing at the fleet,
// wired through the published pipeline's client runtime.
func (f *Fleet) ClientConfig() shard.Config {
	return shard.Config{
		Addrs:      append([]string(nil), f.Addrs...),
		Ranges:     append([]shard.Range(nil), f.Ranges...),
		N:          f.Pipeline.Cfg.N,
		NewRuntime: shard.PipelineRuntime(f.Pipeline),
	}
}
