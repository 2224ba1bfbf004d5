package audit_test

import (
	"context"
	"net"
	"sync"
	"testing"

	"ensembler/internal/audit"
	"ensembler/internal/comm"
	"ensembler/internal/commtest"
	"ensembler/internal/data"
	"ensembler/internal/registry"
	"ensembler/internal/tensor"
)

// TestSamplingUnderEightClientLoad is the sampler's serving integration
// test: a registry-backed server with the reservoir sampler attached via
// the comm observer hook and eight concurrent clients hammering it. Every
// request must succeed — sampling is observation, never interference — and
// the reservoir must hold real transmitted features of the served epoch.
func TestSamplingUnderEightClientLoad(t *testing.T) {
	const (
		nBodies  = 4
		clients  = 8
		requests = 25
	)
	arch := commtest.TinyArch()
	reg := registry.New(nil)
	pipe := commtest.Pipeline(arch, nBodies, 2, 61)
	if _, err := reg.Publish("m", pipe); err != nil {
		t.Fatal(err)
	}
	sampler := audit.NewSampler(3, 16, 1)
	srv := comm.NewModelServer(reg, comm.WithWorkers(4), comm.WithObserver(sampler))

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ctx, ln) }()
	defer func() {
		cancel()
		ln.Close()
		<-served
	}()

	sp := data.Generate(data.Config{Kind: data.CIFAR10Like, H: 8, Train: 8, Aux: 16, Test: 16, Seed: 62})

	var wg sync.WaitGroup
	var failures sync.Map
	for cidx := 0; cidx < clients; cidx++ {
		wg.Add(1)
		go func(cidx int) {
			defer wg.Done()
			client, err := comm.Dial(ln.Addr().String())
			if err != nil {
				failures.Store(cidx, err)
				return
			}
			defer client.Close()
			rt := pipe.NewClientRuntime()
			client.ComputeFeatures = rt.Features
			client.Select = rt.Select
			client.Tail = rt.Tail
			x := tensor.New(1, arch.InC, arch.H, arch.W)
			copy(x.Data, sp.Test.Image(cidx%sp.Test.Len()).Data)
			for i := 0; i < requests; i++ {
				if _, _, err := client.Infer(ctx, x); err != nil {
					failures.Store(cidx, err)
					return
				}
				if i == requests/2 && cidx == 0 {
					sampler.Snapshot() // read the reservoir mid-load, concurrent with traffic
				}
			}
		}(cidx)
	}
	wg.Wait()
	failures.Range(func(k, v any) bool {
		t.Errorf("client %v failed: %v", k, v)
		return true
	})

	seen, sampled := sampler.Counts()
	if seen != clients*requests {
		t.Errorf("sampler saw %d features, want %d", seen, clients*requests)
	}
	if wantMin := seen / 3; sampled != wantMin {
		t.Errorf("sampled = %d, want every 3rd of %d = %d", sampled, seen, wantMin)
	}
	snap := sampler.Snapshot()
	if len(snap) != 16 {
		t.Fatalf("reservoir holds %d tensors, want its capacity 16", len(snap))
	}
	for _, smp := range snap {
		f := smp.Features
		if smp.Model != "m" || smp.Version != 1 || len(f.Shape) != 4 ||
			f.Shape[1] != arch.HeadC || f.Shape[2] != arch.H || f.Shape[3] != arch.W {
			t.Errorf("mirrored %s v%d features of shape %v, want m v1 [*, %d, %d, %d]",
				smp.Model, smp.Version, f.Shape, arch.HeadC, arch.H, arch.W)
		}
	}
}
