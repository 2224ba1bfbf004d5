package comm_test

import (
	"context"
	"fmt"
	"math"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"ensembler/internal/comm"
	"ensembler/internal/commtest"
	"ensembler/internal/nn"
	"ensembler/internal/registry"
	"ensembler/internal/tensor"
)

// serveOn runs srv on a loopback listener until the test ends and returns its
// address.
func serveOn(t *testing.T, srv *comm.Server) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ctx, ln) }()
	t.Cleanup(func() {
		cancel()
		if err := <-served; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return ln.Addr().String()
}

// TestSharedBodiesUnderRace drives one registry model through servers of
// every pool shape — 2 and 4 workers running their bodies serially, and the
// single worker that fans each request's bodies out — at both precisions,
// with concurrent clients, so -race watches every worker read the one
// compiled body set at once. Every response matches the body's Forward(x,
// false): bit for bit at f64, within the 1e-5 drift budget at f32. The
// server compiles each body generation once, not once per worker, and a
// publish compiles the new generation once and drops the old one.
func TestSharedBodiesUnderRace(t *testing.T) {
	const n, clients, requests = 4, 6, 6
	for _, prec := range []comm.Precision{comm.PrecisionF64, comm.PrecisionF32} {
		for _, workers := range []int{2, 4, 1} {
			t.Run(fmt.Sprintf("%s/workers=%d", prec, workers), func(t *testing.T) {
				reg := registry.New(nil)
				if _, err := reg.Publish("m", commtest.Pipeline(tiny, n, 2, 151)); err != nil {
					t.Fatal(err)
				}
				counted := &countingProvider{ModelProvider: reg}
				srv := comm.NewModelServer(counted, comm.WithWorkers(workers), comm.WithPrecision(prec))
				addr := serveOn(t, srv)

				hammer := func(ep *registry.Epoch) {
					t.Helper()
					inputs := make([]*tensor.Tensor, clients)
					want := make([][]*tensor.Tensor, clients)
					for c := range inputs {
						inputs[c] = commtest.Input(tiny, int64(160+c), 1+c%2)
						for _, b := range ep.Pipeline().CloneBodies() {
							want[c] = append(want[c], b.Forward(inputs[c], false))
						}
					}
					var wg sync.WaitGroup
					errs := make(chan error, clients)
					for c := 0; c < clients; c++ {
						wg.Add(1)
						go func() {
							defer wg.Done()
							client, err := comm.Dial(addr)
							if err != nil {
								errs <- err
								return
							}
							defer client.Close()
							for r := 0; r < requests; r++ {
								ex, _, err := client.Exchange(context.Background(), inputs[c])
								if err != nil {
									errs <- fmt.Errorf("client %d: %w", c, err)
									return
								}
								if ex.Version != ep.Version() || len(ex.Features) != n {
									errs <- fmt.Errorf("client %d: v%d with %d feature maps, want v%d with %d", c, ex.Version, len(ex.Features), ep.Version(), n)
									return
								}
								for i, got := range ex.Features {
									if err := matches(got, want[c][i], prec); err != nil {
										errs <- fmt.Errorf("client %d body %d: %w", c, i, err)
										return
									}
								}
							}
						}()
					}
					wg.Wait()
					close(errs)
					for err := range errs {
						t.Error(err)
					}
				}

				first, err := reg.Current("m")
				if err != nil {
					t.Fatal(err)
				}
				hammer(first)
				if got := counted.compiles.Load(); got != 1 {
					t.Errorf("%d workers compiled one generation %d times, want once", workers, got)
				}
				next, err := reg.Publish("m", commtest.Pipeline(tiny, n, 2, 152))
				if err != nil {
					t.Fatal(err)
				}
				hammer(next)
				if got := counted.compiles.Load(); got != 2 {
					t.Errorf("%d compiles after a publish, want 2", got)
				}
				if seqs := comm.CompiledSeqs(srv); len(seqs) != 1 || seqs[0] != next.Seq() {
					t.Errorf("server holds generations %v after the publish, want only [%d]", seqs, next.Seq())
				}
			})
		}
	}
}

// matches holds a served feature map to the oracle: bit for bit at f64, and
// within the f32 drift budget, |got-want| / max(1, |want|) <= 1e-5, at f32.
func matches(got, want *tensor.Tensor, prec comm.Precision) error {
	if prec == comm.PrecisionF64 {
		return comm.BitsDiffer(got, want)
	}
	if !got.SameShape(want) {
		return fmt.Errorf("shape %v, want %v", got.Shape, want.Shape)
	}
	for i, v := range got.Data {
		if e := math.Abs(v-want.Data[i]) / math.Max(1, math.Abs(want.Data[i])); !(e <= 1e-5) {
			return fmt.Errorf("element %d drifts %.3g (got %v, want %v)", i, e, v, want.Data[i])
		}
	}
	return nil
}

// fixedModel serves one body set as model "fixed", version 1.
type fixedModel struct{ bodies []*nn.Network }

func (m *fixedModel) Resolve(string, int) (comm.ServedModel, error) { return m, nil }
func (m *fixedModel) Name() string                                  { return "fixed" }
func (m *fixedModel) Version() int                                  { return 1 }
func (m *fixedModel) Seq() uint64                                   { return 1 }
func (m *fixedModel) Bodies() []*nn.Network                         { return m.bodies }

// countingLayer is a custom Layer, which only the caching Forward can run,
// counting its calls.
type countingLayer struct{ calls atomic.Int64 }

func (l *countingLayer) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	l.calls.Add(1)
	return x
}
func (l *countingLayer) Backward(grad *tensor.Tensor) *tensor.Tensor { return grad }
func (l *countingLayer) Params() []*nn.Param                         { return nil }

// TestUnshareableBodiesAreRefused pins the other half of sharing: a body
// whose inference pass could write state — a custom Layer, bare or nested in
// a network — does not compile, so its model's requests are answered with
// the compile error, in the epoch's name, at either precision, and nothing
// of it is ever computed.
func TestUnshareableBodiesAreRefused(t *testing.T) {
	custom := &countingLayer{}
	frame := comm.RequestFrame(t, &comm.Request{Features: commtest.Input(tiny, 172, 1)}, false)
	for _, prec := range []comm.Precision{comm.PrecisionF64, comm.PrecisionF32} {
		for _, tc := range []struct {
			body *nn.Network
			want string
		}{
			{nn.NewNetwork("custom", nn.NewReLU(), custom), "no compiled inference path"},
			{nn.NewNetwork("nested", nn.NewNetwork("inner", custom)), "no compiled inference path"},
		} {
			bodies := append(commtest.Bodies(tiny, 2), tc.body)
			serve := comm.FrameServer(t, comm.NewModelServer(&fixedModel{bodies}, comm.WithWorkers(2), comm.WithPrecision(prec)))
			for r := 0; r < 2; r++ {
				resp := serve(frame)
				if !strings.Contains(resp.Err, tc.want) || resp.Model != "fixed" || resp.Version != 1 {
					t.Errorf("%s %s request %d: answered %s v%d %q, want fixed v1 and an error naming %q",
						prec, tc.body.Name, r, resp.Model, resp.Version, resp.Err, tc.want)
				}
			}
		}
	}
	if got := custom.calls.Load(); got != 0 {
		t.Errorf("the custom layer ran %d times, want never", got)
	}
}
