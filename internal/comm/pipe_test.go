package comm

import (
	"context"
	"net"
	"testing"

	"ensembler/internal/nn"
	"ensembler/internal/rng"
	"ensembler/internal/tensor"
)

// TestLocalClientOverPipe runs the real handshake and one request over an
// in-memory net.Pipe — no TCP, no listener, no training: the server's
// connection handler and one pool worker on one end, the client on the other.
func TestLocalClientOverPipe(t *testing.T) {
	clientEnd, serverEnd := net.Pipe()
	defer clientEnd.Close()

	arch := tinyArch()
	body := arch.NewBody("b", rng.New(1))
	srv := NewServer([]*nn.Network{body})
	stop := make(chan struct{})
	workerDone, handlerDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(workerDone)
		srv.worker(stop)
	}()
	go func() {
		defer close(handlerDone)
		srv.handle(serverEnd)
	}()
	defer func() {
		clientEnd.Close()
		<-handlerDone // the pool outlives every handler, as in Serve
		close(stop)
		<-workerDone
	}()

	client, err := newClientConn(context.Background(), clientEnd, WireBinary, "")
	if err != nil {
		t.Fatal(err)
	}
	client.ComputeFeatures = func(x *tensor.Tensor) *tensor.Tensor {
		// Identity "head": the protocol doesn't care what computes features.
		return x
	}
	client.Select = func(features []*tensor.Tensor) *tensor.Tensor { return features[0] }
	client.Tail = nn.NewNetwork("t", nn.NewLinear("fc", arch.FeatureDim(), arch.Classes, rng.New(2)))

	x := tensor.New(2, arch.HeadC, 8, 8)
	rng.New(3).FillNormal(x.Data, 0, 1)
	logits, timing, err := client.Infer(context.Background(), x)
	if err != nil {
		t.Fatal(err)
	}
	if logits.Shape[0] != 2 || logits.Shape[1] != arch.Classes {
		t.Fatalf("logits shape %v", logits.Shape)
	}
	if timing.BytesUp == 0 || timing.BytesDown == 0 {
		t.Error("pipe byte accounting missing")
	}
}
