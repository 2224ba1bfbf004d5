// Package comm implements collaborative inference over a real network: a
// server that hosts the N ensemble bodies behind a length-prefixed binary TCP
// protocol (see codec.go), and a client that transmits its head's output, receives all N feature
// vectors, and applies its secret Selector and tail locally. This is the
// deployment form of Fig. 1/Fig. 2: the selection indices never appear on
// the wire, which is precisely what the defense relies on.
//
// The serving path is concurrent end to end, at exactly one level. The server
// accepts many simultaneous connections, pipelines requests per connection,
// and dispatches them to a bounded worker pool. A multi-worker pool is the
// parallelism: each worker runs its request's N body passes serially. A
// single-worker server fans the N body passes of each request out over
// min(N, GOMAXPROCS) tasks instead, joining them before the reply. Every
// worker runs the same bodies: the server compiles each body generation once
// (nn.Compile) into a read-only inference form, so body memory is paid once
// per server, not per worker. Activation memory is paid once per worker, not
// per body: a worker owns one scratch at the serving precision (one per
// fan-out task on a single-worker server), shared by every generation it
// meets, and copies each body's output rows aside before the next body
// reuses it.
//
// A request is one [B,C,H,W] feature tensor — the head output for a batch of
// B images — and its response one feature tensor per hosted body, each of B
// rows. Every request takes the same serve pass — charge → resolve → observe
// → forward → copy → noise, in Server.serve and payload.pass: the B rows go
// through each body in one pass, and each body's output is copied into the
// job's own storage. Context plumbing runs through Serve and Infer for
// graceful shutdown and per-request deadlines.
//
// The serving path is observable without being slowed: WithMetrics attaches
// a telemetry bundle (requests, errors, images, and a per-request serve-time
// histogram) and WithObserver mirrors transmitted features into
// an observer (kept only for bench/ until ROADMAP item 2). Both are nil
// checks on the hot path when absent, and the attached implementations are
// lock-free (telemetry) or amortized to an atomic add (audit.Sampler).
//
// The server no longer owns its bodies: every request resolves a
// (model, version) pair through a ModelProvider — a registry of published
// model epochs, or the built-in single-model provider NewServer wraps around
// a fixed body slice. An empty model name and version 0 fall back to the
// provider's default; a provider whose current epoch changes between
// requests gives zero-downtime hot swaps, with the server compiling new
// bodies once, on the first request that meets them (ServedModel.Seq).
package comm

import (
	"errors"
	"fmt"
	"net"
	"time"

	"ensembler/internal/tensor"
)

// ErrBudgetExhausted is the privacy-budget refusal: the request's rows do
// not fit what is left of the client's row budget (see internal/privacy),
// so the guard refused it rather than serve more. It is NOT transient —
// budgets never refill, so retrying the same request cannot help. Detect
// with errors.Is.
var ErrBudgetExhausted = errors.New("privacy budget exhausted")

// CodeBudgetExhausted is Response.Code for a budget-refused request.
const CodeBudgetExhausted = 430

// Request is the client→server message: Features carries the intermediate
// activations Mc,h(x)+noise for one input batch.
//
// Model and Version route the request on a multi-model server: Model ""
// falls back to the server's default model and Version 0 to its current
// version.
type Request struct {
	Model    string
	Version  int
	Features *tensor.Tensor
}

// Response is the server→client message. Features holds one feature matrix
// per hosted body (the server cannot know which the client will use). Model
// and Version echo what actually served the request — how a client observes
// a hot swap; a single-model server leaves them zero.
type Response struct {
	Model    string
	Version  int
	Features []*tensor.Tensor
	Err      string
	// Code classifies a non-empty Err so clients can react mechanically:
	// 0 is an ordinary request failure (terminal for that request),
	// CodeBudgetExhausted a budget refusal.
	Code int
}

// Timing breaks down one remote inference round trip as measured at the
// client — the empirical analogue of a Table III row.
type Timing struct {
	Client    time.Duration // head + selector + tail compute
	RoundTrip time.Duration // upload + server compute + download
	BytesUp   int
	BytesDown int
}

// countingConn wraps a net.Conn tallying payload bytes in each direction.
type countingConn struct {
	net.Conn
	up, down int
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.down += n
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.up += n
	return n, err
}

// validateTensor checks the structural honesty of any tensor that came off
// the wire — nothing about it can be trusted: non-nil, non-empty shape,
// positive dimensions, and shape/data agreement. Both trust boundaries
// (server validating requests, client validating responses) build on it.
func validateTensor[T tensor.Float](f *tensor.Dense[T]) error {
	if f == nil {
		return fmt.Errorf("comm: missing tensor")
	}
	if len(f.Shape) == 0 {
		return fmt.Errorf("comm: tensor has empty shape")
	}
	// The running product stops once it would pass len(Data): a claimed
	// shape whose product wraps the int (to 0, say) must not match.
	n := 1
	for _, d := range f.Shape {
		if d <= 0 {
			return fmt.Errorf("comm: tensor has non-positive dimension in shape %v", f.Shape)
		}
		if d > len(f.Data)/n {
			return fmt.Errorf("comm: tensor carries %d values for shape %v", len(f.Data), f.Shape)
		}
		n *= d
	}
	if len(f.Data) != n {
		return fmt.Errorf("comm: tensor carries %d values for shape %v", len(f.Data), f.Shape)
	}
	return nil
}

// validateFeatures checks one transmitted feature tensor: structurally
// honest and of the [N,C,H,W] rank the bodies expect.
func validateFeatures[T tensor.Float](f *tensor.Dense[T]) error {
	if f == nil || len(f.Shape) != 4 {
		return fmt.Errorf("comm: request must carry [N,C,H,W] features")
	}
	return validateTensor(f)
}
