package comm

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"time"

	"ensembler/internal/nn"
	"ensembler/internal/tensor"
	"ensembler/internal/trace"
)

// DialOption configures how a client connection is established.
type DialOption func(*dialOptions)

type dialOptions struct {
	wire     WireFormat
	clientID string
}

// WithWire selects the payload width the client puts on the wire: WireBinary
// (float64, the default) or WireBinaryF32 (half the bytes, ~1e-7 relative
// feature rounding).
func WithWire(f WireFormat) DialOption {
	return func(o *dialOptions) { o.wire = f }
}

// WithClientID declares the connection's client identity (1-64 printable
// ASCII bytes) during the wire handshake, so a budget-guarded server charges
// this connection's privacy spend to a stable per-client account instead of
// an address bucket. The dial fails if the ID is not wire-valid.
func WithClientID(id string) DialOption {
	return func(o *dialOptions) { o.clientID = id }
}

// Client performs remote ensemble inference: local head+noise, remote
// bodies, local secret selection and tail. A Client is bound to one
// connection and is safe for one goroutine at a time (the head and tail
// networks cache forward state, and the client decodes and runs the tail over
// storage it reuses); concurrent callers use a shard.Client, which pools
// connections and client runtimes (one shard hosting every body is this
// monolith).
//
// Result lifetimes: logits returned by Infer and InferBatch are fresh
// tensors the caller owns. What Exchange returns lives in the client and is
// valid only until the client's next request.
type Client struct {
	conn  *countingConn
	codec binClientCodec
	// req and ex are the request being sent and the response being decoded —
	// kept here so an exchange allocates neither — inputs the storage behind a
	// batched request's list, and tail the scratch the tail pass runs over.
	req    Request
	ex     Exchanged
	inputs []*tensor.Tensor
	tail   nn.Scratch[float64]
	// broken is set after any transport failure: the wire stream may hold a
	// partial or stale message, so reusing the connection could silently
	// return the previous request's response. A broken client fails fast
	// until redialed.
	broken bool
	// servedModel/servedVersion record what the server reports serving on
	// the last successful round trip.
	servedModel   string
	servedVersion int

	// Model and Version route requests on a multi-model server. The zero
	// values ("", 0) mean the server's default model at its current version,
	// and a positive Version pins one published version.
	Model   string
	Version int

	// Trace, when nonzero, rides each request as its wire trace context. The
	// server stitches its leg of the request under the same trace ID — see
	// internal/trace. Like Model and Version, it tags every subsequent request
	// until changed.
	Trace trace.Context

	// ComputeFeatures produces the transmitted features for an image batch
	// (head + noise).
	ComputeFeatures func(x *tensor.Tensor) *tensor.Tensor
	// Select applies the secret selector to the N returned feature
	// matrices, producing the tail input.
	Select func(features []*tensor.Tensor) *tensor.Tensor
	// Tail maps the selected features to logits.
	Tail *nn.Network
}

// Served reports which model and version answered the client's last
// successful request — how a caller observes a zero-downtime hot swap. A
// single-model server reports "" and 0.
func (c *Client) Served() (model string, version int) {
	return c.servedModel, c.servedVersion
}

// Dial connects a client to a comm.Server and performs the wire handshake;
// pass WithWire to select float32 payloads.
func Dial(addr string, opts ...DialOption) (*Client, error) {
	return DialContext(context.Background(), addr, opts...)
}

// DialContext connects a client to a comm.Server, honoring the context's
// deadline and cancellation during connection establishment (including the
// wire-codec hello exchange).
func DialContext(ctx context.Context, addr string, opts ...DialOption) (*Client, error) {
	var o dialOptions
	for _, opt := range opts {
		opt(&o)
	}
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("comm: dialing %s: %w", addr, err)
	}
	c, err := newClientConn(ctx, conn, o.wire, o.clientID)
	if err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

// helloTimeout bounds the wire negotiation when the dialing context carries
// no deadline: the hello is one small local round trip, so a server that
// stays mute for this long is not going to answer requests either — fail
// the dial instead of hanging it.
const helloTimeout = 10 * time.Second

// newClientConn wraps conn in a client speaking the requested wire format,
// performing the hello under the context's deadline (or a default handshake
// timeout when the context has none).
func newClientConn(ctx context.Context, conn net.Conn, wire WireFormat, clientID string) (*Client, error) {
	cc := &countingConn{Conn: conn}
	deadline := time.Now().Add(helloTimeout)
	if d, ok := ctx.Deadline(); ok {
		deadline = d
	}
	cc.SetDeadline(deadline)
	if ctx.Done() != nil {
		// Plain cancellation (no deadline) must also abort a hello blocked
		// on a stalled server — expiring the deadline fails the pending I/O.
		stop := make(chan struct{})
		watcher := make(chan struct{})
		go func() {
			defer close(watcher)
			select {
			case <-ctx.Done():
				cc.SetDeadline(time.Unix(1, 0))
			case <-stop:
			}
		}()
		defer func() {
			close(stop)
			<-watcher
			cc.SetDeadline(time.Time{})
		}()
	} else {
		defer cc.SetDeadline(time.Time{})
	}
	br := bufio.NewReaderSize(cc, 1<<16)
	f32OK, err := negotiateClient(cc, br, wire == WireBinaryF32, clientID)
	if err != nil {
		return nil, err
	}
	framer := binFramer{w: cc, r: br, f32: wire == WireBinaryF32 && f32OK}
	return &Client{conn: cc, codec: binClientCodec{framer}}, nil
}

// Close tears down the connection.
func (c *Client) Close() error { return c.conn.Close() }

// roundTrip performs one encode/decode exchange under ctx, sending c.req and
// decoding the response into ex (see Exchanged for who owns it): a context
// deadline maps onto the connection deadline and cancellation aborts the
// blocked I/O. Any transport failure — including a context-induced abort —
// leaves the wire stream in an unknown state, so it breaks the client.
func (c *Client) roundTrip(ctx context.Context, ex *Exchanged) error {
	if c.broken {
		return fmt.Errorf("comm: connection broken by an earlier failed request; redial")
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("comm: %w", err)
	}
	// The watcher is only needed when the context can actually fire; the
	// common context.Background() path skips the goroutine entirely.
	if ctx.Done() != nil {
		if d, ok := ctx.Deadline(); ok {
			c.conn.SetDeadline(d)
		}
		stop := make(chan struct{})
		watcher := make(chan struct{})
		go func() {
			defer close(watcher)
			select {
			case <-ctx.Done():
				// Expiring the deadline fails the pending read/write.
				c.conn.SetDeadline(time.Unix(1, 0))
			case <-stop:
			}
		}()
		// Join the watcher before clearing the deadline: a cancellation
		// racing the return would otherwise leave an expired deadline
		// behind on a connection whose round trip succeeded.
		defer func() {
			close(stop)
			<-watcher
			c.conn.SetDeadline(time.Time{})
		}()
	}
	if err := c.codec.writeRequest(&c.req, c.Trace); err != nil {
		return c.fail(ctx, fmt.Errorf("comm: sending features: %w", err))
	}
	resp := &ex.resp
	if _, err := c.codec.readResponse(resp, &ex.arena); err != nil {
		return c.fail(ctx, fmt.Errorf("comm: receiving features: %w", err))
	}
	// A server-reported error leaves the stream synchronized; the
	// connection stays usable. A privacy-budget refusal surfaces as
	// ErrBudgetExhausted, which retries must NOT chase — the budget does not
	// come back by asking again.
	if resp.Err != "" {
		if resp.Code == CodeBudgetExhausted {
			return fmt.Errorf("comm: %w: %s", ErrBudgetExhausted, resp.Err)
		}
		return fmt.Errorf("comm: server error: %s", resp.Err)
	}
	c.servedModel, c.servedVersion = resp.Model, resp.Version
	return nil
}

// fail marks the connection unusable after a transport error — the stream
// may hold a stale response that a later request would otherwise consume as
// its own — and prefers the context's verdict when the failure was induced
// by cancellation or deadline expiry.
func (c *Client) fail(ctx context.Context, err error) error {
	c.broken = true
	c.conn.Close()
	if ctx.Err() != nil {
		return fmt.Errorf("comm: %w", ctx.Err())
	}
	return err
}

// send runs one round trip of c.req into ex and accounts for it in t. The
// byte counters are set whatever the outcome: bytes a response cost are spent
// even when the response is then refused.
func (c *Client) send(ctx context.Context, ex *Exchanged, t *Timing) error {
	up, down := c.conn.up, c.conn.down
	start := time.Now()
	err := c.roundTrip(ctx, ex)
	t.RoundTrip = time.Since(start)
	t.BytesUp, t.BytesDown = c.conn.up-up, c.conn.down-down
	return err
}

// Infer runs the full collaborative pipeline for an image batch and returns
// logits plus the measured timing breakdown.
func (c *Client) Infer(ctx context.Context, x *tensor.Tensor) (*tensor.Tensor, Timing, error) {
	var t Timing
	start := time.Now()
	c.ex.arena.Reset()
	c.req = Request{Model: c.Model, Version: c.Version, Features: c.ComputeFeatures(x)}
	t.Client += time.Since(start)

	if err := c.send(ctx, &c.ex, &t); err != nil {
		return nil, t, err
	}

	start = time.Now()
	logits, err := c.finish(c.ex.resp.Features)
	t.Client += time.Since(start)
	return logits, t, err
}

// finish runs the client-side selection and tail over one response's
// feature list and returns the logits as a fresh tensor. The server is the
// adversary of the threat model, so its response is as untrusted as a request
// is to the server: tensors are structurally validated, and a panic in
// Select/Tail (e.g. a response carrying the wrong number of bodies for the
// selector) becomes an error instead of crashing the client application.
func (c *Client) finish(features []*tensor.Tensor) (logits *tensor.Tensor, err error) {
	if err := validateTensors(features); err != nil {
		return nil, err
	}
	defer func() {
		if r := recover(); r != nil {
			logits, err = nil, fmt.Errorf("comm: server response rejected: %v", r)
		}
	}()
	c.tail.Reset()
	return c.Tail.ForwardInfer(c.Select(features), &c.tail).Clone(), nil
}

// validateTensors applies validateTensor to a response's feature list.
func validateTensors(features []*tensor.Tensor) error {
	for i, f := range features {
		if err := validateTensor(f); err != nil {
			return fmt.Errorf("comm: server response tensor %d: %w", i, err)
		}
	}
	return nil
}

// Exchanged is one raw feature round trip's result: the per-body feature
// list plus which model epoch actually served it. The epoch matters to
// sharded callers: a scatter-gather across K servers must reject a gather
// whose shards answered from different versions (a fleet mid-reload), or
// it would silently mix body weights from two pipelines into one result.
//
// An Exchanged is also the storage its features are decoded into, reused by
// every exchange into the same value — so the features belong to whoever
// owns the Exchanged, until its next exchange. The one inside a Client makes
// that the connection; a caller that must outlive the connection's release
// (a sharded request's gather, through Pool.ExchangeTraced) decodes into one
// of its own.
type Exchanged struct {
	Features []*tensor.Tensor
	Model    string
	Version  int

	resp  Response              // decode target; its lists keep their storage
	arena tensor.Arena[float64] // backs every decoded tensor
}

// Exchange performs the raw feature round trip beneath Infer: it transmits
// already-computed features and returns the per-body feature list the server
// answered with, structurally validated but unselected. This is the
// primitive a sharded deployment builds on — the scatter-gather client
// computes the head output once, Exchanges it with every shard, and applies
// the secret selector over the reassembled body order itself, so no single
// connection ever carries enough context to see the selection.
//
// The result lives in the client: it is valid until the client's next
// request, and a caller that keeps it longer clones the tensors.
func (c *Client) Exchange(ctx context.Context, features *tensor.Tensor) (*Exchanged, Timing, error) {
	t, err := c.exchangeInto(ctx, features, &c.ex)
	if err != nil {
		return nil, t, err
	}
	return &c.ex, t, nil
}

// exchangeInto is Exchange decoding into the caller's ex.
func (c *Client) exchangeInto(ctx context.Context, features *tensor.Tensor, ex *Exchanged) (Timing, error) {
	var t Timing
	ex.arena.Reset()
	c.req = Request{Model: c.Model, Version: c.Version, Features: features}
	if err := c.send(ctx, ex, &t); err != nil {
		return t, err
	}
	if err := validateTensors(ex.resp.Features); err != nil {
		return t, err
	}
	ex.Features, ex.Model, ex.Version = ex.resp.Features, ex.resp.Model, ex.resp.Version
	return t, nil
}

// InferBatch runs the collaborative pipeline for B image batches in a single
// round trip and returns one logits tensor per input. The server stacks the
// transmitted features, runs each body once over the stack, and splits the
// results back — amortizing both the protocol overhead and the per-body
// dispatch across the whole batch.
func (c *Client) InferBatch(ctx context.Context, xs []*tensor.Tensor) ([]*tensor.Tensor, Timing, error) {
	var t Timing
	if len(xs) == 0 {
		return nil, t, fmt.Errorf("comm: empty inference batch")
	}

	start := time.Now()
	// Each input's features are copied as they are computed: the hook may
	// hand back storage its next call overwrites.
	c.ex.arena.Reset()
	inputs := c.inputs[:0]
	for _, x := range xs {
		inputs = append(inputs, c.ex.arena.Clone(c.ComputeFeatures(x)))
	}
	c.inputs = inputs
	c.req = Request{Model: c.Model, Version: c.Version, Inputs: inputs}
	t.Client += time.Since(start)

	if err := c.send(ctx, &c.ex, &t); err != nil {
		return nil, t, err
	}
	outputs := c.ex.resp.Outputs
	if len(outputs) != len(xs) {
		return nil, t, fmt.Errorf("comm: server returned %d outputs for %d inputs", len(outputs), len(xs))
	}

	start = time.Now()
	logits := make([]*tensor.Tensor, len(xs))
	for i, features := range outputs {
		out, err := c.finish(features)
		if err != nil {
			t.Client += time.Since(start)
			return nil, t, fmt.Errorf("comm: output %d: %w", i, err)
		}
		logits[i] = out
	}
	t.Client += time.Since(start)
	return logits, t, nil
}
