package comm

import (
	"context"
	"fmt"
	"sync"

	"ensembler/internal/tensor"
	"ensembler/internal/trace"
)

// Pool is a fixed-capacity pool of raw feature connections to one server,
// safe for concurrent use. It keeps connections and nothing else: a pooled
// Client carries no head, selector or tail, because a caller's client-side
// networks cache forward state and are the caller's to pool (the shard
// client keeps them in its runtimes). Broken connections are discarded on
// release and redialed on demand.
type Pool struct {
	addr     string
	dialOpts []DialOption

	mu      sync.Mutex
	dialed  int
	size    int
	closed  bool
	idle    chan *Client
	freed   chan struct{} // one token per discarded connection: wakes a waiter to redial
	closing chan struct{} // closed by Close to wake goroutines waiting in get
}

// NewPool creates a pool of up to size connections to addr. Connections are
// dialed lazily on demand; dial options (e.g. WithWire) apply to every
// connection the pool establishes.
func NewPool(addr string, size int, opts ...DialOption) (*Pool, error) {
	if size <= 0 {
		return nil, fmt.Errorf("comm: pool size must be positive, got %d", size)
	}
	return &Pool{
		addr:     addr,
		dialOpts: opts,
		size:     size,
		idle:     make(chan *Client, size),
		freed:    make(chan struct{}, size),
		closing:  make(chan struct{}),
	}, nil
}

// get acquires a connection: an idle one if available, a fresh dial while
// under capacity, otherwise it waits for a release — either an idle
// connection coming back or a discarded one freeing dial capacity.
func (p *Pool) get(ctx context.Context) (*Client, error) {
	for {
		select {
		case c := <-p.idle:
			return c, nil
		default:
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			return nil, fmt.Errorf("comm: pool is closed")
		}
		if p.dialed < p.size {
			p.dialed++
			p.mu.Unlock()
			c, err := DialContext(ctx, p.addr, p.dialOpts...)
			if err != nil {
				p.release()
				return nil, err
			}
			return c, nil
		}
		p.mu.Unlock()
		select {
		case c := <-p.idle:
			return c, nil
		case <-p.freed:
			// A broken connection was discarded; loop back and redial.
		case <-ctx.Done():
			return nil, fmt.Errorf("comm: waiting for pooled connection: %w", ctx.Err())
		case <-p.closing:
			// In-use connections are discarded at release once the pool
			// closes, so no idle send is coming — fail instead of waiting
			// forever.
			return nil, fmt.Errorf("comm: pool is closed")
		}
	}
}

// release gives one unit of dial capacity back and wakes a waiter so it can
// redial; must be called with p.mu unlocked.
func (p *Pool) release() {
	p.mu.Lock()
	p.dialed--
	p.mu.Unlock()
	select {
	case p.freed <- struct{}{}:
	default: // a wake token is already pending for every waiter that needs one
	}
}

// put releases a client back to the pool; a broken connection is discarded
// (freeing dial capacity and waking a waiter) so the next get dials a
// replacement. The idle channel's capacity equals the pool size, so the send
// under the lock never blocks.
func (p *Pool) put(c *Client) {
	p.mu.Lock()
	if c.broken || p.closed {
		p.mu.Unlock()
		c.Close()
		p.release()
		return
	}
	p.idle <- c
	p.mu.Unlock()
}

// ExchangeTraced runs one raw feature round trip (see Client.Exchange) on a
// pooled connection, decoding into the caller's ex — which thereby owns the
// features past the connection's release, and whose storage a caller holding
// it across requests reuses — with a trace context attached, so the server's
// leg of the request joins the caller's trace. One call is one attempt:
// server-side rejections leave the stream synchronized and the connection
// returns to the pool, a transport failure discards it, and a caller that
// wants a retry (the shard client does) makes it itself. The trace context
// is cleared before release — a recycled connection must never tag a
// stranger's request with a stale trace ID.
func (p *Pool) ExchangeTraced(ctx context.Context, features *tensor.Tensor, tc trace.Context, ex *Exchanged) (Timing, error) {
	c, err := p.get(ctx)
	if err != nil {
		return Timing{}, err
	}
	c.Trace = tc
	t, err := c.exchangeInto(ctx, features, ex)
	c.Trace = trace.Context{}
	p.put(c)
	return t, err
}

// Close tears down every idle connection and marks the pool closed; in-use
// connections are closed as they are released.
func (p *Pool) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.closed {
		p.closed = true
		close(p.closing)
	}
	for {
		select {
		case c := <-p.idle:
			p.dialed--
			c.Close()
		default:
			return nil
		}
	}
}
