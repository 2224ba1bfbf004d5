package comm

// Fault-injection sites at the wire layer's trust boundaries. Every site is
// a zero-cost no-op unless armed through internal/faultpoint (one atomic
// load on the disabled path — BenchmarkServeRequestLoopFaultpointsDisabled
// pins that the serving loop stays 0 allocs/op with these compiled in).
//
// Site semantics:
//
//	comm/accept          freshly accepted connection dropped (error) or the
//	                     accept loop stalled (delay)
//	comm/hello           server-side negotiation failure: the peer sees a
//	                     connection that dies before or during the hello
//	comm/frame-read      request decode failure: the handler treats it as a
//	                     closed/poisoned connection
//	comm/frame-write     response write faults — error (response lost),
//	                     partial-write (torn frame then close), conn-reset
//	                     (torn frame then abrupt close), delay
//	comm/budget-charge   budget verdict failure on a guarded server: the
//	                     request is refused with a server error before compute
//	comm/dial            client-side dial failure before the socket opens
import (
	"io"
	"net"
	"time"

	"ensembler/internal/faultpoint"
)

var (
	fpAccept     = faultpoint.New("comm/accept")
	fpHello      = faultpoint.New("comm/hello")
	fpFrameRead  = faultpoint.New("comm/frame-read")
	fpFrameWrite = faultpoint.New("comm/frame-write")
	fpBudget     = faultpoint.New("comm/budget-charge")
	fpDial       = faultpoint.New("comm/dial")
)

// injectFrameWrite applies one triggered frame-write outcome to a pending
// frame. It reports handled=true when the fault consumed the write (the
// caller must not write the frame) and returns the error the caller should
// surface; a Delay outcome sleeps and reports handled=false so the real
// write proceeds.
func injectFrameWrite(w io.Writer, frame []byte, out faultpoint.Outcome) (handled bool, err error) {
	switch out.Kind {
	case faultpoint.Delay:
		time.Sleep(out.Delay)
		return false, nil
	case faultpoint.PartialWrite:
		// A torn frame: emit a prefix, then fail the write. The handler
		// closes the connection; the peer sees a frame that never
		// completes.
		if n := out.CutLen(len(frame)); n > 0 {
			_, _ = w.Write(frame[:n])
		}
		return true, out.Err
	case faultpoint.ConnReset:
		// A torn frame followed by an abrupt close mid-stream — the
		// harshest variant: the peer's read fails with EOF/ECONNRESET with
		// a half-frame already buffered.
		if n := out.CutLen(len(frame)); n > 0 {
			_, _ = w.Write(frame[:n])
		}
		if c, ok := w.(net.Conn); ok {
			_ = c.Close()
		}
		return true, out.Err
	default: // Error (Panic already fired inside the site)
		return true, out.Err
	}
}

// WithDialFault attaches a named fault site to this dial configuration, so
// callers get per-destination dial faults on top of the global comm/dial
// site (the shard client registers shard/dial/<k> per fleet member). The
// site is created on first use and shared by name like every other site.
func WithDialFault(name string) DialOption {
	site := faultpoint.New(name)
	return func(o *dialOptions) { o.faultSite = site }
}
