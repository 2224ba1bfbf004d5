package comm

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"runtime"
	"sort"
	"testing"
	"time"

	"ensembler/internal/nn"
	"ensembler/internal/rng"
	"ensembler/internal/tensor"
	"ensembler/internal/trace"
)

func wireTensor(seed int64, shape ...int) *tensor.Tensor {
	t := tensor.New(shape...)
	rng.New(seed).FillNormal(t.Data, 0, 1)
	return t
}

// codecBodies deterministically builds n tiny server bodies.
func codecBodies(n int) []*nn.Network {
	out := make([]*nn.Network, n)
	for i := range out {
		out[i] = tinyArch().NewBody(fmt.Sprintf("b%d", i), rng.New(int64(i+1)))
	}
	return out
}

// startCodecServer boots a multi-worker server on loopback.
func startCodecServer(t *testing.T, n int) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(codecBodies(n), WithWorkers(2))
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ctx, ln) }()
	t.Cleanup(func() {
		cancel()
		ln.Close()
		<-served
	})
	return ln.Addr().String()
}

// TestBinaryRequestRoundTrip pins encode→decode identity for both request
// forms, on both the heap and arena decode paths.
func TestBinaryRequestRoundTrip(t *testing.T) {
	reqs := []*Request{
		{Model: "m", Version: 3, Features: wireTensor(1, 2, 4, 8, 8)},
		{Features: wireTensor(2, 1, 3, 4, 4)},
		{Model: "batch", Inputs: []*tensor.Tensor{wireTensor(3, 2, 3, 4, 4), wireTensor(4, 1, 3, 4, 4)}},
	}
	for i, req := range reqs {
		body, err := appendRequest(nil, req, false, trace.Context{})
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		heap, err := parseRequest(body, nil)
		if err != nil {
			t.Fatalf("request %d heap decode: %v", i, err)
		}
		j := newJob[float64]()
		if err := j.pay.parse(body, &j.req, nil); err != nil {
			t.Fatalf("request %d arena decode: %v", i, err)
		}
		for _, got := range []*Request{heap, jobRequest(j)} {
			if got.Model != req.Model || got.Version != req.Version {
				t.Errorf("request %d header: got (%q,%d), want (%q,%d)", i, got.Model, got.Version, req.Model, req.Version)
			}
			if req.Features != nil && !got.Features.AllClose(req.Features, 0) {
				t.Errorf("request %d features diverge", i)
			}
			if len(got.Inputs) != len(req.Inputs) {
				t.Fatalf("request %d inputs: got %d, want %d", i, len(got.Inputs), len(req.Inputs))
			}
			for k := range req.Inputs {
				if !got.Inputs[k].AllClose(req.Inputs[k], 0) {
					t.Errorf("request %d input %d diverges", i, k)
				}
			}
		}
	}
}

// TestBinaryResponseRoundTrip pins encode→decode identity for both response
// forms, error strings and headers included.
func TestBinaryResponseRoundTrip(t *testing.T) {
	resps := []*Response{
		{Model: "m", Version: 7, Features: []*tensor.Tensor{wireTensor(5, 2, 16), wireTensor(6, 2, 16)}},
		{Err: "comm: something broke"},
		{Outputs: [][]*tensor.Tensor{
			{wireTensor(7, 1, 16), wireTensor(8, 1, 16)},
			{wireTensor(9, 1, 16), wireTensor(10, 1, 16)},
		}},
	}
	for i, resp := range resps {
		body, err := encodeResponse(nil, resp, false, 0)
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		var got Response
		if err := parseResponse(body, &got, nil); err != nil {
			t.Fatalf("response %d decode: %v", i, err)
		}
		if got.Model != resp.Model || got.Version != resp.Version || got.Err != resp.Err {
			t.Errorf("response %d header diverges", i)
		}
		if len(got.Features) != len(resp.Features) {
			t.Fatalf("response %d features: %d vs %d", i, len(got.Features), len(resp.Features))
		}
		for k := range resp.Features {
			if !got.Features[k].AllClose(resp.Features[k], 0) {
				t.Errorf("response %d feature %d diverges", i, k)
			}
		}
		if len(got.Outputs) != len(resp.Outputs) {
			t.Fatalf("response %d outputs: %d vs %d", i, len(got.Outputs), len(resp.Outputs))
		}
		for a := range resp.Outputs {
			for b := range resp.Outputs[a] {
				if !got.Outputs[a][b].AllClose(resp.Outputs[a][b], 0) {
					t.Errorf("response %d output [%d][%d] diverges", i, a, b)
				}
			}
		}
	}
}

// TestFloat32WireRounding pins the -wire f32 accuracy trade-off: values
// round-trip through float32 with relative error bounded by the format's
// epsilon, not exactly.
func TestFloat32WireRounding(t *testing.T) {
	req := &Request{Features: wireTensor(11, 1, 2, 8, 8)}
	body, err := appendRequest(nil, req, true, trace.Context{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := parseRequest(body, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range req.Features.Data {
		g := got.Features.Data[i]
		if g != float64(float32(v)) {
			t.Fatalf("element %d: got %v, want the float32 rounding of %v", i, g, v)
		}
		if rel := math.Abs(g-v) / math.Max(math.Abs(v), 1e-30); rel > 1e-6 {
			t.Errorf("element %d rounds with relative error %v", i, rel)
		}
	}
	// f32 payload is about half the f64 payload.
	body64, _ := appendRequest(nil, req, false, trace.Context{})
	if len(body) >= len(body64) {
		t.Errorf("f32 frame (%d bytes) not smaller than f64 frame (%d bytes)", len(body), len(body64))
	}
}

// TestHostileFramesRejected covers the frame parser's trust boundary:
// truncations and lying lengths must error without huge allocations or
// panics.
func TestHostileFramesRejected(t *testing.T) {
	good, err := appendRequest(nil, &Request{Features: wireTensor(12, 1, 2, 4, 4)}, false, trace.Context{})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":            {},
		"wrong msg type":   {0xFF},
		"truncated header": good[:3],
		"truncated tensor": good[:len(good)-5],
		"trailing bytes":   append(append([]byte{}, good...), 1, 2, 3),
		// Claim a gigantic tensor over a short body: rank 4, dims 2^16 each.
		"lying dims": {wireMsgRequest, 0, 0, 0, 0, 0, 0, wireKindFeatures, 1, 0,
			4, wireDtypeF64, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0},
	}
	for name, body := range cases {
		if _, err := parseRequest(body, nil); err == nil {
			t.Errorf("%s: hostile request frame accepted", name)
		}
		var resp Response
		if err := parseResponse(body, &resp, nil); err == nil {
			t.Errorf("%s: hostile response frame accepted", name)
		}
	}
}

// TestCodecSteadyStateZeroAllocs pins the hot-path contract: after warm-up,
// request decode (arena path) and response encode reuse every buffer.
func TestCodecSteadyStateZeroAllocs(t *testing.T) {
	req := &Request{Features: wireTensor(13, 2, 4, 8, 8)}
	body, err := appendRequest(nil, req, false, trace.Context{})
	if err != nil {
		t.Fatal(err)
	}
	j := newJob[float64]()
	resp := &Response{Features: []*tensor.Tensor{wireTensor(14, 2, 64), wireTensor(15, 2, 64)}}
	encBuf := make([]byte, 0, 4096)

	// Warm-up: size the arena and the encode buffer.
	if err := j.pay.parse(body, &j.req, nil); err != nil {
		t.Fatal(err)
	}
	j.reset()
	if encBuf, err = encodeResponse(encBuf[:0], resp, false, 0); err != nil {
		t.Fatal(err)
	}
	if cap(encBuf) < len(encBuf) {
		t.Fatal("unreachable")
	}

	allocs := testing.AllocsPerRun(50, func() {
		if err := j.pay.parse(body, &j.req, nil); err != nil {
			t.Fatal(err)
		}
		j.reset()
		var e error
		encBuf, e = encodeResponse(encBuf[:0], resp, false, 0)
		if e != nil {
			t.Fatal(e)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state codec cycle allocates %v times, want 0", allocs)
	}
}

// TestReadFrameAllocatesWhatArrives pins the frame reader's half of the trust
// boundary: a length prefix is a claim, so a 7-byte stream claiming the
// largest frame fails at the bytes it lacks having cost one growth step, not
// 256 MiB; a legitimate frame of several growth steps still round-trips bit
// for bit; and reading into a buffer that already fits allocates nothing.
func TestReadFrameAllocatesWhatArrives(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := readFrame(bytes.NewReader([]byte{0x00, 0x00, 0x00, 0x10, 1, 2, 3}), nil)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("7-byte stream claiming %d bytes failed with %v, want unexpected EOF", maxWireFrame, err)
	}
	if cost := after.TotalAlloc - before.TotalAlloc; cost >= 2<<20 {
		t.Errorf("7-byte stream claiming %d bytes cost %d bytes of allocation", maxWireFrame, cost)
	}

	req := &Request{Model: "m", Features: wireTensor(19, 3, 5, 200, 200)} // 4.8 MB of payload
	var stream bytes.Buffer
	c := &binClientCodec{binFramer{w: &stream}}
	for i := 0; i < 3; i++ { // one read cold, then AllocsPerRun's warm-up and its run
		if err := c.writeRequest(req, trace.Context{}); err != nil {
			t.Fatal(err)
		}
	}
	r := bytes.NewReader(stream.Bytes())
	buf, body, err := readFrame(r, nil)
	if err != nil {
		t.Fatalf("multi-step frame: %v", err)
	}
	got, err := parseRequest(body, nil)
	if err != nil {
		t.Fatalf("multi-step frame: %v", err)
	}
	if err := bitsDiffer(got.Features, req.Features); err != nil {
		t.Errorf("multi-step frame: %v", err)
	}
	if allocs := testing.AllocsPerRun(1, func() { _, body, err = readFrame(r, buf) }); allocs != 0 || err != nil {
		t.Errorf("frame into a buffer that fits it: %v allocations, err %v", allocs, err)
	}
	if !bytes.Equal(body, stream.Bytes()[4:4+len(body)]) {
		t.Error("frame into a buffer that fits it: body differs from what was sent")
	}
}

// TestFloat32ClientEndToEnd drives the f32 wire against a live server and
// checks the result stays within float32 rounding of the f64 wire's.
func TestFloat32ClientEndToEnd(t *testing.T) {
	const nBodies = 2
	addr := startCodecServer(t, nBodies)
	x := wireTensor(17, 1, 4, 8, 8)

	exact, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer exact.Close()
	lossy, err := Dial(addr, WithWire(WireBinaryF32))
	if err != nil {
		t.Fatal(err)
	}
	defer lossy.Close()

	exf, _, err := exact.Exchange(context.Background(), x)
	if err != nil {
		t.Fatal(err)
	}
	lof, t2, err := lossy.Exchange(context.Background(), x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range exf.Features {
		if !lof.Features[i].AllClose(exf.Features[i], 1e-4) {
			t.Errorf("f32 wire features for body %d diverge beyond rounding", i)
		}
		if lof.Features[i].AllClose(exf.Features[i], 0) {
			t.Logf("body %d features happen to be f32-exact", i)
		}
	}
	// Rough byte check: the f32 upload should be well under the f64 one
	// would be (8 bytes per value plus framing).
	vals := x.Size()
	if t2.BytesUp >= vals*8 {
		t.Errorf("f32 upload of %d bytes for %d values — float32 payload not in effect", t2.BytesUp, vals)
	}
}

// TestDecodeWireStreamBothProtocols pins the wiretap parser used by the
// shard privacy tests: a captured stream yields the transmitted requests, and
// a capture of the retired gob protocol is refused, not guessed at.
func TestDecodeWireStreamBothProtocols(t *testing.T) {
	req := &Request{Model: "m", Features: wireTensor(18, 1, 2, 4, 4)}

	// A capture: hello + two frames.
	var bin bytes.Buffer
	hello := helloBytes(wireVersion, 0)
	bin.Write(hello[:])
	codec := &binClientCodec{binFramer: binFramer{w: &bin}}
	if err := codec.writeRequest(req, trace.Context{}); err != nil {
		t.Fatal(err)
	}
	if err := codec.writeRequest(req, trace.Context{}); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeWireStream(bin.Bytes())
	if err != nil {
		t.Fatalf("binary stream: %v", err)
	}
	if len(got) != 2 || !got[0].Features.AllClose(req.Features, 0) || got[1].Model != "m" {
		t.Errorf("binary stream decoded %d requests", len(got))
	}

	if got, err := DecodeWireStream([]byte(GobStreamOpener)); err == nil {
		t.Errorf("gob stream decoded %d requests", len(got))
	}

	// Truncated binary stream errors instead of panicking.
	if _, err := DecodeWireStream(bin.Bytes()[:bin.Len()-3]); err == nil {
		t.Error("truncated binary stream accepted")
	}
}

// TestServerComputeLoopZeroAllocs pins the tentpole acceptance criterion at
// the server-loop level: decode → resolve → body-set lookup → every body's
// inference pass → response copy-out → encode, with zero heap allocations
// at steady state. A regression here shows up in CI instead of in a GC
// profile under load.
func TestServerComputeLoopZeroAllocs(t *testing.T) {
	// workers > 1 selects the serial per-body loop, the production shape of
	// a multi-core server; a single worker fans the bodies out instead.
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			testServerComputeLoopZeroAllocs(t, workers)
		})
	}
}

func testServerComputeLoopZeroAllocs(t *testing.T, workers int) {
	const nBodies = 3
	srv := NewServer(codecBodies(nBodies), WithWorkers(workers))
	loop := newServeLoop(t, srv, &Request{Features: wireTensor(19, 2, 4, 8, 8)}, false)
	if allocs := loop.allocs(); allocs != 0 {
		t.Errorf("steady-state server compute loop allocates %v times per request, want 0", allocs)
	}
	// The batched form reaches steady state too (after its own warm-up).
	loop.request(&Request{Inputs: []*tensor.Tensor{wireTensor(20, 1, 4, 8, 8), wireTensor(21, 2, 4, 8, 8)}})
	if allocs := loop.allocs(); allocs != 0 {
		t.Errorf("steady-state batched compute loop allocates %v times per request, want 0", allocs)
	}
}

// BenchmarkServeRequestLoop measures the per-request server loop in
// isolation — binary decode, resolve, body-set lookup, every body pass,
// response copy-out, binary encode — and reports its allocation count,
// which must be 0 at steady state (pinned by TestServerComputeLoopZeroAllocs).
func BenchmarkServeRequestLoop(b *testing.B) { benchServeRequestLoop(b, 2, nil) }

// BenchmarkServeRequestLoopFanout is the same loop on a single-worker
// server, whose bodies fan out across goroutines: it must hold 0 allocs/op
// too.
func BenchmarkServeRequestLoopFanout(b *testing.B) { benchServeRequestLoop(b, 1, nil) }

// benchServeRequestLoop runs BenchmarkServeRequestLoop's loop — four bodies,
// one 4-row request per pass — on a server of the given worker count, with
// tr, when non-nil, tracing every leg.
func benchServeRequestLoop(b *testing.B, workers int, tr *trace.Tracer) {
	const nBodies = 4
	srv := NewServer(codecBodies(nBodies), WithWorkers(workers), WithTracer(tr))
	loop := newServeLoop(b, srv, &Request{Features: wireTensor(22, 4, 4, 8, 8)}, false)
	loop.tracer = tr
	loop.bench(b)
}

// BenchmarkLoopBands measures the CI perf gate's two ratio bands in one
// process, over the loops of BenchmarkServeRequestLoop,
// BenchmarkServeRequestLoopF32 and BenchmarkServeRequestLoopTracedDefault.
// Each of b.N rounds times bandCycles cycles of each loop, in an order that
// rotates every round, and the benchmark reports the median over rounds of
// the f64 loop's time over the f32 loop's ("f64/f32") and of the traced
// loop's time over the untraced loop's ("traced/untraced"). A round lasts a
// few milliseconds, so a slow stretch of a shared host moves the rows each
// ratio compares alike; separate benchmark runs of the same loops, even
// back to back, read ratios that swung by ±30 % from round to round.
func BenchmarkLoopBands(b *testing.B) {
	const bandCycles = 20
	req := &Request{Features: wireTensor(22, 4, 4, 8, 8)}
	tr := trace.New(trace.Config{Capacity: 256})
	loops := [3]*serveLoop{ // untraced f64, f32, traced f64
		newServeLoop(b, NewServer(codecBodies(4), WithWorkers(2)), req, false),
		newServeLoop(b, newF32Server(4), req, true),
		newServeLoop(b, NewServer(codecBodies(4), WithWorkers(2), WithTracer(tr)), req, false),
	}
	loops[2].tracer = tr
	for _, l := range loops {
		l.warm()
	}
	f32, traced := make([]float64, b.N), make([]float64, b.N)
	b.ResetTimer()
	for i := range b.N {
		var d [3]time.Duration
		for k := range loops {
			k = (i + k) % len(loops)
			start := time.Now()
			for range bandCycles {
				loops[k].cycle()
			}
			d[k] = time.Since(start)
		}
		f32[i] = float64(d[0]) / float64(d[1])
		traced[i] = float64(d[2]) / float64(d[0])
	}
	b.StopTimer()
	for _, band := range []struct {
		unit   string
		ratios []float64
	}{{"f64/f32", f32}, {"traced/untraced", traced}} {
		sort.Float64s(band.ratios)
		b.ReportMetric(band.ratios[len(band.ratios)/2], band.unit)
	}
}

// flatBodies builds two bodies with a Flatten→Linear boundary: a request
// whose spatial dims clear validateFeatures (a [N,4,4,4] one, say) still
// panics at the Linear, AFTER the earlier layers have already drawn
// activations from the scratch.
func flatBodies() []*nn.Network {
	out := make([]*nn.Network, 2)
	for i := range out {
		r := rng.New(int64(40 + i))
		out[i] = nn.NewNetwork(fmt.Sprintf("fb%d", i),
			nn.NewBatchNorm2D("bn", 4),
			nn.NewReLU(),
			nn.NewFlatten(),
			nn.NewLinear("fc", 4*8*8, 4, r),
		)
	}
	return out
}

// TestMalformedRequestsDoNotGrowScratches pins the panic-path memory fix: a
// request that clears validateFeatures but panics mid-network (hostile
// spatial dims) must not leave un-reset scratch arenas accumulating demand,
// or a stream of malformed requests inflates every worker's scratch buffers
// without bound.
func TestMalformedRequestsDoNotGrowScratches(t *testing.T) {
	srv := NewServer(flatBodies(), WithWorkers(2))
	j := newJob[float64]()
	cache := srv.newBodyCache()

	good := &Request{Features: wireTensor(23, 1, 4, 8, 8)}
	// Right rank and channels, wrong spatial size: flattens to 64 ≠ 256.
	bad := &Request{Features: wireTensor(24, 1, 4, 4, 4)}

	serveJob := jobServer(srv, cache)
	serve := func(req *Request) *Response {
		setRequest(j, *req)
		resp := *serveJob(j)
		j.reset()
		return &resp
	}
	if resp := serve(good); resp.Err != "" {
		t.Fatalf("good request failed: %s", resp.Err)
	}
	if resp := serve(bad); resp.Err == "" {
		t.Fatal("hostile-shape request must produce an error response")
	}
	m, err := srv.provider.Resolve("", 0)
	if err != nil {
		t.Fatal(err)
	}
	run, err := cache.bodiesFor(m)
	if err != nil {
		t.Fatal(err)
	}
	// Let the post-failure state settle into steady state, then record it.
	serve(good)
	serve(bad)
	footprint := func() int {
		total := 0
		for _, sc := range run.(*bodySet[float64]).scratches {
			total += sc.Footprint()
		}
		return total
	}
	before := footprint()
	for i := 0; i < 50; i++ {
		serve(bad)
	}
	serve(good)
	if after := footprint(); after > before {
		t.Errorf("50 malformed requests grew the worker's scratches from %d to %d bytes", before, after)
	}
}
