package comm

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"

	"ensembler/internal/trace"
)

// TestGoldenServeFrames pins the response frame bytes of a full
// parse → serve → append cycle — three requests of 1, 2 and 1 rows and a
// repeat of the second — on a float64 server over the f64 wire and on a
// float32 server over the f32 wire. The digests are those of the same four
// frames when the wire still carried client-batched requests (a batched
// request then followed them); those frames were in turn unchanged since
// the serving path became generic over the element type. Any change to the
// frame layout, the decode/encode conversions, the copy-out or the kernels'
// bits shows up here. (amd64 only: see nn.TestGoldenBodyBits.)
func TestGoldenServeFrames(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden bits are pinned on amd64")
	}
	const nBodies = 3
	reqs := []*Request{
		{Features: wireTensor(1401, 1, 4, 8, 8)},
		{Features: wireTensor(1402, 2, 4, 8, 8)},
		{Features: wireTensor(1403, 1, 4, 8, 8)},
	}
	for _, tc := range []struct {
		precision Precision
		want      string
	}{
		{PrecisionF64, "2e78e41d4d26e8f31074a947ca7ad16cfa5013386a7bd00567d422d057d72f1c"},
		{PrecisionF32, "9949d213a403f0b703c656d1e5f320baa74dceb313c4d25058a8d94cd1822ee7"},
	} {
		f32 := tc.precision == PrecisionF32
		srv := NewServer(codecBodies(nBodies), WithWorkers(2), WithPrecision(tc.precision))
		cache := srv.newBodyCache()
		serve := jobServer(srv, cache)
		parse := func(req *Request) *job {
			body, err := appendRequest(nil, req, f32, trace.Context{})
			if err != nil {
				t.Fatal(err)
			}
			j := srv.newJob()
			if err := j.pay.parse(body, &j.req, nil); err != nil {
				t.Fatal(err)
			}
			return j
		}
		h := sha256.New()
		frame := func(j *job, resp *Response) {
			if resp.Err != "" {
				t.Fatal(resp.Err)
			}
			enc, err := j.pay.appendResponse(nil, resp, f32, 0)
			if err != nil {
				t.Fatal(err)
			}
			h.Write(enc)
		}
		for _, r := range append(reqs, reqs[1]) {
			j := parse(r)
			frame(j, serve(j))
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
			t.Errorf("%s serving frames changed: digest %s, want %s", tc.precision, got, tc.want)
		}
	}
}
