package comm

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"

	"ensembler/internal/tensor"
	"ensembler/internal/trace"
)

// TestGoldenServeFrames pins the response frame bytes of a full
// parse → serve → append cycle — three plain requests, a repeat of the
// second and a client-batched request — on a float64 server over the f64
// wire and on a float32 server over the f32 wire, to digests recorded at the
// commit before the serving path became generic over the element type (the
// first three were then one stacked pass; each row's bits are the same
// served alone). Any change to the frame layout, the decode/encode
// conversions, the stacking and splitting, or the kernels' bits shows up
// here. (amd64 only: see nn.TestGoldenBodyBits.)
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
	batched := &Request{Inputs: []*tensor.Tensor{wireTensor(1404, 1, 4, 8, 8), wireTensor(1405, 3, 4, 8, 8)}}
	for _, tc := range []struct {
		precision Precision
		want      string
	}{
		{PrecisionF64, "7243053f99eac3aad6912a3def5f8bef68057f53328b12e5d51acd079198e441"},
		{PrecisionF32, "0338d1d0571f3a94bd6475983a98b6dd261f913247601b5b63edc9ec18e8c7f3"},
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
		for _, r := range append(reqs, reqs[1], batched) {
			j := parse(r)
			frame(j, serve(j))
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
			t.Errorf("%s serving frames changed: digest %s, want %s", tc.precision, got, tc.want)
		}
	}
}
