package comm

// encodeResponse encodes a float64 Response — a literal, or one a fake
// server in a test built — the way any holder of one does: its own Features
// and Outputs are the tensors.
func encodeResponse(buf []byte, resp *Response, f32, withCode bool, traceID uint64) ([]byte, error) {
	return appendResponse(buf, resp, resp.Features, resp.Outputs, f32, withCode, traceID)
}

// jobFor returns a float64 job carrying req the way the gob codec and the
// sync entry deliver one: header and tensors in j.req, tensors ingested into
// the payload.
func jobFor(req Request) *job {
	j := newJob[float64]()
	j.req = req
	j.pay.ingest(&j.req)
	return j
}

// jobRequest views a float64 job's binary-decoded request as a Request:
// routing header from j.req, tensors from the payload.
func jobRequest(j *job) *Request {
	p := payloadOf[float64](j)
	return &Request{Model: j.req.Model, Version: j.req.Version, Features: p.feat, Inputs: p.inputs}
}
