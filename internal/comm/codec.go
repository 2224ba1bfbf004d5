package comm

// The wire protocol: one length-prefixed binary frame format, spoken by every
// connection. A frame is one header and the raw payload; both ends reuse their
// encode/decode buffers across requests, and a client may ship float32 on the
// wire (half the bytes, ~1e-7 relative feature error — see README).
//
// Framing (all integers little-endian):
//
//	hello     = magic[4] version(u8) flags(u8) reserved(u16)   client→server
//	hello-ack = magic[4] version(u8) flags(u8) reserved(u16)   server→client
//	frame     = length(u32) body
//	clientID  = 0x05 idLen(u8) idBytes
//	request   = 0x01 modelLen(u16) model version(u32) kind(u8) count(u16) tensor*
//	          | 0x03 traceID(u64) tflags(u8) modelLen(u16) model ...
//	response  = 0x02 modelLen(u16) model version(u32) errLen(u16) err code(u16)
//	            kind(u8) count(u16) tensor*
//	          | 0x04 traceID(u64) modelLen(u16) model ...
//	tensor    = rank(u8) dtype(u8) dims(u32)*rank payload(f64|f32 ×n)
//
// The one kind is 0x00: a request carries one [B,C,H,W] feature tensor
// (count 1) and a response one tensor per hosted body. The kind and count
// fields stay in the layout so that version-4 frames keep their bytes; a
// frame of any other kind is refused as an unknown kind, which drops its
// connection.
//
// Handshake: the client's hello names wireVersion and the flags it wants
// (0x01 float32 payloads, 0x02 "I will declare a client identity"); the
// server acks the same version and echoes the flags it accepts. The trailing
// u16 of both is reserved: a peer sends zero and ignores what it reads. A
// client whose
// identity flag was echoed sends exactly one client-ID frame (1–64
// printable-ASCII bytes, for the per-client privacy-budget ledger) before any
// request; peers that declare none are bucketed by remote address. There is
// no negotiation: a peer that opens with anything but the magic is closed
// unanswered, a hello naming any other version is answered with a version-0
// ack — which every client of this codec reports as an unsupported wire
// version — and closed without reading further, and a client accepts only an
// ack naming wireVersion.
//
// The code field carries the verdict a client reacts to mechanically
// (CodeBudgetExhausted). The traced frame types 0x03/0x04 are
// 0x01/0x02 with a trace context (u64 trace ID; on requests also a flags byte
// whose bit0 forces tail-sampling retention downstream) between the message
// byte and the model name, which is how one logical request's legs stitch
// into a single trace across connections and shards (see internal/trace).
// They are self-describing: a client sends 0x03 only when it has a trace
// context, and a server echoes 0x04 only on a request that arrived as 0x03.
//
// Trust boundary: decoders validate every length against the bytes actually
// present before allocating, so a hostile frame claiming 2^30 elements over a
// short body is rejected, not allocated — and readFrame applies the same rule
// to the frame length itself, growing its buffer with the bytes that arrive
// rather than the bytes a prefix claims. The request parser and the tensor
// reader/writer are written once over the element type; FuzzWireRequestFrame
// and FuzzWireResponseFrame run random bytes through both instantiations
// and require them to agree, FuzzWireStream through the stream decoder.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"ensembler/internal/tensor"
	"ensembler/internal/trace"
)

// WireFormat selects the payload width a client puts on the wire.
type WireFormat int

const (
	// WireBinary ships float64 payloads: what the server computes is what the
	// client decodes, bit for bit. The default for Dial.
	WireBinary WireFormat = iota
	// WireBinaryF32 ships float32 payloads: half the bytes, ~1e-7 relative
	// rounding on transmitted features (see README for the accuracy
	// trade-off).
	WireBinaryF32
)

func (f WireFormat) String() string {
	switch f {
	case WireBinary:
		return "binary"
	case WireBinaryF32:
		return "binary+f32"
	default:
		return fmt.Sprintf("WireFormat(%d)", int(f))
	}
}

const (
	wireVersion = 4
	wireFlagF32 = 0x01
	// wireFlagClientID in a hello announces that the client has an identity
	// to declare; echoed in the ack, after which the server reads exactly one
	// client-ID frame.
	wireFlagClientID = 0x02

	wireMsgRequest  = 0x01
	wireMsgResponse = 0x02
	// Traced variants: the body carries a trace context between the message
	// byte and the model name. Self-describing, so untraced requests use the
	// cheaper 0x01/0x02 layouts.
	wireMsgRequestTraced  = 0x03
	wireMsgResponseTraced = 0x04
	// wireMsgClientID declares the connection's client identity for
	// privacy-budget accounting. Sent at most once, immediately after an ack
	// that accepted wireFlagClientID, before any request frame.
	wireMsgClientID = 0x05

	// wireTraceSampled in a traced request's flags byte forces tail-sampling
	// retention of this leg (the root leg won the coin, or was an error).
	wireTraceSampled = 0x01

	wireKindFeatures = 0x00

	wireDtypeF64 = 0x00
	wireDtypeF32 = 0x01

	// maxWireFrame bounds one frame; larger batches must split across
	// requests. 256 MiB comfortably holds the largest supported batch.
	maxWireFrame = 1 << 28
	maxWireModel = 4096
	maxWireRank  = 8
	// maxWireClientID bounds a declared client identity; long enough for a
	// UUID or a hostname, short enough that a ledger full of hostile IDs
	// stays small.
	maxWireClientID = 64
)

// wireMagic opens the hello and hello-ack.
var wireMagic = [4]byte{0xE5, 'N', 'S', 'B'}

// helloBytes builds the 8-byte hello/ack for a version and flag set.
func helloBytes(version, flags byte) [8]byte {
	return [8]byte{wireMagic[0], wireMagic[1], wireMagic[2], wireMagic[3], version, flags, 0, 0}
}

// --- encoding ---

// appendTensor encodes one tensor of either element type onto either wire
// dtype. Matching types move raw bits with no conversion (a float32 payload
// on the f32 wire never touches float64); float64 onto the f32 wire rounds
// each value once; float32 onto the f64 wire widens exactly, so a float64
// client sees precisely what an f32 compute produced.
func appendTensor[T tensor.Float](buf []byte, t *tensor.Dense[T], f32 bool) []byte {
	buf = append(buf, byte(len(t.Shape)))
	if f32 {
		buf = append(buf, wireDtypeF32)
	} else {
		buf = append(buf, wireDtypeF64)
	}
	for _, d := range t.Shape {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(d))
	}
	if f32 {
		for _, v := range t.Data {
			buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(float32(v)))
		}
	} else {
		for _, v := range t.Data {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(float64(v)))
		}
	}
	return buf
}

// appendRequest encodes a request body (no length prefix). A nonzero trace
// context selects the traced layout (0x03).
func appendRequest(buf []byte, req *Request, f32 bool, tc trace.Context) ([]byte, error) {
	if len(req.Model) > maxWireModel {
		return buf, fmt.Errorf("comm: model name of %d bytes exceeds wire limit %d", len(req.Model), maxWireModel)
	}
	if tc.ID != 0 {
		buf = append(buf, wireMsgRequestTraced)
		buf = binary.LittleEndian.AppendUint64(buf, tc.ID)
		var tflags byte
		if tc.Sampled {
			tflags |= wireTraceSampled
		}
		buf = append(buf, tflags)
	} else {
		buf = append(buf, wireMsgRequest)
	}
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(req.Model)))
	buf = append(buf, req.Model...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(req.Version))
	if req.Features == nil {
		return buf, fmt.Errorf("comm: request carries no features")
	}
	buf = append(buf, wireKindFeatures)
	buf = binary.LittleEndian.AppendUint16(buf, 1)
	return appendTensor(buf, req.Features, f32), nil
}

// appendResponse encodes a response body (no length prefix): the header from
// resp, the tensors from feats (one per body) — the server passes its job
// payload's outputs at the compute precision, anything holding a float64
// Response passes resp.Features. A nonzero traceID echoes the request's trace
// context in the traced layout (0x04); callers must only pass one for requests
// that arrived traced.
func appendResponse[T tensor.Float](buf []byte, resp *Response, feats []*tensor.Dense[T], f32 bool, traceID uint64) ([]byte, error) {
	if len(resp.Model) > maxWireModel {
		return buf, fmt.Errorf("comm: model name of %d bytes exceeds wire limit %d", len(resp.Model), maxWireModel)
	}
	if len(resp.Err) > math.MaxUint16 {
		return buf, fmt.Errorf("comm: error string of %d bytes exceeds wire limit", len(resp.Err))
	}
	if resp.Code < 0 || resp.Code > math.MaxUint16 {
		return buf, fmt.Errorf("comm: response code %d out of wire range", resp.Code)
	}
	if traceID != 0 {
		buf = append(buf, wireMsgResponseTraced)
		buf = binary.LittleEndian.AppendUint64(buf, traceID)
	} else {
		buf = append(buf, wireMsgResponse)
	}
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(resp.Model)))
	buf = append(buf, resp.Model...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(resp.Version))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(resp.Err)))
	buf = append(buf, resp.Err...)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(resp.Code))
	buf = append(buf, wireKindFeatures)
	if len(feats) > math.MaxUint16 {
		return buf, fmt.Errorf("comm: response of %d feature maps exceeds wire limit", len(feats))
	}
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(feats)))
	for _, t := range feats {
		if t == nil {
			return buf, fmt.Errorf("comm: nil tensor in response features")
		}
		buf = appendTensor(buf, t, f32)
	}
	return buf, nil
}

// ValidClientID reports whether id may be declared on the wire: 1 to 64
// bytes of printable ASCII (no spaces or control bytes), so a hostile
// identity cannot smuggle log-injection or NUL tricks into the ledger or
// the admin JSON.
func ValidClientID(id string) bool {
	if len(id) == 0 || len(id) > maxWireClientID {
		return false
	}
	for i := 0; i < len(id); i++ {
		if id[i] < 0x21 || id[i] > 0x7E {
			return false
		}
	}
	return true
}

// appendClientID encodes the client-ID frame body (no length prefix).
func appendClientID(buf []byte, id string) []byte {
	buf = append(buf, wireMsgClientID)
	buf = append(buf, byte(len(id)))
	return append(buf, id...)
}

// parseClientID decodes a client-ID frame body, enforcing the same identity
// discipline ValidClientID states. Everything here came off the wire from
// an untrusted peer; a malformed frame drops the connection.
func parseClientID(body []byte) (string, error) {
	r := wireReader{b: body}
	msg, err := r.u8()
	if err != nil {
		return "", err
	}
	if msg != wireMsgClientID {
		return "", fmt.Errorf("comm: expected client-ID frame, got message type %d", msg)
	}
	n, err := r.u8()
	if err != nil {
		return "", err
	}
	if n == 0 || int(n) > maxWireClientID {
		return "", fmt.Errorf("comm: client ID of %d bytes outside [1,%d]", n, maxWireClientID)
	}
	id, err := r.str(int(n), "")
	if err != nil {
		return "", err
	}
	if !ValidClientID(id) {
		return "", fmt.Errorf("comm: client ID carries non-printable bytes")
	}
	if r.remaining() != 0 {
		return "", fmt.Errorf("comm: %d trailing bytes after client ID", r.remaining())
	}
	return id, nil
}

// readClientIDFrame reads the single client-ID frame an accepting handshake
// promises. The frame length is bounded before any read of the
// body — a hostile length cannot force an allocation — and the body lands in
// a stack buffer.
func readClientIDFrame(r io.Reader) (string, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return "", fmt.Errorf("comm: reading client-ID frame: %w", err)
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n < 3 || n > 2+maxWireClientID {
		return "", fmt.Errorf("comm: client-ID frame of %d bytes outside [3,%d]", n, 2+maxWireClientID)
	}
	var body [2 + maxWireClientID]byte
	if _, err := io.ReadFull(r, body[:n]); err != nil {
		return "", fmt.Errorf("comm: reading client-ID frame: %w", err)
	}
	return parseClientID(body[:n])
}

// --- decoding ---

// wireReader is a bounds-checked cursor over one frame body.
type wireReader struct {
	b   []byte
	off int
}

func (r *wireReader) remaining() int { return len(r.b) - r.off }

func (r *wireReader) u8() (byte, error) {
	if r.remaining() < 1 {
		return 0, fmt.Errorf("comm: truncated frame")
	}
	v := r.b[r.off]
	r.off++
	return v, nil
}

func (r *wireReader) u16() (int, error) {
	if r.remaining() < 2 {
		return 0, fmt.Errorf("comm: truncated frame")
	}
	v := binary.LittleEndian.Uint16(r.b[r.off:])
	r.off += 2
	return int(v), nil
}

func (r *wireReader) u32() (uint32, error) {
	if r.remaining() < 4 {
		return 0, fmt.Errorf("comm: truncated frame")
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v, nil
}

func (r *wireReader) u64() (uint64, error) {
	if r.remaining() < 8 {
		return 0, fmt.Errorf("comm: truncated frame")
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v, nil
}

// str reads an n-byte string, returning old itself when the bytes spell it:
// a connection's model name repeats on every frame, and re-reading it this
// way allocates nothing.
func (r *wireReader) str(n int, old string) (string, error) {
	if r.remaining() < n {
		return "", fmt.Errorf("comm: truncated frame")
	}
	b := r.b[r.off : r.off+n]
	r.off += n
	if string(b) == old {
		return old, nil
	}
	return string(b), nil
}

// readTensor decodes one tensor of either wire dtype into element type T
// over a, validating every dimension against the bytes actually present
// before allocating — the rule that keeps a hostile frame from turning a
// 20-byte message into a multi-gigabyte allocation. A payload whose dtype
// matches T copies raw bits; f32 into float64 widens exactly; f64 into
// float32 is the one sanctioned narrowing of a float64 client's features on
// an f32 server. A zero Arena is the heap: the wiretap, and any caller that
// must own what it decodes, hands in one it never Resets.
func readTensor[T tensor.Float](r *wireReader, a *tensor.Arena[T], shapeBuf []int) (*tensor.Dense[T], error) {
	rank, err := r.u8()
	if err != nil {
		return nil, err
	}
	if rank == 0 || rank > maxWireRank {
		return nil, fmt.Errorf("comm: tensor rank %d out of range [1,%d]", rank, maxWireRank)
	}
	dtype, err := r.u8()
	if err != nil {
		return nil, err
	}
	width := 8
	switch dtype {
	case wireDtypeF64:
	case wireDtypeF32:
		width = 4
	default:
		return nil, fmt.Errorf("comm: unknown tensor dtype %d", dtype)
	}
	shape := shapeBuf[:0]
	maxElems := r.remaining() / width
	n := 1
	for i := 0; i < int(rank); i++ {
		d, err := r.u32()
		if err != nil {
			return nil, err
		}
		// The bound is checked before the multiply, in uint64: n·d ≤ maxElems
		// exactly when d ≤ maxElems/n, so neither int(d) nor the product can
		// overflow, whatever the width of int (a u32 dimension ≥ 2^31 is
		// negative as a 32-bit int).
		if d == 0 {
			return nil, fmt.Errorf("comm: zero tensor dimension")
		}
		if uint64(d) > uint64(maxElems/n) {
			return nil, fmt.Errorf("comm: tensor dimension %d exceeds frame size (%d elements left)", d, maxElems)
		}
		n *= int(d)
		shape = append(shape, int(d))
	}
	if r.remaining() < n*width {
		return nil, fmt.Errorf("comm: tensor payload truncated (%d elements, %d bytes left)", n, r.remaining())
	}
	t := a.NewTensor(shape...) // wire payloads overwrite every element; no zeroing needed
	src := r.b[r.off:]
	if dtype == wireDtypeF64 {
		for i := 0; i < n; i++ {
			t.Data[i] = T(math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:])))
		}
		r.off += 8 * n
	} else {
		for i := 0; i < n; i++ {
			t.Data[i] = T(math.Float32frombits(binary.LittleEndian.Uint32(src[4*i:])))
		}
		r.off += 4 * n
	}
	return t, nil
}

// parseRequestInto decodes a request frame body: the routing header into
// req, the tensor into p (over p's arena, so the serving path's steady state
// allocates nothing) — req.Features stays nil. tc (optional) receives the
// trace context when the frame uses the traced layout; a traced frame with a
// nil tc is decoded and its trace header discarded (the wiretap path).
func parseRequestInto[T tensor.Float](body []byte, req *Request, p *payload[T], tc *trace.Context) error {
	r := wireReader{b: body}
	msg, err := r.u8()
	if err != nil {
		return err
	}
	switch msg {
	case wireMsgRequest:
	case wireMsgRequestTraced:
		id, err := r.u64()
		if err != nil {
			return err
		}
		tflags, err := r.u8()
		if err != nil {
			return err
		}
		if id == 0 {
			return fmt.Errorf("comm: traced request frame carries zero trace ID")
		}
		if tc != nil {
			tc.ID = id
			tc.Sampled = tflags&wireTraceSampled != 0
		}
	default:
		return fmt.Errorf("comm: expected request frame, got message type %d", msg)
	}
	mlen, err := r.u16()
	if err != nil {
		return err
	}
	if mlen > maxWireModel {
		return fmt.Errorf("comm: model name of %d bytes exceeds wire limit", mlen)
	}
	if req.Model, err = r.str(mlen, req.Model); err != nil {
		return err
	}
	ver, err := r.u32()
	if err != nil {
		return err
	}
	if ver > math.MaxInt32 {
		return fmt.Errorf("comm: version %d out of range", ver)
	}
	req.Version = int(ver)
	kind, err := r.u8()
	if err != nil {
		return err
	}
	if kind != wireKindFeatures {
		return fmt.Errorf("comm: unknown request kind %d", kind)
	}
	count, err := r.u16()
	if err != nil {
		return err
	}
	if count != 1 {
		return fmt.Errorf("comm: feature request carries %d tensors, want 1", count)
	}
	if p.input, err = readTensor(&r, &p.arena, p.shape[:0]); err != nil {
		return err
	}
	if r.remaining() != 0 {
		return fmt.Errorf("comm: %d trailing bytes after request", r.remaining())
	}
	return nil
}

// parseRequest decodes a request frame body onto the heap as a float64
// Request — the wiretap's form (and the tests'); the serving path decodes
// into a job's payload instead.
func parseRequest(body []byte, tc *trace.Context) (*Request, error) {
	var p payload[float64]
	req := &Request{}
	if err := parseRequestInto(body, req, &p, tc); err != nil {
		return nil, err
	}
	req.Features = p.input
	return req, nil
}

// parseResponseInto decodes a response frame body into resp: the tensors into
// a, the list into resp's own Features storage, which is reused (as is an
// unchanged Model string), so a steady connection decodes without
// allocating. What resp then holds is valid until resp's next parse or a's
// next Reset, whichever the owner of the two does first; a caller that must
// keep the result hands in a fresh Response and a zero arena. echo (optional)
// receives the trace ID when the frame uses the traced layout.
func parseResponseInto(body []byte, resp *Response, echo *uint64, a *tensor.Arena[float64]) error {
	resp.Features = resp.Features[:0]
	resp.Version, resp.Err, resp.Code = 0, "", 0
	r := wireReader{b: body}
	msg, err := r.u8()
	if err != nil {
		return err
	}
	switch msg {
	case wireMsgResponse:
	case wireMsgResponseTraced:
		id, err := r.u64()
		if err != nil {
			return err
		}
		if id == 0 {
			return fmt.Errorf("comm: traced response frame carries zero trace ID")
		}
		if echo != nil {
			*echo = id
		}
	default:
		return fmt.Errorf("comm: expected response frame, got message type %d", msg)
	}
	mlen, err := r.u16()
	if err != nil {
		return err
	}
	if mlen > maxWireModel {
		return fmt.Errorf("comm: model name of %d bytes exceeds wire limit", mlen)
	}
	if resp.Model, err = r.str(mlen, resp.Model); err != nil {
		return err
	}
	ver, err := r.u32()
	if err != nil {
		return err
	}
	if ver > math.MaxInt32 {
		return fmt.Errorf("comm: version %d out of range", ver)
	}
	resp.Version = int(ver)
	elen, err := r.u16()
	if err != nil {
		return err
	}
	if resp.Err, err = r.str(elen, ""); err != nil {
		return err
	}
	if resp.Code, err = r.u16(); err != nil {
		return err
	}
	kind, err := r.u8()
	if err != nil {
		return err
	}
	if kind != wireKindFeatures {
		return fmt.Errorf("comm: unknown response kind %d", kind)
	}
	count, err := r.u16()
	if err != nil {
		return err
	}
	var shapeBuf [maxWireRank]int
	for i := 0; i < count; i++ {
		t, err := readTensor(&r, a, shapeBuf[:0])
		if err != nil {
			return err
		}
		resp.Features = append(resp.Features, t)
	}
	if r.remaining() != 0 {
		return fmt.Errorf("comm: %d trailing bytes after response", r.remaining())
	}
	return nil
}

// --- framed I/O ---

// writeFrame sends buf (whose first 4 bytes are reserved for the length
// prefix) in a single Write.
func writeFrame(w io.Writer, buf []byte) error {
	if len(buf) < 4 {
		panic("comm: writeFrame buffer missing length prefix reservation")
	}
	body := len(buf) - 4
	if body > maxWireFrame {
		return fmt.Errorf("comm: frame of %d bytes exceeds limit %d", body, maxWireFrame)
	}
	binary.LittleEndian.PutUint32(buf, uint32(body))
	_, err := w.Write(buf)
	return err
}

// frameGrowth is the most readFrame allocates ahead of the bytes a peer has
// actually delivered, and its first step: every frame of real traffic fits in
// one step and is allocated once, at its exact size.
const frameGrowth = 1 << 20

// readFrame reads one length-prefixed frame into buf (growing it as needed)
// and returns the body. The length prefix passes through buf too: a local
// array would escape through the io.Reader, one allocation per frame.
//
// The prefix is a claim, not a fact: a frame larger than buf is read in steps
// that double from frameGrowth, each allocated only once the previous one has
// arrived in full, so a peer that claims maxWireFrame and sends 3 bytes costs
// one step, not 256 MiB.
func readFrame(r io.Reader, buf []byte) ([]byte, []byte, error) {
	if cap(buf) < 4 {
		buf = make([]byte, 4)
	}
	hdr := buf[:4]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return buf, nil, err
	}
	n := int(binary.LittleEndian.Uint32(hdr))
	if n > maxWireFrame {
		return buf, nil, fmt.Errorf("comm: frame of %d bytes exceeds limit %d", n, maxWireFrame)
	}
	for have := 0; have < n; {
		next := n
		if next > cap(buf) {
			next = min(n, max(2*have, frameGrowth))
			grown := make([]byte, next)
			copy(grown, buf[:have])
			buf = grown
		}
		if _, err := io.ReadFull(r, buf[have:next]); err != nil {
			return buf, nil, err
		}
		have = next
	}
	return buf, buf[:n], nil
}

// --- the two ends of a connection ---

// binFramer is the framing state both ends of a connection share: the
// write/read halves plus their reusable buffers. The encode side reserves 4
// bytes for the length prefix via frameStart; method bodies stay direct calls
// (no encode closures) so the per-request path performs no allocations.
type binFramer struct {
	w      io.Writer
	r      *bufio.Reader
	f32    bool
	encBuf []byte
	decBuf []byte
}

// frameStart returns the encode buffer with the length prefix reserved.
func (c *binFramer) frameStart() []byte { return append(c.encBuf[:0], 0, 0, 0, 0) }

// readBody reads the next frame into the reusable decode buffer.
func (c *binFramer) readBody() ([]byte, error) {
	buf, body, err := readFrame(c.r, c.decBuf)
	c.decBuf = buf
	return body, err
}

// binClientCodec is one connection's wire protocol from the client side.
type binClientCodec struct {
	binFramer
}

// writeRequest sends req. The trace context rides alongside the request, not
// inside it, so callers can set one unconditionally.
func (c *binClientCodec) writeRequest(req *Request, tc trace.Context) error {
	buf, err := appendRequest(c.frameStart(), req, c.f32, tc)
	c.encBuf = buf
	if err != nil {
		return err
	}
	return writeFrame(c.w, buf)
}

// readResponse decodes the next response into resp over a (see
// parseResponseInto for who owns the result) and returns the server's echoed
// trace ID (0 when the request was untraced).
func (c *binClientCodec) readResponse(resp *Response, a *tensor.Arena[float64]) (uint64, error) {
	body, err := c.readBody()
	if err != nil {
		return 0, err
	}
	var echo uint64
	if err := parseResponseInto(body, resp, &echo, a); err != nil {
		return 0, err
	}
	return echo, nil
}

// negotiateClient performs the hello exchange on a fresh connection,
// returning whether the server accepted the float32 payload flag. A
// non-empty clientID is offered via the hello
// flag and declared in a client-ID frame only when the ack echoes the flag —
// the server's promise to read it.
func negotiateClient(conn io.Writer, r *bufio.Reader, f32 bool, clientID string) (f32OK bool, err error) {
	var flags byte
	if f32 {
		flags |= wireFlagF32
	}
	if clientID != "" {
		if !ValidClientID(clientID) {
			return false, fmt.Errorf("comm: client ID %q is not 1-%d printable ASCII bytes", clientID, maxWireClientID)
		}
		flags |= wireFlagClientID
	}
	hello := helloBytes(wireVersion, flags)
	if _, err := conn.Write(hello[:]); err != nil {
		return false, fmt.Errorf("comm: sending wire hello: %w", err)
	}
	var ack [8]byte
	if _, err := io.ReadFull(r, ack[:]); err != nil {
		return false, fmt.Errorf("comm: reading wire hello ack: %w", err)
	}
	if [4]byte(ack[:4]) != wireMagic {
		return false, fmt.Errorf("comm: server is not speaking the ensembler wire protocol")
	}
	// The server is untrusted: an ack naming any version but the one offered
	// (0 is its refusal of our hello) ends the dial.
	if ack[4] != wireVersion {
		return false, fmt.Errorf("comm: server answered with unsupported wire version %d (this client speaks %d)", ack[4], wireVersion)
	}
	if clientID != "" && ack[5]&wireFlagClientID != 0 {
		frame := appendClientID([]byte{0, 0, 0, 0}, clientID)
		if err := writeFrame(conn, frame); err != nil {
			return false, fmt.Errorf("comm: sending client ID: %w", err)
		}
	}
	return ack[5]&wireFlagF32 != 0, nil
}

// DecodeWireStream parses a captured client→server byte stream — the
// adversary's observational power over one connection — and returns every
// decoded request. The framing is public by design (Kerckhoffs: only the
// client's selection is secret); the shard privacy tests invert exactly
// what this function recovers from a wiretap.
func DecodeWireStream(stream []byte) ([]*Request, error) {
	if len(stream) < 4 || [4]byte(stream[:4]) != wireMagic {
		return nil, fmt.Errorf("comm: stream does not open with the wire hello")
	}
	if len(stream) < 8 {
		return nil, fmt.Errorf("comm: truncated wire hello")
	}
	rest := stream[8:]
	var out []*Request
	for len(rest) > 0 {
		if len(rest) < 4 {
			return out, fmt.Errorf("comm: truncated frame header")
		}
		n := binary.LittleEndian.Uint32(rest)
		if n > maxWireFrame {
			return out, fmt.Errorf("comm: frame of %d bytes exceeds limit", n)
		}
		if len(rest) < 4+int(n) {
			return out, fmt.Errorf("comm: truncated frame body")
		}
		body := rest[4 : 4+int(n)]
		rest = rest[4+int(n):]
		// A capture may open with the client-ID frame; the wiretap's request
		// recovery skips (but still validates) it.
		if len(body) > 0 && body[0] == wireMsgClientID {
			if _, err := parseClientID(body); err != nil {
				return out, err
			}
			continue
		}
		req, err := parseRequest(body, nil)
		if err != nil {
			return out, err
		}
		out = append(out, req)
	}
	return out, nil
}
