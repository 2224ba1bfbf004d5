package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"strconv"
	"time"

	"ensembler/internal/comm"
	"ensembler/internal/tensor"
	"ensembler/internal/trace"
)

// Benchmark-side span names. A monolith request splits into the client's
// public steps; a fleet request is one shard.Client.Infer whose inner split
// (head, the slowest shard's scatter, tail) comes from the shard client's own
// root-leg records.
const (
	spanRequest = iota
	spanFeatures
	spanExchange
	spanSelectTail
	spanHead
	spanScatter
	spanTail
)

var spanNames = []string{"request", "features", "exchange", "select_tail", "head", "scatter", "tail"}

// recorder wraps every call of the traced run in spans kept in memory until
// the run ends. Each generator appends to its own slice; span IDs are the
// slice position offset by the generator's idBase, so nothing is shared on
// the hot path.
type recorder struct {
	s    *stack
	base time.Time
}

func newRecorder(s *stack) *recorder {
	for _, g := range s.gens {
		g.spans = g.spans[:0]
	}
	return &recorder{s: s, base: time.Now()}
}

func (rec *recorder) now() int64 { return int64(time.Since(rec.base)) }

func (g *generator) span(parent int32, req int, name uint8, start, end int64) int32 {
	id := g.idBase + int32(len(g.spans)) + 1
	g.spans = append(g.spans, span{ID: id, Parent: parent, Req: int32(req), Name: name, Start: start, End: end})
	return id
}

// request is the traced request path: the same work as generator.infer,
// with the client's public steps called one by one and timed apart.
func (rec *recorder) request(g *generator, ctx context.Context, req int, x *tensor.Tensor) (*tensor.Tensor, comm.Timing, error) {
	if g.sc != nil {
		t0 := rec.now()
		logits, tm, err := g.sc.Infer(ctx, x)
		g.span(0, req, spanRequest, t0, rec.now())
		return logits, tm, err
	}
	t0 := rec.now()
	feats := g.c.ComputeFeatures(x)
	t1 := rec.now()
	ex, tm, err := g.c.Exchange(ctx, feats)
	t2 := rec.now()
	if err != nil {
		return nil, tm, err
	}
	logits := g.rt.Tail.Forward(g.rt.Select(ex.Features), false)
	t3 := rec.now()
	tm.Client = time.Duration(t1 - t0 + t3 - t2)
	root := g.span(0, req, spanRequest, t0, t3)
	g.span(root, req, spanFeatures, t0, t1)
	g.span(root, req, spanExchange, t1, t2)
	g.span(root, req, spanSelectTail, t2, t3)
	return logits, tm, nil
}

// shardLegs attaches each fleet request's head, scatter and tail spans from
// the shard clients' root-leg records, and fills the shard.stage_* means.
// Every generator's tracer retains all its legs in order, so its last
// len(requests) records are exactly the traced requests.
func (rec *recorder) shardLegs(m map[string]float64, slowestServerUS float64) error {
	var head, scatter, tail, n float64
	baseWall := rec.base.UnixNano()
	for _, g := range rec.s.gens {
		roots := g.spans
		recs := g.tr.Snapshot()
		if finished, retained := g.tr.Counts(); finished != retained || len(recs) < len(roots) {
			return fmt.Errorf("shard tracer kept %d of %d legs (%d in the ring) for %d traced requests", retained, finished, len(recs), len(roots))
		}
		recs = recs[len(recs)-len(roots):]
		for i, r := range recs {
			root := roots[i]
			// The gather waits for the slowest shard, so that exchange is
			// the request's scatter span; the faster ones ran beside it.
			var slow trace.Span
			for _, sp := range r.Spans[:r.N] {
				name := uint8(spanHead)
				switch {
				case sp.Stage == trace.StageScatter:
					if sp.Dur >= slow.Dur {
						slow = sp
					}
					continue
				case sp.Stage != trace.StageClient:
					continue
				case sp.Arg == 0:
					head += float64(sp.Dur)
				default:
					name = spanTail
					tail += float64(sp.Dur)
				}
				start := r.Start - baseWall + sp.Start
				g.span(root.ID, int(root.Req), name, start, start+sp.Dur)
			}
			start := r.Start - baseWall + slow.Start
			g.span(root.ID, int(root.Req), spanScatter, start, start+slow.Dur)
			scatter += float64(slow.Dur)
			n++
		}
	}
	m["shard.stage_head_us"] = head / n / 1e3
	m["shard.stage_scatter_us"] = scatter / n / 1e3
	m["shard.stage_tail_us"] = tail / n / 1e3
	// What scatter/gather adds on top of the slowest shard server's own
	// attributed time: goroutine fan-out, pool checkout, codec, loopback.
	m["shard.scatter_overhead_us"] = m["shard.stage_scatter_us"] - slowestServerUS
	return nil
}

func (rec *recorder) all() []span {
	var out []span
	for _, g := range rec.s.gens {
		out = append(out, g.spans...)
	}
	return out
}

// reconcile prints where the traced run's generator time went: per span
// name the mean duration and mean self time, and the identity
// Σ self + residual = generators × wall, where the residual is what the
// spans do not cover (the loop's own bookkeeping, the oracle check, and the
// idle tail of each round).
func (rec *recorder) reconcile(log io.Writer, spans []span, t roundStats) {
	self := selfTimes(spans)
	dur, own, count := make([]int64, len(spanNames)), make([]int64, len(spanNames)), make([]int64, len(spanNames))
	for _, s := range spans {
		dur[s.Name] += s.End - s.Start
		own[s.Name] += self[s.ID]
		count[s.Name]++
	}
	var sumSelf int64
	w := rec.s.w.name
	for i, name := range spanNames {
		if count[i] == 0 {
			continue
		}
		sumSelf += own[i]
		fmt.Fprintf(log, "# %s span %-11s n=%-7d mean %9.2f us  self %9.2f us\n", w, name, count[i],
			float64(dur[i])/float64(count[i])/1e3, float64(own[i])/float64(count[i])/1e3)
	}
	wall := int64(t.wall) * int64(len(rec.s.gens))
	perReq := float64(wall) / float64(t.n) / 1e3
	fmt.Fprintf(log, "# %s reconcile: self %.3fs + residual %.3fs = %.3fs generator wall; per request %.2f us self + %.2f us residual = %.2f us wall (%.2f%% unattributed, of which inside request spans %.2f%%)\n",
		w, float64(sumSelf)/1e9, float64(wall-sumSelf)/1e9, float64(wall)/1e9,
		float64(sumSelf)/float64(t.n)/1e3, perReq-float64(sumSelf)/float64(t.n)/1e3, perReq,
		float64(wall-sumSelf)/float64(wall)*100, float64(own[spanRequest])/float64(wall)*100)
}

// write stores the spans as compact JSON: one row per span, columns as
// listed, names indexed into "names", times in nanoseconds since the traced
// phase began.
func (rec *recorder) write(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	fmt.Fprintf(bw, `{"workload":%q,"unit":"ns","names":[`, rec.s.w.name)
	for i, n := range spanNames {
		if i > 0 {
			bw.WriteByte(',')
		}
		fmt.Fprintf(bw, "%q", n)
	}
	bw.WriteString(`],"columns":["id","parent","request","name","start","end"],"spans":[` + "\n")
	var buf []byte
	for i, s := range spans {
		buf = buf[:0]
		if i > 0 {
			buf = append(buf, ",\n"...)
		}
		buf = append(buf, '[')
		for j, v := range [...]int64{int64(s.ID), int64(s.Parent), int64(s.Req), int64(s.Name), s.Start, s.End} {
			if j > 0 {
				buf = append(buf, ',')
			}
			buf = strconv.AppendInt(buf, v, 10)
		}
		bw.Write(append(buf, ']'))
	}
	bw.WriteString("\n]}\n")
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Close()
}
