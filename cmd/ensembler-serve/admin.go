package main

// The admin plane: a second HTTP listener (-admin-addr) carrying the
// operational surface of a serving process — health, Prometheus metrics,
// live leakage state, the privacy-budget ledger, and traces. Every endpoint
// only reads: nothing here writes the model store. It is deliberately a
// separate listener from the inference socket: the inference port faces
// untrusted clients and speaks the wire protocol only, while the admin port
// is for operators and scrapers and should be firewalled accordingly.
//
// Nothing served here reveals the secret selection: health and metrics
// describe traffic volume, latency, versions, and leakage scores — all
// quantities a wire observer or the (adversarial) serving box itself already
// has. See DESIGN.md §2e on why the on-box auditor widens no attack surface.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"

	"ensembler/internal/audit"
	"ensembler/internal/faultpoint"
	"ensembler/internal/privacy"
	"ensembler/internal/registry"
	"ensembler/internal/shard"
	"ensembler/internal/telemetry"
	"ensembler/internal/trace"
)

// adminPlane bundles what the admin endpoints read and do.
type adminPlane struct {
	reg     *registry.Registry
	model   string // default model name
	treg    *telemetry.Registry
	auditor *audit.Auditor        // nil: audit disabled
	tracer  *trace.Tracer         // nil: tracing disabled
	guard   *privacy.Guard        // nil: privacy-budget ledger disabled
	fleet   func() []shard.Health // nil: no fleet client in this process
	pprof   bool                  // expose net/http/pprof under /debug/pprof/
	workers int
	shard   string // "k/K" in fleet mode, "" otherwise
	start   time.Time
}

// mux builds the admin endpoint routing.
func (a *adminPlane) mux() *http.ServeMux {
	m := http.NewServeMux()
	m.HandleFunc("/healthz", a.handleHealthz)
	m.Handle("/metrics", a.treg.Handler())
	m.HandleFunc("/leakage", a.handleLeakage)
	m.HandleFunc("/budget", a.handleBudget)
	m.HandleFunc("/traces", a.handleTraces)
	m.HandleFunc("/traces/", a.handleTraceByID)
	if a.pprof {
		// Registered explicitly instead of importing for the DefaultServeMux
		// side effect: the admin plane never serves DefaultServeMux, and the
		// profiler should exist only when the operator asked for it.
		m.HandleFunc("/debug/pprof/", pprof.Index)
		m.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		m.HandleFunc("/debug/pprof/profile", pprof.Profile)
		m.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		m.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return m
}

// handleTraces lists the tail-sampled traces currently retained in the
// tracer's ring, newest first, plus the per-stage latency attribution the
// histograms have accumulated — the "what is slow" summary an operator reads
// before pulling a full timeline.
func (a *adminPlane) handleTraces(w http.ResponseWriter, r *http.Request) {
	if a.tracer == nil {
		writeJSON(w, http.StatusOK, map[string]any{"enabled": false})
		return
	}
	recs := a.tracer.Snapshot()
	finished, retained := a.tracer.Counts()
	type summary struct {
		ID    string  `json:"id"`
		Start string  `json:"start"`
		Ms    float64 `json:"duration_ms"`
		Spans int     `json:"spans"`
		Err   bool    `json:"err,omitempty"`
	}
	sums := make([]summary, 0, len(recs))
	for i := len(recs) - 1; i >= 0; i-- {
		rec := recs[i]
		sums = append(sums, summary{
			ID:    fmt.Sprintf("%016x", rec.ID),
			Start: time.Unix(0, rec.Start).UTC().Format(time.RFC3339Nano),
			Ms:    float64(rec.Dur) / 1e6,
			Spans: rec.N,
			Err:   rec.Err,
		})
	}
	stages := a.tracer.StageStats()
	type stageRow struct {
		Stage  string  `json:"stage"`
		Count  uint64  `json:"count"`
		MeanMs float64 `json:"mean_ms"`
		P99Ms  float64 `json:"p99_ms"`
	}
	rows := make([]stageRow, 0, len(stages))
	for _, s := range stages {
		rows = append(rows, stageRow{
			Stage: s.Stage, Count: s.Count,
			MeanMs: float64(s.Mean) / float64(time.Millisecond),
			P99Ms:  float64(s.P99) / float64(time.Millisecond),
		})
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"enabled":  true,
		"finished": finished,
		"retained": retained,
		"traces":   sums,
		"stages":   rows,
	})
}

// handleTraceByID serves one stitched trace — every retained leg sharing the
// requested ID — as Chrome trace-event JSON, loadable directly in Perfetto
// (ui.perfetto.dev) or chrome://tracing.
func (a *adminPlane) handleTraceByID(w http.ResponseWriter, r *http.Request) {
	if a.tracer == nil {
		writeJSON(w, http.StatusNotFound, map[string]any{"error": "tracing disabled"})
		return
	}
	idStr := strings.TrimPrefix(r.URL.Path, "/traces/")
	id, err := strconv.ParseUint(idStr, 16, 64)
	if err != nil || id == 0 {
		writeJSON(w, http.StatusBadRequest, map[string]any{
			"error": fmt.Sprintf("trace id must be the hex id from /traces, got %q", idStr),
		})
		return
	}
	recs := a.tracer.TraceByID(id)
	if len(recs) == 0 {
		writeJSON(w, http.StatusNotFound, map[string]any{
			"error": "trace not retained (evicted from the ring, or never sampled)",
		})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = trace.WriteChrome(w, recs)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // the client went away; nothing useful to do
}

func (a *adminPlane) handleHealthz(w http.ResponseWriter, r *http.Request) {
	cur, err := a.reg.Current(a.model)
	if err != nil {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status": "unhealthy", "error": err.Error(),
		})
		return
	}
	resp := map[string]any{
		"status":         "ok",
		"model":          cur.Name(),
		"version":        cur.Version(),
		"models":         a.reg.Models(),
		"workers":        a.workers,
		"uptime_seconds": time.Since(a.start).Seconds(),
		"audit_enabled":  a.auditor != nil,
		"budget_enabled": a.guard != nil,
	}
	if a.shard != "" {
		resp["shard"] = a.shard
	}
	// When this process drives a shard fleet, each shard's circuit-breaker
	// state rides the health payload — the operator's one-glance view of
	// which shards are taking traffic, short-circuited, or probing.
	if a.fleet != nil {
		type shardRow struct {
			Shard         int    `json:"shard"`
			Addr          string `json:"addr"`
			Bodies        string `json:"bodies"`
			Breaker       string `json:"breaker"`
			ConsecFails   int    `json:"consecutive_failures,omitempty"`
			ReopenInMs    int64  `json:"reopen_in_ms,omitempty"`
			Opens         uint64 `json:"breaker_opens,omitempty"`
			Requests      uint64 `json:"requests"`
			Failures      uint64 `json:"failures,omitempty"`
			ShortCircuits uint64 `json:"short_circuits,omitempty"`
			LastErr       string `json:"last_err,omitempty"`
		}
		healths := a.fleet()
		rows := make([]shardRow, 0, len(healths))
		allClosed := true
		for i, h := range healths {
			if h.Breaker != shard.BreakerClosed {
				allClosed = false
			}
			rows = append(rows, shardRow{
				Shard: i + 1, Addr: h.Addr, Bodies: h.Bodies.String(),
				Breaker: h.Breaker.String(), ConsecFails: h.ConsecutiveFailures,
				ReopenInMs: h.ReopenIn.Milliseconds(), Opens: h.BreakerOpens,
				Requests: h.Requests, Failures: h.Failures,
				ShortCircuits: h.ShortCircuits, LastErr: h.LastErr,
			})
		}
		resp["shards"] = rows
		if !allClosed {
			resp["status"] = "degraded"
		}
	}
	// Armed fault-injection sites are surfaced loudly: a scraper must be
	// able to tell a chaos run from an organic incident.
	if armed := faultpoint.Active(); len(armed) > 0 {
		resp["faultpoints"] = armed
	}
	writeJSON(w, http.StatusOK, resp)
}

func (a *adminPlane) handleLeakage(w http.ResponseWriter, r *http.Request) {
	if a.auditor == nil {
		writeJSON(w, http.StatusOK, map[string]any{"enabled": false})
		return
	}
	writeJSON(w, http.StatusOK, a.auditor.State())
}

// handleBudget reports the privacy-budget ledger: its row budget and
// counters, the top spenders, and every tracked client account's
// spent/remaining rows — the operator's view of who is pulling the most
// rows and what the policy has done about it.
func (a *adminPlane) handleBudget(w http.ResponseWriter, r *http.Request) {
	if a.guard == nil {
		writeJSON(w, http.StatusOK, map[string]any{"enabled": false})
		return
	}
	ledger := a.guard.Ledger()
	writeJSON(w, http.StatusOK, map[string]any{
		"enabled":      true,
		"observe":      a.guard.Observing(),
		"stats":        ledger.Stats(),
		"noised":       a.guard.Noised(),
		"refusals":     a.guard.Refusals(),
		"top_spenders": ledger.TopSpenders(10),
		"clients":      ledger.Snapshot(),
	})
}

// serveAdmin binds the admin listener, announces its address on stdout (the
// second scrapeable banner line), and serves until ctx is cancelled.
func serveAdmin(ctx context.Context, addr string, plane *adminPlane, announce func(format string, args ...any)) (func() error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("admin plane: listening on %s: %w", addr, err)
	}
	announce("admin listening on %s\n", ln.Addr())
	srv := &http.Server{Handler: plane.mux()}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	go func() {
		<-ctx.Done()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = srv.Shutdown(shutdownCtx)
	}()
	return func() error {
		err := <-done
		if errors.Is(err, http.ErrServerClosed) || ctx.Err() != nil {
			return nil
		}
		return err
	}, nil
}
